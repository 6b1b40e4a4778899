import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orbitkit.cli import main, run_scenario
from orbitkit.errors import DimensionMismatch, ParseError, UnknownBuiltin
from orbitkit.report import read_point_cloud, strip_timestamp
from orbitkit.scenario import parse_scenario

SRC = Path(__file__).resolve().parents[1] / "src"

HEIS_SCENARIO = """\
version 1
family {
  builtin heisenberg {
    radius 8
  }
}
lb {
  order 2
}
defaults {
  tol 1e-09
  seed 42
}
command verdict {
  point 0 0 0
  k-max 3
}
"""

POLY_SCENARIO = """\
version 1
space {
  dim 2
  norm euclidean
}
family {
  domain {
    center 0 0
    radius 4
  }
  poly X1 {
    component 0 {
      term 1.0 0 0
    }
  }
  poly X2 {
    component 1 {
      term 1.0 1 0
    }
  }
}
command bracket-chain {
  point 0 0
  k-max 2
}
"""


class TestParsing:
    def test_builtin_heisenberg(self):
        sc = parse_scenario(HEIS_SCENARIO)
        fam = sc.build_family()
        assert fam.space.dimension == 3
        assert len(fam.members) == 2
        assert len(sc.commands()) == 1

    def test_affine_builtin(self):
        sc = parse_scenario("""\
family {
  builtin affine-l1 {
    dim 8
    count 8
  }
}
command check-lb {
}
""")
        fam = sc.build_family()
        assert len(fam.members) == 8
        assert fam.space.truncation_of_l1
        # constant-direction members: evaluation is point-independent
        a = fam.members[3](np.zeros(8))
        b = fam.members[3](np.ones(8))
        assert np.array_equal(a, b)

    def test_duplicate_label_rejected(self):
        bad = POLY_SCENARIO.replace("poly X2", "poly X1")
        with pytest.raises(ParseError):
            parse_scenario(bad)

    def test_unknown_builtin(self):
        with pytest.raises(UnknownBuiltin):
            parse_scenario("family {\n  builtin nosuch {\n  }\n}\n")

    def test_unbalanced_braces(self):
        with pytest.raises(ParseError):
            parse_scenario("family {\n  builtin heisenberg {\n}\n")

    def test_dimension_mismatch(self):
        bad = POLY_SCENARIO.replace("center 0 0", "center 0 0 0")
        with pytest.raises(DimensionMismatch):
            parse_scenario(bad)

    def test_unknown_command(self):
        with pytest.raises(ParseError):
            parse_scenario(HEIS_SCENARIO.replace("command verdict", "command dance"))

    def test_poly_family_builds(self):
        sc = parse_scenario(POLY_SCENARIO)
        fam = sc.build_family()
        assert np.array_equal(fam.members[1](np.array([2.0, 0.0])), [0.0, 2.0])

    def test_round_trip_byte_identical(self):
        sc = parse_scenario(HEIS_SCENARIO)
        first = sc.emit()
        second = parse_scenario(first).emit()
        assert first == second
        sc2 = parse_scenario(POLY_SCENARIO)
        assert sc2.emit() == parse_scenario(sc2.emit()).emit()

    def test_operator_family_builtin(self):
        sc = parse_scenario("""\
family {
  builtin operator-family {
    dim 2
    count 2
    matrix-term 1.0 0 0 0 0
    matrix-term 1.0 0 0 1 1
    matrix-term 1.0 1 0 1 0
  }
}
command check-lb {
}
""")
        fam = sc.build_family()
        assert len(fam.members) == 2
        # first row of the matrix map is the identity part
        assert np.array_equal(fam.members[0](np.array([1.0, 0.0])), [1.0, 1.0])


class TestRunner:
    def test_verdict_report(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO)
        code = run_scenario(sc, tmp_path / "out")
        assert code == 0
        text = (tmp_path / "out" / "report-01-verdict.txt").read_text()
        assert "kind exactly_controllable" in text
        assert "ranks 2 3" in text
        assert "provenance declared" in text
        assert "status ok" in text

    def test_guard_violation_captured(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO + """\
command compose {
  point 0 0 0
  entry 0 2.0
  entry 1 2.0
}
""")
        code = run_scenario(sc, tmp_path / "out")
        assert code == 1
        text = (tmp_path / "out" / "report-02-compose.txt").read_text()
        assert "status error" in text
        assert "type GuardViolated" in text

    BAD_COMMANDS = [
        ("flow", "point 0 0 zz\n  piece 0 1 0 1", "ParseError"),
        ("flow", "point 0 0 0\n  piece 0 1 0 1\n  piece 0.5 2 1 1", "InvalidArgument"),
        ("flow", "point 0 0 0\n  piece 0 0 0 1", "InvalidArgument"),
        ("flow", "point 0 0 0\n  piece 0 1 nan 1", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  path bogus", "InvalidArgument"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  path", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  tail", "ParseError"),
        ("compose", "point 0 0 0\n  entry nan 0.1", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  curve-samples 3\n  out", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  budget 0", "InvalidArgument"),
        ("orbit-sample", "point 0 0 0\n  budget", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  budget nan", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  mode", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  budget 3\n  out", "ParseError"),
        ("check-lb", "order", "ParseError"),
        ("check-lb", "samples", "ParseError"),
        ("slice", "point 0 0 0\n  grid", "ParseError"),
        ("slice", "point 0 0 0\n  axes x", "ParseError"),
        ("slice", "point 0 0 0\n  axes", "ParseError"),
        ("slice", "point 0 0 0\n  grid 2\n  out", "ParseError"),
        ("certify-hprime", "grid", "ParseError"),
    ]

    def test_bad_arguments_give_error_reports(self, tmp_path):
        sc_file = tmp_path / "bad.scn"
        sc_file.write_text(HEIS_SCENARIO.split("command")[0] + "".join(
            f"command {name} {{\n  {body}\n}}\n" for name, body, _ in self.BAD_COMMANDS))
        assert main(["run", str(sc_file), "--out", str(tmp_path / "out")]) == 1
        reports = sorted((tmp_path / "out").glob("report-*.txt"))
        assert [r.name for r in reports] == [f"report-{i:02d}-{name}.txt" for i, (name, _, _)
                                             in enumerate(self.BAD_COMMANDS, start=1)]
        for r, (_, body, kind) in zip(reports, self.BAD_COMMANDS):
            text = r.read_text()
            assert "status error" in text, body
            assert f"type {kind}" in text, body

    def test_lb_region_is_a_ball_of_the_chart_norm(self, tmp_path):
        # r is half the distance from (1.9, 1.9, 0, 0) to the region's
        # boundary: 0.1 / 2 in l1; a euclidean ball would give (3.9 - 2.687) / 2
        sc = parse_scenario("""\
space {
  dim 4
  norm l1
  l1-truncation on
}
family {
  builtin affine-l1 {
    dim 4
    count 2
  }
}
lb {
  region {
    center 0 0 0 0
    radius 3.9
  }
}
command flow {
  point 1.9 1.9 0 0
  piece 0 0.01 0 1
  unsafe on
}
""")
        assert sc.lb_params(sc.build_family().space)["region"].norm_kind == "l1"
        assert run_scenario(sc, tmp_path / "out") == 0
        text = (tmp_path / "out" / "report-01-flow.txt").read_text()
        r = [float(line.split()[1]) for line in text.splitlines() if line.split()[:1] == ["r"]]
        assert r == [pytest.approx(0.05)]

    def test_lb_region_dimension_checked(self):
        bad = HEIS_SCENARIO.replace("  order 2\n", "  order 2\n  region {\n    center 0 0\n"
                                    "    radius 1\n  }\n")
        assert "region" in bad
        with pytest.raises(DimensionMismatch):
            parse_scenario(bad)

    def test_unsafe_override(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO + """\
command compose {
  point 0 0 0
  entry 0 2.0
  entry 1 2.0
  unsafe on
}
""")
        code = run_scenario(sc, tmp_path / "out")
        assert code == 0
        text = (tmp_path / "out" / "report-02-compose.txt").read_text()
        assert "unsafe on" in text

    def test_orbit_sample_cloud_file(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO + """\
command orbit-sample {
  point 0 0 0
  budget 100
  max-word-len 10
  out cloud.txt
}
""")
        code = run_scenario(sc, tmp_path / "out")
        assert code == 0
        pts = read_point_cloud(tmp_path / "out" / "cloud.txt")
        assert pts.shape[1] == 3
        header = (tmp_path / "out" / "cloud.txt").read_text().splitlines()[0]
        assert header.split() == ["x0", "x1", "x2"]
        text = (tmp_path / "out" / "report-02-orbit-sample.txt").read_text()
        assert f"points {pts.shape[0]}" in text

    def test_determinism_same_seed(self, tmp_path):
        body = HEIS_SCENARIO + """\
command orbit-sample {
  point 0 0 0
  budget 150
  max-word-len 12
  out cloud.txt
}
command compose {
  point 0 0 0
  entry 0 0.2
  entry 1 -0.1
}
"""
        sc = parse_scenario(body)
        run_scenario(sc, tmp_path / "a")
        run_scenario(sc, tmp_path / "b")
        for f in sorted((tmp_path / "a").iterdir()):
            ta = strip_timestamp(f.read_text())
            tb = strip_timestamp((tmp_path / "b" / f.name).read_text())
            assert ta == tb

    def test_bad_entry_index_captured(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO + """\
command compose {
  point 0 0 0
  entry 7 0.1
}
""")
        code = run_scenario(sc, tmp_path / "out")
        assert code == 1
        text = (tmp_path / "out" / "report-02-compose.txt").read_text()
        assert "status error" in text

    def test_seed_override_changes_cloud(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO + """\
command orbit-sample {
  point 0 0 0
  budget 100
  max-word-len 10
  out cloud.txt
}
""")
        run_scenario(sc, tmp_path / "a")
        run_scenario(sc, tmp_path / "b", seed=7)
        ca = (tmp_path / "a" / "cloud.txt").read_text()
        cb = (tmp_path / "b" / "cloud.txt").read_text()
        assert ca != cb

    def test_flow_command(self, tmp_path):
        sc = parse_scenario(HEIS_SCENARIO + """\
command flow {
  point 0 0 0
  duration 0.25
  piece 0 0.25 0 1.0
  variational on
}
""")
        code = run_scenario(sc, tmp_path / "out")
        assert code == 0
        text = (tmp_path / "out" / "report-02-flow.txt").read_text()
        assert "endpoint 0.25 0.0 0.0" in text
        assert "variational-row-0 1.0 0.0 0.0" in text


def _builtin(body, space=""):
    return f"{space}family {{\n  builtin {body}\n  }}\n}}\ncommand check-lb {{\n}}\n"


def _poly(domain_radius="4", component="0", term="1.0 0 0"):
    return (f"space {{\n  dim 2\n}}\nfamily {{\n  domain {{\n    center 0 0\n"
            f"    radius {domain_radius}\n  }}\n  poly X1 {{\n    component {component} {{\n"
            f"      term {term}\n    }}\n  }}\n}}\ncommand check-lb {{\n}}\n")


def _region(radius):
    return HEIS_SCENARIO.replace("  order 2\n", f"  order 2\n  region {{\n    center 0 0 0\n"
                                 f"    radius {radius}\n  }}\n")


L1_SPACE = "space {\n  dim 4\n  norm l1\n  l1-truncation on\n}\n"

# scenarios whose family or lb section a library constructor used to reject
# with a ValueError or IndexError traceback
BAD_SCENARIOS = {
    "lb-region-radius-0": _region("0"),
    "lb-region-radius-nan": _region("nan"),
    "domain-radius-0": _poly(domain_radius="0"),
    "domain-radius-nan": _poly(domain_radius="nan"),
    "builtin-radius-0": _builtin("heisenberg {\n    radius 0"),
    "builtin-radius-nan": _builtin("heisenberg {\n    radius nan"),
    "builtin-decay-nan": _builtin("affine-l1 {\n    dim 4\n    count 2\n    decay nan", L1_SPACE),
    "builtin-count-0": _builtin("affine-l1 {\n    dim 4\n    count 0", L1_SPACE),
    "norm-kind-without-value": _builtin("heisenberg {\n    norm-kind"),
    "norm-kind-unknown": _builtin("heisenberg {\n    norm-kind taxicab"),
    "space-dim-0": "space {\n  dim 0\n}\n" + _builtin("heisenberg {\n    radius 8"),
    "component-not-a-number": _poly(component="x"),
    "term-exponent-fractional": _poly(term="1.0 0.5 0"),
    "term-exponent-negative": _poly(term="1.0 -1 0"),
    "matrix-term-exponent-fractional": _builtin(
        "operator-family {\n    dim 2\n    count 1\n    matrix-term 1.0 0.5 0 0 0"),
    "matrix-term-row-out-of-range": _builtin(
        "operator-family {\n    dim 2\n    count 1\n    matrix-term 1.0 1 0 5 0"),
    "matrix-term-exponent-count": _builtin(
        "operator-family {\n    dim 2\n    count 1\n    matrix-term 1.0 1 0 0 0 0"),
}


class TestBadScenarios:
    @pytest.mark.parametrize("text", BAD_SCENARIOS.values(), ids=BAD_SCENARIOS.keys())
    def test_check_and_run_report_a_parse_error(self, text, tmp_path, capsys):
        p = tmp_path / "bad.okit"
        p.write_text(text)
        with pytest.raises(ParseError):
            parse_scenario(text)
        assert main(["check", str(p)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_lb_region_outside_the_domain_gives_error_reports(self, tmp_path):
        p = tmp_path / "s.okit"
        p.write_text(_region("100") + "command bracket-chain {\n  point 0 0 0\n}\n")
        assert main(["check", str(p)]) == 0
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        reports = sorted((tmp_path / "out").glob("report-*.txt"))
        assert [r.name for r in reports] == ["report-01-verdict.txt",
                                             "report-02-bracket-chain.txt"]
        for r in reports:
            text = r.read_text()
            assert "status error" in text and "type OutOfDomain" in text


def test_reports_name_the_calculus(tmp_path):
    sc = parse_scenario(HEIS_SCENARIO + "command bracket-chain {\n  point 0 0 0\n}\n"
                        "command certify-hprime {\n  grid 2\n}\ncommand check-lb {\n}\n")
    assert run_scenario(sc, tmp_path / "out") == 0
    reports = sorted((tmp_path / "out").glob("report-*.txt"))
    assert len(reports) == 4
    for r in reports:
        assert "calculus exact" in r.read_text(), r.name


def test_importing_the_cli_leaves_the_lp_solver_unloaded():
    code = ("import sys, orbitkit.cli; "
            "print('scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["False"]


class TestCliEntry:
    def test_catalog(self, capsys):
        assert main(["catalog"]) == 0
        out = capsys.readouterr().out
        assert "heisenberg" in out and "grushin" in out

    def test_check_ok(self, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(HEIS_SCENARIO)
        assert main(["check", str(p)]) == 0

    def test_parse_error_exit_code(self, tmp_path, capsys):
        p = tmp_path / "bad.okit"
        p.write_text("family {\n  wat\n")
        assert main(["check", str(p)]) == 2
        assert main(["run", str(p)]) == 2

    def test_run_writes_reports(self, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(HEIS_SCENARIO)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "report-01-verdict.txt").exists()

    def test_global_unsafe_flag(self, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(HEIS_SCENARIO + """\
command compose {
  point 0 0 0
  entry 0 2.0
  entry 1 2.0
}
""")
        assert main(["run", str(p), "--out", str(tmp_path / "g")]) == 1
        assert main(["run", str(p), "--out", str(tmp_path / "u"), "--unsafe"]) == 0

    def test_lb_region_override(self, tmp_path):
        sc = parse_scenario("""\
family {
  builtin heisenberg {
    radius 8
  }
}
lb {
  order 2
  region {
    center 0 0 0
    radius 2
  }
}
command check-lb {
}
""")
        code = run_scenario(sc, tmp_path / "out")
        assert code == 0
        text = (tmp_path / "out" / "report-01-check-lb.txt").read_text()
        assert "region-radius 2.0" in text
