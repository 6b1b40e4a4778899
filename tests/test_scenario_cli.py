import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orbitkit import cli, orbit, scenario
from orbitkit.catalog import BUILTINS
from orbitkit.cli import main, run_scenario
from orbitkit.errors import DimensionMismatch, ParseError, UnknownBuiltin
from orbitkit.report import Report, read_point_cloud, strip_timestamp
from orbitkit.scenario import (REQUIRED, SCHEMA, Node, emit_tree, parse_scenario, parse_tree,
                               read_command)

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
        ("compose", "point 0 0 0\n  entry 0 0.1\n  path bogus", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  path", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  tail", "ParseError"),
        ("compose", "point 0 0 0\n  entry nan 0.1", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 0.1\n  curve-samples 3\n  out", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  budget 0", "InvalidArgument"),
        ("orbit-sample", "point 0 0 0\n  budget 20\n  max-word-len 0", "InvalidArgument"),
        ("orbit-sample", "point 0 0 0\n  mode independent\n  max-word-len -1", "InvalidArgument"),
        ("orbit-sample", "point 0 0 0\n  budget", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  budget nan", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  mode", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  mode bogus", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  budget 3\n  out", "ParseError"),
        ("check-lb", "order", "ParseError"),
        ("check-lb", "samples", "ParseError"),
        ("slice", "point 0 0 0\n  grid", "ParseError"),
        ("slice", "point 0 0 0\n  axes x", "ParseError"),
        ("slice", "point 0 0 0\n  axes", "ParseError"),
        ("slice", "point 0 0 0\n  grid 2\n  out", "ParseError"),
        ("certify-hprime", "grid", "ParseError"),
        ("certify-hprime", "grid 0", "InvalidArgument"),
        ("slice", "point 0 0 0\n  rho -0.5\n  axes 0 1", "ParseError"),
        ("slice", "point 0 0 0\n  rho 0", "ParseError"),
        ("slice", "point 0 0 0\n  grid 0\n  out s.txt", "InvalidArgument"),
        ("flow", "point 0 0 0\n  piece 0 1 0 0.1\n  tol -1", "ParseError"),
        ("flow", "point 0 0 0\n  piece 0 1 0 0.1\n  tol 0", "ParseError"),
        ("flow", "point 0 0 0\n  piece 0 1 0 0.1\n  tol nan", "ParseError"),
        ("verdict", "point 0 0 0\n  tol inf", "ParseError"),
        ("flow", "point 0 0 0\n  piece 0 1 0 1\n  t0 nan\n  duration 0.1", "ParseError"),
        ("flow", "point 0 0 0\n  piece 0 1 0 1\n  duration inf", "ParseError"),
        ("compose", "point 0 0 0\n  entry 0 inf\n  unsafe on", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  exploration-radius nan", "ParseError"),
        ("orbit-sample", "point 0 0 0\n  exploration-radius -0.5", "ParseError"),
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
        assert sc.lb_params()["region"].norm_kind == "l1"
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
    "defaults-tol-negative": "defaults {\n  tol -1\n}\n" + _builtin("heisenberg {\n    radius 8"),
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

    def test_lb_region_outside_the_domain_is_a_parse_error(self, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(_region("100") + "command bracket-chain {\n  point 0 0 0\n}\n")
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "lb region" in err
        assert not (tmp_path / "out").exists()


_DOMAIN = "  domain {\n    center 0 0\n    radius 4\n  }\n"
_X1 = "  poly X1 {\n    component 0 {\n      term 1.0 0 0\n    }\n  }\n"
_HEIS = "  builtin heisenberg {\n    radius 8\n  }\n"


def _family(body, space="space {\n  dim 2\n}\n"):
    return f"{space}family {{\n{body}}}\ncommand check-lb {{\n}}\n"


# family sections that are rejected, each with the exact class it raises
BAD_FAMILIES = {
    "unknown-entry": (_family(_DOMAIN + _X1 + "  wat 3\n"), ParseError),
    "builtin-plus-poly": (_family(_HEIS + _DOMAIN + _X1), ParseError),
    "two-builtins": (_family(_HEIS + _HEIS, ""), ParseError),
    "poly-without-space": (_family(_DOMAIN + _X1, ""), ParseError),
    "poly-without-domain": (_family(_X1), ParseError),
    "duplicate-label": (_family(_DOMAIN + _X1 + _X1), ParseError),
    "component-out-of-range": (_family(_DOMAIN + _X1.replace("component 0", "component 2")),
                               DimensionMismatch),
    "term-without-coefficient": (_family(_DOMAIN + _X1.replace("term 1.0 0 0", "term")),
                                 ParseError),
    "unknown-poly-entry": (_family(_DOMAIN + "  poly X1 {\n    wat 3\n  }\n"), ParseError),
    "unknown-component-entry": (_family(
        _DOMAIN + "  poly X1 {\n    component 0 {\n      wat 3\n    }\n  }\n"), ParseError),
    "unknown-builtin": (_family("  builtin nosuch {\n  }\n", ""), UnknownBuiltin),
    # a builtin's size is its own radius
    "builtin-plus-domain": (_family(_HEIS + "  domain {\n    center 0 0 0\n    radius 1\n  }\n",
                                    "space {\n  dim 3\n}\n"), ParseError),
}


@pytest.mark.parametrize("text, kind", BAD_FAMILIES.values(), ids=BAD_FAMILIES.keys())
def test_bad_family_sections_raise_their_class(text, kind):
    with pytest.raises((ParseError, UnknownBuiltin)) as info:
        parse_scenario(text)
    assert type(info.value) is kind


def test_every_section_but_version_and_command_is_read_through_the_schema(monkeypatch):
    read = []
    original = scenario.read_options

    def spy(node, table, *args, **kwargs):
        read.append((node.key if node else None, id(table)))
        return original(node, table, *args, **kwargs)

    monkeypatch.setattr(scenario, "read_options", spy)
    for text in (POLY_SCENARIO.replace("family {", "lb {\n  order 1\n}\ndefaults {\n"
                                       "  seed 3\n}\nfamily {"), HEIS_SCENARIO):
        read.clear()
        sc = parse_scenario(text)
        sections = {n.key for n in sc.tree} - {"version", "command"}
        assert sections >= {"family", "lb", "defaults"}
        for key in sections:
            assert (key, id(SCHEMA[key])) in read, key


def test_a_jet_that_overflows_gives_error_reports_not_a_traceback(tmp_path):
    # x0^400 overflows inside the domain of radius 10: the lb record is
    # refused, and every command, check-lb included, reports why
    text = (_poly(domain_radius="10", term="1 400 0") + "lb {\n  order 1\n}\n"
            "command bracket-chain {\n  point 0 0\n}\n")
    p = tmp_path / "s.okit"
    p.write_text(text)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
    reports = sorted((tmp_path / "out").glob("report-*.txt"))
    assert [r.name for r in reports] == ["report-01-check-lb.txt", "report-02-bracket-chain.txt"]
    for r in reports:
        assert "type OutOfDomain" in r.read_text(), r.name


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


def test_a_small_least_l1_solve_leaves_the_lp_solver_unloaded():
    code = ("import sys, numpy as np\n"
            "from orbitkit.algebra import FlowWord, enlarge_field\n"
            "from orbitkit.catalog import heisenberg\n"
            "from orbitkit.fields import estimate_lb_bound\n"
            "from orbitkit.orbit import distribution_at\n"
            "from orbitkit.space import ball\n"
            "heis = heisenberg(radius=8.0)\n"
            "lb = estimate_lb_bound(heis, ball([0, 0, 0], 8.0), 2, 20)\n"
            "extra = enlarge_field(heis, FlowWord(((0, 0.3),)), 1, 1.0, lb)\n"
            "basis = distribution_at(heis, np.array([0.3, -0.2, 0.5]), [extra])\n"
            "basis.coefficient_solver(np.array([1.0, -2.0, 0.5]))\n"
            "print(basis.vectors.shape[1], 'scipy.optimize' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split() == ["3", "False"]


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

    @pytest.mark.parametrize("content", [None, b"\xff"], ids=["missing", "not-utf-8"])
    def test_an_unreadable_scenario_file_is_an_error_not_a_traceback(self, content, tmp_path,
                                                                       capsys):
        p = tmp_path / "s.okit"
        if content is not None:
            p.write_bytes(content)
        for argv in (["check", str(p)], ["run", str(p), "--out", str(tmp_path / "out")]):
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_an_output_path_that_is_a_file_is_an_error_not_a_traceback(self, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(HEIS_SCENARIO)
        (tmp_path / "taken").write_text("")
        assert main(["run", str(p), "--out", str(tmp_path / "taken")]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_writes_reports(self, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(HEIS_SCENARIO)
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "report-01-verdict.txt").exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf", "zz"])
    def test_run_tol_must_be_positive_and_finite(self, tol, tmp_path, capsys):
        p = tmp_path / "s.okit"
        p.write_text(HEIS_SCENARIO)
        assert main(["run", str(p), "--out", str(tmp_path / "out"), "--tol", tol]) == 2
        assert capsys.readouterr().err.startswith("error: '--tol' takes a positive")
        assert not (tmp_path / "out").exists()

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


# -- the option table -----------------------------------------------------------

HEIS_HEADER = HEIS_SCENARIO.split("command")[0]


def _one_command(name, body, header=HEIS_HEADER):
    return header + f"command {name} {{\n  {body}\n}}\n"


def _check(text, tmp_path):
    p = tmp_path / "s.okit"
    p.write_text(text)
    return main(["check", str(p)])


@pytest.mark.parametrize("name, body, kind", TestRunner.BAD_COMMANDS)
def test_check_rejects_the_commands_run_reports_as_parse_errors(name, body, kind, tmp_path,
                                                                capsys):
    code = _check(_one_command(name, body), tmp_path)
    if kind == "ParseError":
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: command 1 '{name}': ")
    else:  # the library rejects the value when the command runs
        assert code == 0


# options that were silently ignored or misread before commands were read
# through the option table
REJECTED_OPTIONS = [
    ("flow", "point 0 0 zz\n  piece 0 1 0 1"),
    ("orbit-sample", "point 0 0 0\n  budgt 5"),
    ("flow", "point 0 0 0\n  piece 0 1 0 1\n  variational yes"),
    ("orbit-sample", "point 0 0 0\n  spot-check yes"),
    ("orbit-sample", "point 0 0 0\n  budget 5\n  budget 6"),
    ("compose", "point 0 0 0\n  entry 7 0.1"),
    ("slice", "point 0 0 0\n  axes 0 5"),
    # repeated axes were added together: the points flowed X1 for twice rho
    ("slice", "point 0 0 0\n  rho 0.3\n  grid 3\n  axes 0 0"),
    ("invert", "point 0 0 0\n  entry 0 0.1\n  out x"),
    ("invert", "point 0 0 0\n  entry 0 0.1\n  curve-samples 3"),
    ("verdict", "k-max 2"),
    ("flow", "point 0 0 0"),
    ("verdict", "point 0 0"),
]


@pytest.mark.parametrize("name, body", REJECTED_OPTIONS)
def test_rejected_options_fail_check_and_get_a_parse_error_report(name, body, tmp_path):
    text = _one_command(name, body) + "command bracket-chain {\n  point 0 0 0\n}\n"
    assert _check(text, tmp_path) == 2
    assert run_scenario(parse_scenario(text), tmp_path / "out") == 1
    first, second = sorted((tmp_path / "out").glob("report-*.txt"))
    assert "type ParseError" in first.read_text() or "type DimensionMismatch" in first.read_text()
    assert "status ok" in second.read_text()


def _with(section_line, extra):
    return HEIS_HEADER.replace(section_line, section_line + extra)


TWO_COMMANDS = "command verdict {\n  point 0 0 0\n}\ncommand check-lb {\n  %s\n}\n"
THEN_VERDICT = "command verdict {\n  point 0 0 0\n}\n"

# values a library call rejects when the scenario runs: each used to end
# `orbitkit run` in a ValueError traceback (an OverflowError for a tail
# factor beyond the floats, or, for `lb samples 0`, to be replaced by the
# default); kinds are the report error types, None for ok
LIBRARY_REJECTIONS = {
    "check-lb-samples-0": (HEIS_HEADER + TWO_COMMANDS % "samples 0", 1, [None, "InvalidArgument"]),
    "check-lb-order-negative": (HEIS_HEADER + TWO_COMMANDS % "order -1", 1,
                                [None, "InvalidArgument"]),
    "lb-declared-negative": (_with("  order 2\n", "  declared -3\n") + TWO_COMMANDS % "order 2",
                             1, ["InvalidArgument"] * 2),
    "lb-samples-0": (_with("  order 2\n", "  samples 0\n") + TWO_COMMANDS % "order 2", 1,
                     ["InvalidArgument"] * 2),
    "defaults-samples-0": (_with("  seed 42\n", "  samples 0\n") + TWO_COMMANDS % "order 2", 1,
                           ["InvalidArgument"] * 2),
    "lb-declared-word": (_with("  order 2\n", "  declared foo\n") + TWO_COMMANDS % "order 2", 2,
                         []),
    **{f"{name}-{key}": (_one_command(name, f"point 0 0 0\n  entry 0 0.1\n  {option}")
                         + THEN_VERDICT, 1, [kind, None])
       for name in ("compose", "invert")
       for key, option, kind in (("tail-negative", "tail -1", "InvalidArgument"),
                                 ("truncation-negative", "truncation -1", "InvalidArgument"),
                                 ("unsafe-overflow", "entry 1 100\n  unsafe on", "LeftDomain"))},
}


@pytest.mark.parametrize("text, code, kinds", LIBRARY_REJECTIONS.values(),
                         ids=LIBRARY_REJECTIONS.keys())
def test_library_rejections_give_reports_not_tracebacks(text, code, kinds, tmp_path, capsys):
    p = tmp_path / "s.okit"
    p.write_text(text)
    assert main(["run", str(p), "--out", str(tmp_path / "out")]) == code
    reports = sorted((tmp_path / "out").glob("report-*.txt"))
    assert len(reports) == len(kinds)
    for r, kind in zip(reports, kinds):
        body = r.read_text()
        assert "status ok" in body if kind is None else f"type {kind}" in body, r.name
    if code == 2:
        assert capsys.readouterr().err.startswith("error: ")


def test_builtin_parameters_are_read_per_builtin():
    assert set(SCHEMA["builtin"]) == set(BUILTINS)
    for body in ("heisenberg {\n    dim 3", "affine-l1 {\n    dim 4", "grushin {\n    radius 4\n"
                 "    radius 5", "affine-l1 {\n    dim 4\n    count 2\n    linear-part yes",
                 "heisenberg {\n  }\n  wat 3\n  nested {"):
        with pytest.raises(ParseError):
            parse_scenario(_builtin(body, L1_SPACE if "affine" in body else ""))


def _readme_commands(column=1):
    """Backticked names per command in a column of README.md's '### Commands'
    table: 1 for the parameters, 2 for the results."""
    text = (SRC.parent / "README.md").read_text().split("### Commands", 1)[1]
    rows = {}
    for line in text.splitlines():
        if not line.startswith("| `"):
            if rows:
                break
            continue
        cells = re.split(r"(?<!\\)\|", line)[1:4]
        rows[cells[0].strip(" `")] = {span.split()[0]
                                      for span in re.findall(r"`([^`]+)`", cells[column])}
    return rows, text


def test_readme_command_table_matches_the_option_table():
    rows, text = _readme_commands()
    assert set(rows) == set(SCHEMA["command"])
    for name, params in rows.items():
        assert params | {"tol", "unsafe"} == set(SCHEMA["command"][name]), name
    assert "Every command also takes `tol <x>` and `unsafe on|off`" in text


# every command, with the options that add optional results
EVERY_COMMAND = HEIS_SCENARIO + """\
command check-lb {
}
command flow {
  point 0 0 0
  duration 0.2
  piece 0 0.2 0 1
  variational on
}
command compose {
  point 0 0 0
  entry 0 0.1
  entry 1 0.1
  curve-samples 2
  out curve.txt
}
command invert {
  point 0 0 0
  entry 0 0.1
}
command slice {
  point 0 0 0
  rho 0.2
  grid 2
  axes 0 1
  out slice.txt
}
command bracket-chain {
  point 0 0 0
}
command certify-hprime {
  grid 2
}
command orbit-sample {
  point 0 0 0
  budget 20
  max-word-len 3
  spot-check on
  out cloud.txt
}
command verdict {
  point 0 0 0
  k-max 1
}
"""
GUARDED = {"flow", "compose", "invert", "slice", "orbit-sample"}


def _report(path):
    """A report file's ``report`` section."""
    (root,) = parse_tree(path.read_text())
    return root


def _leaves(node):
    return {c.key: c.args for c in node.children}


def test_reports_match_the_readme_results_column_and_carry_lb_and_guard(tmp_path):
    assert run_scenario(parse_scenario(EVERY_COMMAND), tmp_path / "out") == 0
    written: dict[str, set] = {}
    for path in sorted((tmp_path / "out").glob("report-*.txt")):
        report = _report(path)
        name = report.child("command").args[0]
        keys = {re.sub(r"-\d+$", "-<i>", c.key) for c in report.child("results").children}
        written.setdefault(name, set()).update(keys)
        cfg = report.child("configuration")
        assert set(_leaves(cfg.child("lb"))) == {"k", "order", "provenance"}, path.name
        guard = cfg.child("guard")
        assert (guard is not None) == (name in GUARDED), path.name
        if guard is not None:
            assert set(_leaves(guard)) == {"r", "k", "c", "T0", "margin", "unsafe"}
    rows, _ = _readme_commands(column=2)
    assert set(written) == set(rows)
    for name, keys in written.items():
        # one verdict kind per report: the scenario gives two of the three
        missing = {"truncation-ranks"} if name == "verdict" else set()
        assert keys == rows[name] - missing, name


def test_error_reports_carry_the_configuration(tmp_path):
    text = _one_command("compose", "point 0 0 0\n  entry 0 2.0\n  entry 1 2.0")
    assert run_scenario(parse_scenario(text), tmp_path / "out") == 1
    report = _report(tmp_path / "out" / "report-01-compose.txt")
    cfg = _leaves(report.child("configuration"))
    assert {"norm", "dimension", "members", "l1-truncation", "tol", "seed", "lb"} == set(cfg)
    assert _leaves(report.child("error"))["type"] == ["GuardViolated"]
    assert report.child("status").args == ["error"]
    # the status is read from the error: a report that carries one says so
    echo = report.child("command")
    for error, status in ((None, "ok"), (("GuardViolated", "margin -1"), "error")):
        rendered = parse_tree(Report(echo, [], [], error=error).render())[0]
        assert rendered.child("status").args == [status]


def test_every_command_of_the_option_table_has_one_runner():
    assert set(cli.COMMANDS) == set(SCHEMA["command"])


@pytest.mark.parametrize("out", [None, "curve.txt"])
def test_compose_replays_its_curve_in_the_lb_region_only_to_write_it(out, tmp_path, monkeypatch):
    from orbitkit import compose
    regions, replay = [], compose.extract_l1_curve

    def spy(res, samples_per_piece):
        regions.append(res.region)
        return replay(res, samples_per_piece)

    monkeypatch.setattr(compose, "extract_l1_curve", spy)
    header = _region("4").split("command")[0]
    body = "point 0 0 0\n  entry 0 0.1\n  entry 1 0.1\n  curve-samples 3"
    text = _one_command("compose", body + (f"\n  out {out}" if out else ""), header)
    assert run_scenario(parse_scenario(text), tmp_path / "out") == 0
    assert [(r.radius, r.center.tolist()) for r in regions] == ([(4.0, [0, 0, 0])] if out else [])
    if out:
        assert read_point_cloud(tmp_path / "out" / out).shape == (7, 3)


@pytest.mark.parametrize("rho, unsafe", [("0.3", "off"), ("0.6", "on")])
def test_slice_reports_the_guard_it_enforced(rho, unsafe, tmp_path):
    # the per-axis guard rho < r/k, with r/k = 0.441 here
    text = _one_command("slice", f"point 0 0 0\n  rho {rho}\n  grid 3\n  axes 0 1\n"
                        f"  unsafe {unsafe}")
    assert run_scenario(parse_scenario(text), tmp_path / "out") == 0
    report = _report(tmp_path / "out" / "report-01-slice.txt")
    assert report.child("status").args == ["ok"]
    guard = {k: v[0] for k, v in _leaves(report.child("configuration").child("guard")).items()}
    assert float(guard["T0"]) == float(rho)
    limit = float(guard["r"]) / float(guard["k"])
    assert float(guard["margin"]) == pytest.approx(limit - float(rho), rel=1e-12)
    assert (float(guard["margin"]) > 0) == (unsafe == "off")
    assert guard["unsafe"] == unsafe


def test_unguarded_commands_run_outside_the_lb_region(tmp_path):
    # bracket chains and verdicts integrate nothing, so no guard applies
    text = _region("1") + ("command bracket-chain {\n  point 2 0 0\n}\n"
                           "command verdict {\n  point 2 0 0\n}\n")
    assert run_scenario(parse_scenario(text), tmp_path / "out") == 0
    for path in sorted((tmp_path / "out").glob("report-*.txt")):
        report = _report(path)
        assert report.child("status").args == ["ok"], path.name
        assert _leaves(report.child("results"))["ranks"] == ["2", "3"], path.name


def test_a_run_tol_replaces_the_defaults_tol_and_a_command_tol_wins(tmp_path, capsys):
    flow = "point 0 0 0\n  duration 0.2\n  piece 0 0.2 0 1"
    text = HEIS_HEADER + "".join(f"command {name} {{\n  {body}\n}}\n" for name, body in (
        ("flow", flow), ("flow", flow + "\n  tol 1e-05"), ("verdict", "bogus 1")))
    p = tmp_path / "s.okit"
    p.write_text(text)
    runs = {"api": lambda out: run_scenario(parse_scenario(text), out, tol=1e-6),
            "cli": lambda out: main(["run", str(p), "--out", str(out), "--tol", "1e-6"])}
    for how, run in runs.items():
        assert run(tmp_path / how) == 1
        reports = [_report(path) for path in sorted((tmp_path / how).glob("report-*.txt"))]
        # the error report of the bad verdict carries the run's tol too
        assert [float(r.child("configuration").child("tol").args[0]) for r in reports] \
            == [1e-6, 1e-5, 1e-6], how
        assert [float(_leaves(r.child("results"))["endpoint-tolerance"][0])
                for r in reports[:2]] == [1e-6 * 1.2, 1e-5 * 1.2], how
        assert reports[2].child("status").args == ["error"]


def test_an_error_report_carries_the_tol_its_command_resolved(tmp_path):
    # the guard fails (r/k = 0.441 < 0.5) after the command's own tol is read
    text = _one_command("flow", "point 0 0 0\n  duration 0.5\n  piece 0 0.5 0 1\n  tol 1e-05")
    assert run_scenario(parse_scenario(text), tmp_path / "out", tol=1e-6) == 1
    report = _report(tmp_path / "out" / "report-01-flow.txt")
    assert _leaves(report.child("error"))["type"] == ["GuardViolated"]
    assert _leaves(report.child("configuration"))["tol"] == ["1e-05"]


def test_a_verdict_on_a_truncated_l1_chart_reports_its_truncation_ranks(tmp_path):
    text = ("space {\n  dim 16\n  norm l1\n  l1-truncation on\n}\n"
            "family {\n  builtin affine-l1 {\n    dim 16\n    count 3\n  }\n}\n"
            "command verdict {\n  point" + " 0" * 16 + "\n}\n")
    sc = parse_scenario(text)
    assert run_scenario(sc, tmp_path / "out") == 0
    results = _leaves(_report(tmp_path / "out" / "report-01-verdict.txt").child("results"))
    v = orbit.accessibility_verdict(sc.family, np.zeros(16), 3)
    assert v.kind == "approximately_controllable"
    assert results["kind"] == [v.kind]
    assert results["truncation-ranks"] == [str(r) for r in v.truncation_ranks] == ["3", "8", "13"]


# a command's `out` is a file name inside the output directory
OUT_COMMANDS = {"compose": "point 0 0 0\n  entry 0 0.1\n  curve-samples 2",
                "slice": "point 0 0 0\n  rho 0.05\n  grid 2",
                "orbit-sample": "point 0 0 0\n  budget 5"}
PATH_NAMES = ["../escaped.txt", "nodir/x.txt", "ABS", ".", "..", "cloud.txt/"]


@pytest.mark.parametrize("name", PATH_NAMES)
@pytest.mark.parametrize("command", sorted(OUT_COMMANDS))
def test_an_out_that_names_a_path_fails_check(command, name, tmp_path, capsys):
    name = str(tmp_path / "abs.txt") if name == "ABS" else name
    assert _check(_one_command(command, OUT_COMMANDS[command] + f"\n  out {name}"), tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: command 1 '{command}': 'out' takes a file name") and "Traceback" not in err


@pytest.mark.parametrize("name", PATH_NAMES)
def test_an_out_that_names_a_path_gets_an_error_report_and_the_run_goes_on(name, tmp_path):
    name = str(tmp_path / "abs.txt") if name == "ABS" else name
    text = HEIS_HEADER + "".join(f"command {command} {{\n  {body}\n  out {name}\n}}\n"
                                 for command, body in sorted(OUT_COMMANDS.items()))
    (tmp_path / "run").mkdir()
    p = tmp_path / "run" / "s.okit"
    p.write_text(text + "command slice {\n  point 0 0 0\n  rho 0.05\n  grid 2\n  out ok.txt\n}\n")
    assert main(["run", str(p), "--out", str(tmp_path / "run" / "out")]) == 1
    assert sorted(q.name for q in tmp_path.rglob("*")) == sorted(
        ["run", "s.okit", "out", "ok.txt", "report-01-compose.txt", "report-02-orbit-sample.txt",
         "report-03-slice.txt", "report-04-slice.txt"])
    reports = [_report(path) for path in sorted((tmp_path / "run" / "out").glob("report-*.txt"))]
    for report in reports[:3]:
        assert _leaves(report.child("error"))["type"] == ["ParseError"]
    assert reports[3].child("status").args == ["ok"]
    assert _leaves(reports[3].child("results"))["cloud-file"] == ["ok.txt"]


# -- properties of the grammar ----------------------------------------------------

HEIS_FAMILY = parse_scenario(HEIS_SCENARIO).family
NUMBERS = st.floats(-1e3, 1e3, allow_nan=False).map(repr) | st.integers(-5, 5).map(str)


def _valid_args(opt, dim, members):
    """A strategy of argument lists the reader accepts for ``opt``."""
    kind = opt.kind
    index = st.integers(0, members - 1).map(str)
    pairs = st.lists(st.tuples(index, NUMBERS), min_size=1, max_size=3)
    return {
        "float": st.tuples(NUMBERS),
        "positive": st.tuples(st.sampled_from(["1e-09", "1e-06", "0.5"])),
        "int": st.tuples(st.integers(-3, 60).map(str)),
        "word": st.tuples(st.sampled_from(opt.words or ["control", "explore", "cloud.txt"])),
        "file": st.tuples(st.sampled_from(["cloud.txt", "curve.txt"])),
        "flag": st.tuples(st.sampled_from(["on", "off"])),
        "point": st.lists(NUMBERS, min_size=dim, max_size=dim),
        "indices": st.lists(index, min_size=1, max_size=3, unique=True),
        "entry": st.tuples(index, NUMBERS),
        "piece": st.tuples(NUMBERS, NUMBERS, pairs).map(
            lambda t: (t[0], t[1], *(a for pair in t[2] for a in pair))),
    }[kind].map(list)


# the sizes of a command's work, drawn small (and around their lower limits)
# where a scenario is run rather than only read
SMALL_SIZES = {key: st.integers(-1, 4).map(str).map(lambda v: [v])
               for key in ("budget", "max-word-len", "grid", "curve-samples", "k-max")}


@st.composite
def valid_command(draw, dim, members, small=False):
    name = draw(st.sampled_from(sorted(SCHEMA["command"])))
    lines = []
    for key, opt in SCHEMA["command"][name].items():
        repeats = 0 if opt.default is not REQUIRED and draw(st.booleans()) else 1
        if opt.kind in ("entry", "piece"):
            repeats = draw(st.integers(repeats, 3))
        args = SMALL_SIZES[key] if small and key in SMALL_SIZES else _valid_args(opt, dim, members)
        for _ in range(repeats):
            lines.append(" ".join([key, *draw(args)]))
    lines = draw(st.permutations(lines))
    return f"command {name} {{\n" + "".join(f"  {line}\n" for line in lines) + "}\n"


@st.composite
def valid_scenario(draw, small=False):
    if draw(st.booleans()):
        family, dim = HEIS_HEADER.split("lb {")[0], 3
    else:
        family, dim = POLY_SCENARIO.split("command")[0], 2
    text = family
    if draw(st.booleans()):
        samples = draw(st.integers(1, 20 if small else 300))
        text += (f"lb {{\n  order {draw(st.integers(0, 3))}\n  samples {samples}"
                 f"\n  declared {draw(st.sampled_from(['auto', 'off', '2.5', '1e3']))}\n}}\n")
    if draw(st.booleans()):
        text += (f"defaults {{\n  tol {draw(st.sampled_from(['1e-09', '1e-06']))}\n"
                 f"  seed {draw(st.integers(0, 99))}\n}}\n")
    return text + "".join(draw(st.lists(valid_command(dim, 2, small), max_size=4)))


@settings(max_examples=60, deadline=None)
@given(valid_scenario())
def test_round_trip_parse_emit_parse(text):
    sc = parse_scenario(text)
    again = parse_scenario(sc.emit())
    assert again.tree == sc.tree
    assert again.emit() == sc.emit()
    for cmd in again.commands():
        read_command(cmd, again.family)


@settings(max_examples=60, deadline=None)
@given(valid_scenario(small=True))
@example(_one_command("slice", "point 0 0 0\n  grid 0\n  out s.txt"))
@example(_one_command("compose", "point 0 0 0\n  entry 0 0.1\n  tail -1"))
@example(_one_command("invert", "point 0 0 0\n  entry 0 0.1\n  truncation -1"))
@example(_one_command("compose", "point 0 0 0\n  entry 0 100\n  unsafe on"))
def test_every_scenario_check_accepts_runs_to_its_end(text):
    sc = parse_scenario(text)
    for cmd in sc.commands():
        read_command(cmd, sc.family)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert run_scenario(sc, out) in (0, 1)
        assert len(list(out.glob("report-*.txt"))) == len(sc.commands())


JUNK = ["zz", "nan", "0.5", "0", "1", "-1", "2", "on", "off", "yes", "1e400", "control"]


@st.composite
def junk_command(draw):
    name = draw(st.sampled_from(sorted(SCHEMA["command"])))
    keys = st.sampled_from(sorted(SCHEMA["command"][name]) + ["budgt", "zz"])
    entries = draw(st.lists(st.tuples(keys, st.lists(st.sampled_from(JUNK), max_size=4),
                                      st.booleans()), max_size=6))
    children = [Node(key, args, [] if section else None) for key, args, section in entries]
    return Node("command", [name], children)


@settings(max_examples=200, deadline=None)
@given(junk_command())
def test_the_reader_returns_or_raises_a_parse_error(cmd):
    try:
        out = read_command(cmd, HEIS_FAMILY)
    except ParseError:
        return
    assert set(out) == set(SCHEMA["command"][cmd.args[0]])


@settings(max_examples=60, deadline=None)
@given(st.lists(junk_command(), min_size=1, max_size=3))
def test_check_exits_2_iff_the_reader_rejects_a_command(cmds):
    text = HEIS_HEADER + emit_tree(cmds) + "\n"
    rejected = False
    for cmd in parse_scenario(text).commands():
        try:
            read_command(cmd, HEIS_FAMILY)
        except ParseError:
            rejected = True
    with tempfile.TemporaryDirectory() as tmp:
        assert _check(text, Path(tmp)) == (2 if rejected else 0)
