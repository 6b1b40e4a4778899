"""Print one SHA-256 per class of seeded orbitkit results, and their total.

A fixed, seeded set of valid-input calls runs on the orbitkit of this
checkout (its ``src``), and each result is hashed exactly: an array by its
dtype, shape and bytes, a float by its bits.  The classes are

- ``compose``: ``compose_flows`` and ``compose_inverse`` by both paths, on
  heisenberg and on affine-l1 with its linear part, with the
  ``extract_l1_curve`` of each composition;
- ``run_words``: ragged words from a stack of start points with tangent
  columns, on heisenberg, affine-l1 with its linear part, grushin (all
  three flowed exactly) and a quadratic operator family (on the stepper);
- ``slice``: slice grids of the first three;
- ``clouds``: explore and independent ``orbit_sample`` clouds, each with
  its ``spot_check_sample``;
- ``enlarged``: values and screen jets of enlarged heisenberg fields,
  tabled and on table-stripped members (the nested path);
- ``scenarios``: the report and cloud files of a few scenarios run through
  ``cli.run_scenario`` with a fixed timestamp.

Two checkouts that print the same digest for a class computed the same
results there bit for bit, so a change meant to keep behaviour can show it
by running this at its parent and at the change.  It prints and asserts
nothing else.  Standard library and orbitkit only; a few seconds.  Run from
anywhere:

    python tools/results_digest.py
"""

import hashlib
import random
import struct
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from orbitkit.algebra import enlarge_field  # noqa: E402
from orbitkit.catalog import affine_l1, grushin, heisenberg, operator_family  # noqa: E402
from orbitkit.cli import run_scenario  # noqa: E402
from orbitkit.compose import compose_flows, compose_inverse, extract_l1_curve  # noqa: E402
from orbitkit.fields import estimate_lb_bound  # noqa: E402
from orbitkit.flow import FlowWord, guard, run_words  # noqa: E402
from orbitkit.orbit import orbit_sample, slice_grid, spot_check_sample  # noqa: E402
from orbitkit.scenario import parse_scenario  # noqa: E402
from orbitkit.space import L1Coefficients  # noqa: E402

TOL = 1e-9
TIMESTAMP = "2000-01-01T00:00:00Z"


def feed(h, value) -> None:
    """Hash ``value`` exactly into ``h``.  Numbers hash by value, whatever
    their Python or numpy type; arrays by dtype, shape and bytes."""
    if hasattr(value, "tobytes") and getattr(value, "ndim", 1) == 0:
        value = value.item()  # a numpy scalar
    if isinstance(value, float):
        h.update(b"f" + struct.pack("<d", value))
    elif value is None or isinstance(value, (bool, int, str)):
        h.update(f"{type(value).__name__}:{value!r};".encode())
    elif isinstance(value, bytes):
        h.update(b"b%d:" % len(value) + value)
    elif hasattr(value, "tobytes"):
        h.update(f"a{value.dtype.str}{value.shape}:".encode() + value.tobytes())
    elif isinstance(value, (tuple, list)):
        h.update(b"(%d" % len(value))
        for item in value:
            feed(h, item)
    elif isinstance(value, BaseException):
        h.update(f"!{type(value).__name__}:{value}".encode())
    else:
        raise TypeError(f"cannot hash {type(value).__name__}")


def families():
    """The families with their jet bounds, by name."""
    quadratic = [(1.0, (1, 0, 0), 0, 1), (-0.5, (0, 2, 0), 2, 0), (0.3, (1, 1, 0), 2, 2)]
    out = {}
    for name, family in (("heisenberg", heisenberg(8.0)),
                         ("affine-l1", affine_l1(6, 5, 0.7, linear_part=True)),
                         ("grushin", grushin(4.0)),
                         ("operator-family", operator_family(3, 3, quadratic))):
        out[name] = family, estimate_lb_bound(family, family.common_domain, 2, 50)
    return out


def point(rng, d, spread=0.2):
    return [rng.uniform(-spread, spread) for _ in range(d)]


def compose(fams, rng):
    results = []
    for name in ("heisenberg", "affine-l1"):
        family, lb = fams[name]
        d = family.space.dimension
        for _ in range(3):
            x = point(rng, d)
            mass = 0.5 * guard(lb, x, 1.0, 0.0).margin
            support = sorted(rng.sample(range(len(family)), min(3, len(family))))
            weights = [rng.uniform(-1.0, 1.0) for _ in support]
            total = sum(abs(w) for w in weights)
            tau = L1Coefficients(tuple((i, mass * w / total) for i, w in zip(support, weights)))
            for path in ("control", "sequential"):
                res = compose_flows(family, lb, tau, x, tol=TOL, path=path)
                back = compose_inverse(family, lb, tau, res.endpoint, tol=TOL, path=path)
                curve = extract_l1_curve(res, 3)
                results += [res.endpoint, res.truncation_n, res.tail_error_bound, res.word,
                            back.endpoint, back.word, curve.times, curve.points]
    return results


def words_run(fams, rng):
    results = []
    for name in ("heisenberg", "affine-l1", "grushin", "operator-family"):
        family, lb = fams[name]
        d, m = family.space.dimension, len(family)
        starts = [point(rng, d) for _ in range(6)]
        tangents = [[[rng.gauss(0.0, 1.0) for _ in range(2)] for _ in range(d)] for _ in starts]
        words = [FlowWord(tuple((rng.randrange(m), rng.uniform(-0.5, 0.5))
                                for _ in range(rng.randint(1, 4)))) for _ in starts]
        paths, stops, end_tangents = run_words(family, words, starts, TOL, lb.region, tangents)
        results += [paths, stops, end_tangents]
        # every word from one start point, without tangents
        paths, stops, _ = run_words(family, words, starts[0], TOL, lb.region)
        results += [paths, stops]
    return results


def slices(fams, rng):
    results = []
    for name, axes, grid in (("heisenberg", (0, 1), 4), ("affine-l1", (0, 2, 4), 3),
                             ("grushin", (1, 0), 4)):
        family, lb = fams[name]
        x = point(rng, family.space.dimension, 0.1)
        rho = 0.5 * guard(lb, x, 1.0, 0.0).margin / len(axes)
        grid = slice_grid(family, lb, x, rho, grid, axes, tol=TOL)
        results += [grid.params, grid.points, grid.axes, grid.jacobian_rank_at_zero,
                    [getattr(grid.certificate, key) for key in ("r", "k", "c", "T0", "margin")]]
    return results


def clouds(fams, rng):
    results = []
    for name in ("heisenberg", "grushin"):
        family, lb = fams[name]
        for mode in ("explore", "independent"):
            sample = orbit_sample(family, lb, point(rng, family.space.dimension, 0.1),
                                  budget=30, max_word_len=4, rng_seed=rng.randrange(1000),
                                  tol=1e-7, mode=mode)
            results += [sample.d_max, [(p, w.letters, cut) for p, w, cut in sample.cloud],
                        spot_check_sample(family, sample, tol=1e-7)]
    return results


def enlarged(fams, rng):
    results = []
    family, lb = fams["heisenberg"]
    stripped = replace(family, members=tuple(replace(m, table=None) for m in family.members))
    points = [point(rng, 3, 0.5) for _ in range(5)]
    for _ in range(3):
        word = FlowWord(tuple((rng.randrange(2), rng.uniform(-0.5, 0.5)) for _ in range(3)))
        base, nu = rng.randrange(2), rng.uniform(0.5, 2.0)
        for fam in (family, stripped):
            field = enlarge_field(fam, word, base, nu, lb, tol=TOL)
            results += [field.table is None, field.eval_many(points), field.in_enlargement,
                        field.screen_jet]
    return results


SCENARIOS = (
    """family {
  builtin heisenberg {
    radius 8
  }
}
defaults {
  tol 1e-09
  seed 7
}
command flow {
  point 0.1 -0.2 0.05
  duration 0.3
  piece 0 0.1 0 1
  piece 0.1 0.3 1 -0.7 0 0.2
  variational on
}
command compose {
  point 0 0 0
  entry 0 0.2
  entry 1 -0.1
  curve-samples 2
}
command invert {
  point 0.1 0.1 0
  entry 1 0.15
  path sequential
}
command slice {
  point 0 0 0
  rho 0.1
  grid 3
  axes 0 1
}
command certify-hprime {
  grid 3
}
""",
    """family {
  builtin grushin {
    radius 9
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
  point 0 0
  k-max 3
}
command bracket-chain {
  point 0 1
  k-max 2
}
command orbit-sample {
  point 0 0
  budget 40
  max-word-len 4
  exploration-radius 1.0
  out grushin_cloud.txt
  spot-check on
}
""",
    """family {
  builtin affine-l1 {
    dim 6
    count 4
    linear-part on
  }
}
defaults {
  seed 3
  samples 20
}
command check-lb {
  order 1
  force-sampled on
}
command compose {
  point 0 0 0 0 0 0
  entry 0 0.1
  entry 2 -0.05
  entry 3 0.02
}
command verdict {
  point 0.1 0 0 0 0 0
}
""",
)


def scenarios(fams, rng):
    results = []
    for text in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp:
            code = run_scenario(parse_scenario(text), Path(tmp), timestamp=TIMESTAMP)
            results.append(code)
            results += [(p.name, p.read_bytes()) for p in sorted(Path(tmp).iterdir())]
    return results


CLASSES = {"compose": compose, "run_words": words_run, "slice": slices, "clouds": clouds,
           "enlarged": enlarged, "scenarios": scenarios}


def main() -> None:
    fams = families()
    total = hashlib.sha256()
    for name, compute in CLASSES.items():
        h = hashlib.sha256()
        feed(h, compute(fams, random.Random(f"results-digest {name}")))
        total.update(h.digest())
        print(f"{name:10s} {h.hexdigest()}")
    print(f"{'total':10s} {total.hexdigest()}")


if __name__ == "__main__":
    main()
