"""Seeded workload generators: one function per workload, seed -> inputs.

Every generator returns an endless iterator of *items*.  A CLI item is one
scenario (family, lb, defaults and a batch of commands) that the runner sends
through ``orbitkit.cli.run_scenario``; a library item is one family and a
batch of library calls.  Items are plain JSON-able dicts, so the same seed
gives byte-identical inputs (``serialize``), and orbitkit only ever sees the
scenario text or the call arguments.

Parameters the code's cost depends on are stratified: dimension and
tolerance cycle through seeded permutations of fixed grids, so every run
sees the same spread of them and seeds differ in order and in the continuous
draws (points, durations, coefficients).
"""

from __future__ import annotations

import json
from itertools import count

import numpy as np

from models import AffineL1, Chain, Grushin, Heisenberg, Wave, chart_norm
from oracle import FD_SLACK, SAFETY

TOLS = (1e-6, 1e-8, 1e-9, 1e-10, 1e-12)
GRID_SWEEP = (2, 3, 4, 5, 6, 7)   # certify-hprime refinement: grid^dim points each
LP_PER_BASIS = 12  # least-l1 solves per enlarged basis: about 5% of enlarge time, as profiled
WORKLOAD_IDS = {"switching": 1, "jets": 2, "enlarge": 3}


def _cycle(rng, values):
    """Endless stream of seeded permutations of ``values``."""
    values = list(values)
    while True:
        for i in rng.permutation(len(values)):
            yield values[int(i)]


def _f(x) -> str:
    return repr(float(x))


def _vec(v) -> list:
    return [float(a) for a in v]


def _point(rng, dim, scale, norm):
    """Random point with chart norm at most ``scale``."""
    v = rng.uniform(-1.0, 1.0, dim)
    return v * (scale * rng.uniform(0.2, 1.0) / max(chart_norm(v, norm), 1e-300))


def _signed(rng, n, mass):
    """n nonzero values with random signs whose absolute sum is ``mass``."""
    v = rng.uniform(0.2, 1.0, n) * rng.choice([-1.0, 1.0], n)
    return v * (mass / np.abs(v).sum())


# ---------------------------------------------------------------- scenario text

def family_text(fam: dict) -> str:
    kind = fam["kind"]
    if kind == "chain":
        d = fam["dim"]
        zeros = " ".join(["0"] * d)
        lines = ["space {", f"  dim {d}", "  norm euclidean", "}", "family {", "  domain {",
                 f"    center {zeros}", f"    radius {_f(fam['radius'])}", "  }",
                 "  poly X1 {", "    component 0 {", f"      term 1.0 {zeros}", "    }", "  }",
                 "  poly X2 {", "    component 1 {", f"      term 1.0 {zeros}", "    }"]
        for k, c in enumerate(fam["coeffs"], start=1):
            exps = " ".join([str(k)] + ["0"] * (d - 1))
            lines += [f"    component {k + 1} {{", f"      term {_f(c)} {exps}", "    }"]
        return "\n".join(lines + ["  }", "}"])
    params = {"heisenberg": ["radius"], "heisenberg-full": ["radius"], "grushin": ["radius"],
              "affine-l1": ["dim", "count", "decay", "linear-part"]}[kind]
    lines = []
    if kind == "affine-l1":
        lines += ["space {", f"  dim {fam['dim']}", "  norm l1", "  l1-truncation on", "}"]
    lines += ["family {", f"  builtin {kind} {{"]
    for p in params:
        v = fam[p]
        v = ("on" if v else "off") if isinstance(v, bool) else (str(v) if isinstance(v, int) else _f(v))
        lines.append(f"    {p} {v}")
    return "\n".join(lines + ["  }", "}"])


def scenario_header(item: dict) -> str:
    lb = item["lb"]
    lines = ["version 1", family_text(item["family"]), "lb {", f"  order {lb['order']}"]
    if "samples" in lb:
        lines.append(f"  samples {lb['samples']}")
    lines += [f"  declared {lb['declared']}", "}", "defaults {", f"  tol {_f(item['tol'])}",
              f"  seed {item['seed']}", "}"]
    return "\n".join(lines) + "\n"


def command_text(c: dict) -> str:
    out = [f"command {c['cmd']} {{"]
    for key, val in c.items():
        if key == "cmd":
            continue
        if key == "pieces":
            for a, b, coeffs in val:
                pairs = " ".join(f"{i} {_f(u)}" for i, u in coeffs)
                out.append(f"  piece {_f(a)} {_f(b)} {pairs}")
        elif key == "entries":
            out += [f"  entry {i} {_f(v)}" for i, v in val]
        elif isinstance(val, bool):
            out.append(f"  {key} {'on' if val else 'off'}")
        elif isinstance(val, list):
            out.append(f"  {key} " + " ".join(str(a) if isinstance(a, int) else _f(a) for a in val))
        elif isinstance(val, float):
            out.append(f"  {key} {_f(val)}")
        else:
            out.append(f"  {key} {val}")
    return "\n".join(out + ["}"])


def scenario_text(item: dict) -> str:
    return scenario_header(item) + "\n".join(command_text(c) for c in item["commands"]) + "\n"


def model_of(fam: dict):
    kind = fam["kind"]
    if kind in ("heisenberg", "heisenberg-full"):
        return Heisenberg(fam["radius"], full=kind == "heisenberg-full")
    if kind == "affine-l1":
        return AffineL1(fam["dim"], fam["count"], fam["decay"], fam["linear-part"])
    if kind == "grushin":
        return Grushin(fam["radius"])
    if kind == "chain":
        return Chain(fam["dim"], fam["coeffs"], fam["radius"])
    if kind == "wave":
        return Wave(fam["dim"], fam["amps"], fam["phases"])
    raise ValueError(kind)


# ---------------------------------------------------------------- switching

def _flow_cmd(rng, model, k, x, pieces, duration, tol, width):
    """Multi-piece variational flow whose sup-norm keeps T*c below 0.8 r/k."""
    c = 0.8 * model.guard_limit(x, k) / duration
    cuts = np.sort(rng.uniform(0.0, duration, pieces - 1))
    edges = [0.0] + [float(t) for t in cuts] + [duration]
    out = []
    for a, b in zip(edges, edges[1:]):
        if b - a < 1e-9:
            continue
        idx = sorted(int(i) for i in rng.choice(model.count, min(width, model.count), replace=False))
        vals = _signed(rng, len(idx), c * rng.uniform(0.5, 1.0))
        out.append([a, b, [[i, float(v)] for i, v in zip(idx, vals)]])
    return {"cmd": "flow", "point": _vec(x), "duration": float(duration), "pieces": out,
            "variational": True, "tol": tol}


def _compose_pair(rng, model, k, x, tol, path):
    """compose at x and invert from its exact endpoint (the round trip)."""
    mass = 0.6 * model.guard_limit(x, k) * rng.uniform(0.5, 1.0)
    entries = [[i, float(v)] for i, v in enumerate(_signed(rng, model.count, mass))]
    y = model.word(x, entries)
    if mass >= 0.9 * model.guard_limit(y, k):
        raise RuntimeError("generator produced an inadmissible inverse start")
    return [{"cmd": "compose", "point": _vec(x), "entries": entries, "path": path, "tol": tol},
            {"cmd": "invert", "point": _vec(y), "entries": entries, "path": path, "tol": tol}]


def _orbit_cmd(rng, x, mode, size, out, tol):
    """A spot-checked cloud; ``size`` scales the budget."""
    if mode == "explore":
        budget, mwl = int(size * rng.integers(180, 241)), int(rng.integers(5, 9))
    else:
        budget, mwl = int(size * rng.integers(30, 41)), int(rng.integers(5, 8))
    return {"cmd": "orbit-sample", "point": _vec(x), "mode": mode, "spot-check": True,
            "budget": budget, "max-word-len": mwl, "out": out, "tol": tol}


def switching(seed: int):
    rng = np.random.default_rng([seed, WORKLOAD_IDS["switching"]])
    tols = _cycle(rng, TOLS)
    dims = _cycle(rng, (16, 20, 24, 28, 32))
    modes = _cycle(rng, ("explore", "independent"))
    paths = _cycle(rng, ("control", "sequential"))
    heis = Heisenberg(8.0)
    kh = heis.declared[2]
    for n in count():
        # Heisenberg (R^3, euclidean): flows, a 2-letter round trip, a cloud, a slice
        cmds = []
        for _ in range(3):
            x = _point(rng, 3, 1.5, "euclidean")
            cmds.append(_flow_cmd(rng, heis, kh, x, int(rng.integers(24, 49)),
                                  float(rng.uniform(2.0, 8.0)), next(tols), 2))
        cmds += _compose_pair(rng, heis, kh, _point(rng, 3, 1.5, "euclidean"), next(tols), next(paths))
        cmds.append(_orbit_cmd(rng, _point(rng, 3, 1.0, "euclidean"), next(modes), 0.5,
                               f"cloud-{n}.txt", next(tols)))
        x = _point(rng, 3, 1.0, "euclidean")
        cmds.append({"cmd": "slice", "point": _vec(x), "axes": [0, 1],
                     "rho": float(0.8 * heis.guard_limit(x, kh) * rng.uniform(0.3, 1.0)),
                     "grid": int(rng.integers(3, 7)), "out": f"slice-{n}.txt", "tol": next(tols)})
        yield {"kind": "cli", "family": {"kind": "heisenberg", "radius": 8.0},
               "lb": {"order": 2, "declared": "auto"}, "tol": 1e-9,
               "seed": int(rng.integers(0, 2 ** 31)), "commands": cmds}

        # affine-l1 with linear part (truncated l1 chart, dim 16-32): 12-30 letter words
        dim = next(dims)
        fam = {"kind": "affine-l1", "dim": dim, "count": int(rng.integers(12, min(dim - 2, 30) + 1)),
               "decay": float(rng.uniform(0.6, 0.9)), "linear-part": True}
        model = model_of(fam)
        k = model.declared[2]
        cmds = []
        for _ in range(2):
            cmds += _compose_pair(rng, model, k, _point(rng, dim, 0.8, "l1"), next(tols), next(paths))
        for _ in range(3):
            cmds.append(_flow_cmd(rng, model, k, _point(rng, dim, 0.8, "l1"),
                                  int(rng.integers(8, 25)), float(rng.uniform(1.0, 4.0)), next(tols), 3))
        for j, mode in enumerate(("explore", "independent")):
            x = rng.uniform(-0.03, 0.03, dim)  # nonzero tail coordinates carry the invariant
            cmds.append(_orbit_cmd(rng, x, mode, 0.4, f"cloud-{n}-{j}.txt", next(tols)))
        yield {"kind": "cli", "family": fam, "lb": {"order": 2, "declared": "auto"}, "tol": 1e-9,
               "seed": int(rng.integers(0, 2 ** 31)), "commands": cmds}


# ---------------------------------------------------------------- jets

def jets(seed: int):
    """Sampled jets and deep brackets.  Sample counts, bracket depths,
    certification grids and affine shapes cycle through graded sizes, so
    seeds differ in order and points but not in the mix of claim costs; an
    order-3 sample costs several order-2 samples, so order-3 counts are
    graded over a smaller range."""
    rng = np.random.default_rng([seed, WORKLOAD_IDS["jets"]])
    chain_dims = _cycle(rng, (4, 5, 6, 7))
    affine_dims = _cycle(rng, (8, 12, 16, 20, 24))
    lb2_samples = _cycle(rng, range(4, 21, 2))
    lb3_samples = _cycle(rng, (2, 4, 6, 8))
    chain_depths = {d: _cycle(rng, range(2, d - 1)) for d in (4, 5, 6, 7)}
    verdict_depths = {d: _cycle(rng, (d - 2, d - 1)) for d in (4, 5, 6, 7)}
    grushin_orders = _cycle(rng, (1, 2, 3))
    affine_counts = _cycle(rng, (3, 4, 5))
    affine_linear = _cycle(rng, (False, True))
    affine_depths = _cycle(rng, (2, 3))
    for _ in count():
        # polynomial chain, dim 4-7: sampled jets, deep brackets, verdicts
        d = next(chain_dims)
        radius = float(rng.uniform(1.0, 1.5))
        fam = {"kind": "chain", "dim": d, "radius": radius,
               "coeffs": _vec(rng.uniform(0.5, 1.5, d - 2) * rng.choice([-1.0, 1.0], d - 2))}
        pts = [_vec(_point(rng, d, 0.5 * radius, "euclidean")) for _ in range(3)]
        cmds = [{"cmd": "check-lb", "order": 2, "samples": next(lb2_samples)},
                {"cmd": "check-lb", "order": 3, "samples": next(lb3_samples)},
                {"cmd": "bracket-chain", "point": pts[0], "k-max": d - 1},
                {"cmd": "bracket-chain", "point": pts[1], "k-max": next(chain_depths[d])},
                {"cmd": "verdict", "point": pts[2], "k-max": next(verdict_depths[d])},
                {"cmd": "certify-hprime", "grid": 2}]
        yield {"kind": "cli", "family": fam, "lb": {"order": 2, "samples": 3, "declared": "off"},
               "tol": 1e-9, "seed": int(rng.integers(0, 2 ** 31)), "commands": cmds}

        # grushin (R^2): points on and off the degenerate line x = 0
        radius = float(rng.uniform(2.0, 4.0))
        on_line = [0.0, float(rng.uniform(-0.5, 0.5) * radius)]
        off_line = _vec(_point(rng, 2, 0.5 * radius, "euclidean"))
        cmds = [{"cmd": "check-lb", "order": 2, "samples": 2 * next(lb2_samples), "force-sampled": True},
                {"cmd": "check-lb", "order": 3, "samples": next(lb3_samples), "force-sampled": True},
                {"cmd": "check-lb", "order": next(grushin_orders)},
                *[{"cmd": "certify-hprime", "grid": g} for g in GRID_SWEEP],
                {"cmd": "bracket-chain", "point": on_line, "k-max": 2},
                {"cmd": "verdict", "point": off_line, "k-max": 2}]
        yield {"kind": "cli", "family": {"kind": "grushin", "radius": radius},
               "lb": {"order": 2, "samples": 6, "declared": "off"},
               "tol": 1e-9, "seed": int(rng.integers(0, 2 ** 31)), "commands": cmds}

        # heisenberg-full (R^3): brackets close over the family
        radius = float(rng.uniform(4.0, 8.0))
        cmds = [{"cmd": "check-lb", "order": 3, "samples": next(lb3_samples), "force-sampled": True},
                {"cmd": "check-lb", "order": 2, "samples": next(lb2_samples), "force-sampled": True},
                *[{"cmd": "certify-hprime", "grid": g} for g in GRID_SWEEP],
                {"cmd": "bracket-chain", "point": _vec(_point(rng, 3, 0.5 * radius, "euclidean")),
                 "k-max": 2},
                {"cmd": "verdict", "point": _vec(_point(rng, 3, 0.5 * radius, "euclidean")), "k-max": 2}]
        yield {"kind": "cli", "family": {"kind": "heisenberg-full", "radius": radius},
               "lb": {"order": 2, "samples": 6, "declared": "off"},
               "tol": 1e-9, "seed": int(rng.integers(0, 2 ** 31)), "commands": cmds}

        # affine-l1 (l1 chart, dim 8-24): the truncation-level verdict path
        dim = next(affine_dims)
        fam = {"kind": "affine-l1", "dim": dim, "count": next(affine_counts),
               "decay": float(rng.uniform(0.5, 0.9)), "linear-part": next(affine_linear)}
        x = _vec(_point(rng, dim, 1.0, "l1"))
        cmds = [{"cmd": "verdict", "point": x, "k-max": next(affine_depths)},
                {"cmd": "bracket-chain", "point": x, "k-max": 2},
                {"cmd": "check-lb", "order": 2}]
        yield {"kind": "cli", "family": fam, "lb": {"order": 2, "samples": 2, "declared": "off"},
               "tol": 1e-9, "seed": int(rng.integers(0, 2 ** 31)), "commands": cmds}


# ---------------------------------------------------------------- enlarge

def _enlarge_calls(rng, model, k, letters_count, tol):
    """Two enlarged fields, then the library calls that use them."""
    d = model.dim

    def point():
        return rng.uniform(-0.3, 0.3, d)

    calls = []
    for base in rng.permutation(2):
        letters = [[int(rng.integers(0, 2)), float(rng.uniform(-0.4, 0.4))] for _ in range(letters_count)]
        calls.append({"op": "enlarge", "letters": letters, "base": int(base),
                      "nu": float(rng.uniform(0.5, 2.0)), "tol": tol})
    for j in range(2):
        calls.append({"op": "distribution", "point": _vec(point())})
        calls += [{"op": "lp", "basis": j, "target": _vec(rng.standard_normal(d))} for _ in range(LP_PER_BASIS)]
    calls.append({"op": "invariance", "point": _vec(point()), "index": int(rng.integers(0, 2)),
                  "t": float(rng.uniform(-0.3, 0.3)), "enlarged": bool(rng.integers(0, 2)), "tol": tol})
    x = point()
    tau = _signed(rng, 2, 0.5 * model.guard_limit(x, k) * rng.uniform(0.3, 1.0))
    calls.append({"op": "d_psi", "point": _vec(x), "tau": [[0, float(tau[0])], [1, float(tau[1])]],
                  "sigma": [[int(rng.integers(0, 2)), float(rng.uniform(-1.0, 1.0))]], "tol": tol})
    calls.append({"op": "bracket_via_flows", "point": _vec(point()),
                  "pair": [int(i) for i in rng.permutation(2)]})
    calls += [{"op": "conjugate_flow", "field": j, "point": _vec(point()),
               "t": float(rng.uniform(-0.3, 0.3)), "tol": tol} for j in (0, 1, 0, 1)]
    return calls


def enlarge(seed: int):
    rng = np.random.default_rng([seed, WORKLOAD_IDS["enlarge"]])
    wave_dims = _cycle(rng, (2, 3, 4))
    heis_letters = _cycle(rng, (1, 2, 3))
    wave_letters = _cycle(rng, (1, 2))
    tols = _cycle(rng, (1e-8, 1e-9, 1e-10))
    for _ in count():
        fam = {"kind": "heisenberg", "radius": 8.0}
        model = model_of(fam)
        yield {"kind": "lib", "family": fam, "lb": {"order": 2, "declared": "auto"},
               "calls": _enlarge_calls(rng, model, model.declared[2], next(heis_letters), next(tols))}
        d = next(wave_dims)
        fam = {"kind": "wave", "dim": d, "amps": _vec(rng.uniform(0.5, 1.0, d - 1)),
               "phases": _vec(rng.uniform(0.0, 2 * np.pi, d - 1))}
        model = model_of(fam)
        # the sampled lb stays below safety * slack * the analytic jet bound
        k = SAFETY * FD_SLACK * model.jet_upper(2)
        yield {"kind": "lib", "family": fam, "lb": {"order": 2, "samples": 8, "declared": "off"},
               "calls": _enlarge_calls(rng, model, k, next(wave_letters), next(tols))}


GENERATORS = {"switching": switching, "jets": jets, "enlarge": enlarge}
# items until every family and every stratified dimension has appeared once
SETUP_ITEMS = {"switching": 10, "jets": 16, "enlarge": 6}


def serialize(workload: str, seed: int, items: int) -> bytes:
    """The first ``items`` inputs of a workload, as bytes (determinism check)."""
    gen = GENERATORS[workload](seed)
    out = []
    for _ in range(items):
        item = next(gen)
        out.append(scenario_text(item) if item["kind"] == "cli" else json.dumps(item, sort_keys=True))
    return "\n".join(out).encode()
