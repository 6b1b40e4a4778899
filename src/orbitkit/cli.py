"""Batch command-line interface.

``orbitkit run <scenario> [--out DIR] [--seed N] [--unsafe] [--tol X]``
executes the scenario's commands in order, writing one report per command
plus any point-cloud files into the output directory.  ``orbitkit catalog``
lists the builtin systems; ``orbitkit check <scenario>`` parses and
validates only.  Exit codes: 0 success, 1 any command errored, 2 parse
error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import algebra, compose, flow, orbit
from .catalog import BUILTIN_SUMMARIES
from .errors import OrbitKitError, ParseError
from .fields import FieldFamily, LbRecord, calculus, estimate_lb_bound
from .flow import Control, guard
from .report import Report, leaf, section, vector_leaf, write_point_cloud
from .scenario import Node, Scenario, _floats, _integer, _one_float, _one_int, parse_scenario
from .space import L1Coefficients


def _get(cmd: Node, key: str):
    return cmd.child(key)


def _point(cmd: Node, dim: int) -> np.ndarray:
    n = cmd.child("point")
    if n is None:
        raise ParseError(f"command '{cmd.args[0]}' needs a 'point'")
    vals = _floats(n)
    if len(vals) != dim:
        raise ParseError(f"'point' needs {dim} coordinates")
    return np.array(vals)


def _coefficients(cmd: Node, member_count: int) -> L1Coefficients:
    pairs = []
    for n in cmd.all("entry"):
        vals = _floats(n)
        if len(vals) != 2:
            raise ParseError("'entry' takes an index and a value")
        i = _integer(vals[0], "entry")
        if not 0 <= i < member_count:
            raise ParseError(f"'entry' index {i} has no family member")
        pairs.append((i, vals[1]))
    return L1Coefficients.from_pairs(pairs, _opt_float(cmd, "tail", 0.0))


def _opt_float(cmd: Node, key: str, default: float | None) -> float | None:
    n = cmd.child(key)
    return _one_float(n) if n else default


def _opt_int(cmd: Node, key: str, default: int | None) -> int | None:
    n = cmd.child(key)
    return _one_int(n) if n else default


def _opt_word(cmd: Node, key: str, default: str | None) -> str | None:
    n = cmd.child(key)
    if n is None:
        return default
    if len(n.args) != 1:
        raise ParseError(f"'{key}' takes exactly one value")
    return n.args[0]


def _flag(cmd: Node, key: str, default: bool = False) -> bool:
    n = cmd.child(key)
    if n is None:
        return default
    return bool(n.args and n.args[0] == "on")


def _build_lb(scenario: Scenario, family: FieldFamily, defaults: dict) -> LbRecord:
    p = scenario.lb_params(family.space)
    region = p["region"] or family.common_domain
    samples = p["samples"] or defaults["samples"]
    if p["declared"] not in ("auto", "off"):
        return LbRecord(order_s=p["order"], bound_k=float(p["declared"]),
                        region=region, method="declared")
    return estimate_lb_bound(family, region, p["order"], samples,
                             rng_seed=defaults["seed"], safety=defaults["safety"],
                             force_sampled=p["declared"] == "off")


def _guard_section(lb: LbRecord, x: np.ndarray, c: float, T0: float) -> Node:
    cert = guard(lb, x, c, T0)
    return section("guard", [
        leaf("r", float(cert.r)),
        leaf("k", float(cert.k)),
        leaf("c", float(c)),
        leaf("T0", float(T0)),
        leaf("margin", float(cert.margin)),
        leaf("provenance", lb.method),
        leaf("order", lb.order_s),
    ])


def _configuration(family: FieldFamily, lb: LbRecord, defaults: dict, x: np.ndarray,
                   c: float, T0: float, tol: float) -> list[Node]:
    return [
        leaf("norm", family.space.norm_kind),
        leaf("dimension", family.space.dimension),
        leaf("members", len(family.members)),
        leaf("l1-truncation", family.space.truncation_of_l1),
        leaf("tol", float(tol)),
        leaf("seed", defaults["seed"]),
        _guard_section(lb, x, c, T0),
    ]


def _word_nodes(word) -> list[Node]:
    return [leaf("letter", int(i), float(d)) for i, d in word]


def run_command(cmd: Node, family: FieldFamily, lb: LbRecord, defaults: dict,
                out_dir: Path, index: int, unsafe: bool) -> Report:
    name = cmd.args[0]
    dim = family.space.dimension
    tol = _opt_float(cmd, "tol", defaults["tol"])
    unsafe = unsafe or _flag(cmd, "unsafe")

    if name == "check-lb":
        order = _opt_int(cmd, "order", lb.order_s)
        samples = _opt_int(cmd, "samples", defaults["samples"])
        rec = estimate_lb_bound(family, lb.region, order, samples,
                                rng_seed=defaults["seed"], safety=defaults["safety"],
                                force_sampled=_flag(cmd, "force-sampled"))
        cfg = _configuration(family, rec, defaults, rec.region.center, 0.0, 0.0, tol)
        results = [leaf("bound-k", rec.bound_k), leaf("order", rec.order_s),
                   leaf("method", rec.method), leaf("region-radius", rec.region.radius),
                   leaf("samples", samples), leaf("calculus", calculus(family.members))]
        return Report(cmd, cfg, results)

    if name == "flow":
        x0 = _point(cmd, dim)
        t0 = _opt_float(cmd, "t0", 0.0)
        T0 = _opt_float(cmd, "duration", 1.0)
        pieces = []
        for pn in cmd.all("piece"):
            vals = _floats(pn)
            if len(vals) < 4 or len(vals) % 2 != 0:
                raise ParseError("'piece' takes t_start t_end then index/value pairs")
            idx_vals = [(_integer(vals[i], "piece"), vals[i + 1]) for i in range(2, len(vals), 2)]
            if any(not 0 <= i < len(family.members) for i, _ in idx_vals):
                raise ParseError("'piece' references an index with no family member")
            pieces.append((vals[0], vals[1], L1Coefficients.from_pairs(idx_vals)))
        if not pieces:
            raise ParseError("'flow' needs at least one 'piece'")
        control = Control(pieces=tuple(pieces))
        with_var = _flag(cmd, "variational")
        res = flow.flow_control(family, control, x0, t0, T0, with_variational=with_var,
                                tol=tol, lb=lb, unsafe=unsafe)
        cfg = _configuration(family, lb, defaults, x0, control.sup_norm, abs(T0), tol)
        results = [vector_leaf("endpoint", res.endpoint),
                   leaf("endpoint-tolerance", tol * (1.0 + abs(T0))),
                   leaf("steps", res.steps_taken),
                   leaf("est-local-error", res.est_local_error),
                   leaf("unsafe", res.diagnostics.get("unsafe", False))]
        if with_var:
            for i, row in enumerate(res.endpoint_variational):
                results.append(vector_leaf(f"variational-row-{i}", row))
        return Report(cmd, cfg, results)

    if name in ("compose", "invert"):
        x0 = _point(cmd, dim)
        tau = _coefficients(cmd, len(family.members))
        trunc = _opt_int(cmd, "truncation", None)
        path = _opt_word(cmd, "path", "control")
        if name == "compose":
            res = compose.compose_flows(family, lb, tau, x0, tol=tol, truncation_n=trunc,
                                        path=path, unsafe=unsafe,
                                        l1_curve_samples=_opt_int(cmd, "curve-samples", 0))
        else:
            res = compose.compose_inverse(family, lb, tau, x0, tol=tol, truncation_n=trunc,
                                          path=path, unsafe=unsafe)
        cfg = _configuration(family, lb, defaults, x0, 1.0 if tau.entries else 0.0,
                             tau.norm1, tol)
        results = [vector_leaf("endpoint", res.endpoint),
                   leaf("endpoint-tolerance", tol * (1.0 + tau.norm1)),
                   leaf("truncation-n", res.truncation_n),
                   leaf("tail-error-bound", res.tail_error_bound),
                   leaf("tail-factor-note", *res.diagnostics["tail_factor_note"].split()),
                   leaf("unsafe", unsafe)]
        results.extend(_word_nodes(res.word))
        out_name = _opt_word(cmd, "out", None)
        if res.l1_curve is not None and out_name is not None:
            write_point_cloud(out_dir / out_name, res.l1_curve.points)
            results.append(leaf("curve-file", out_name))
            results.append(leaf("curve-samples", res.l1_curve.points.shape[0]))
        return Report(cmd, cfg, results)

    if name == "slice":
        x0 = _point(cmd, dim)
        rho = _opt_float(cmd, "rho", 0.1)
        grid = _opt_int(cmd, "grid", 5)
        axes_node = cmd.child("axes")
        axes = [_integer(a, "axes") for a in _floats(axes_node)] if axes_node else [0]
        if not axes:
            raise ParseError("'axes' needs at least one index")
        if any(not 0 <= a < len(family.members) for a in axes):
            raise ParseError("'axes' references an index with no family member")
        res = orbit.slice_grid(family, lb, x0, rho, grid, axes, tol=tol)
        cfg = _configuration(family, lb, defaults, x0, 1.0, rho * len(axes), tol)
        results = [leaf("rank-at-zero", res.jacobian_rank_at_zero),
                   leaf("axes", *axes), leaf("rho", rho),
                   leaf("points", res.points.shape[0]),
                   leaf("point-tolerance", tol * (1.0 + rho * len(axes)))]
        out_name = _opt_word(cmd, "out", None)
        if out_name is not None:
            write_point_cloud(out_dir / out_name, res.points)
            results.append(leaf("cloud-file", out_name))
        return Report(cmd, cfg, results)

    if name == "bracket-chain":
        x0 = _point(cmd, dim)
        k_max = _opt_int(cmd, "k-max", 3)
        chain = algebra.bracket_chain(family, x0, k_max)
        cfg = _configuration(family, lb, defaults, x0, 0.0, 0.0, tol)
        results = [leaf("ranks", *chain.rank_profile),
                   leaf("rank-tolerance", orbit.RANK_REL_TOL),
                   leaf("generations", len(chain.generations)),
                   leaf("final-rank", chain.final_rank),
                   leaf("calculus", calculus(family.members))]
        return Report(cmd, cfg, results)

    if name == "certify-hprime":
        grid = _opt_int(cmd, "grid", 5)
        ctol = _opt_float(cmd, "tolerance", 1e-8)
        region = lb.region
        rep = algebra.certify_h_prime(family, region, grid_size=grid, tol=ctol)
        cfg = _configuration(family, lb, defaults, region.center, 0.0, 0.0, tol)
        results = [leaf("certified", rep.certified),
                   leaf("bound-C", rep.bound_C),
                   leaf("max-residual", float(rep.residuals.max(initial=0.0))),
                   leaf("tolerance", rep.tolerance),
                   leaf("grid-points", rep.grid.shape[0]),
                   leaf("rank-deficient-points", len(rep.rank_deficient_points)),
                   leaf("calculus", calculus(family.members)),
                   leaf("note", *rep.note.split())]
        return Report(cmd, cfg, results)

    if name == "orbit-sample":
        x0 = _point(cmd, dim)
        budget = _opt_int(cmd, "budget", 1000)
        mwl = _opt_int(cmd, "max-word-len", 8)
        mode = _opt_word(cmd, "mode", "explore")
        er = _opt_float(cmd, "exploration-radius", None)
        samp = orbit.orbit_sample(family, lb, x0, budget, mwl, defaults["seed"],
                                  tol=tol, mode=mode, exploration_radius=er)
        cfg = _configuration(family, lb, defaults, x0, 1.0, samp.d_max, tol)
        pts = samp.points()
        truncated = sum(1 for _, _, t in samp.cloud if t)
        results = [leaf("points", pts.shape[0]),
                   leaf("d-max", samp.d_max),
                   leaf("mode", mode),
                   leaf("truncated-words", truncated),
                   leaf("replay-tolerance", 10.0 * tol)]
        if _flag(cmd, "spot-check"):
            gap = orbit.spot_check_sample(family, samp, 0.05, tol=tol)
            results.append(leaf("spot-check-max-gap", gap))
        out_name = _opt_word(cmd, "out", None)
        if out_name is not None:
            write_point_cloud(out_dir / out_name, pts)
            results.append(leaf("cloud-file", out_name))
        return Report(cmd, cfg, results)

    if name == "verdict":
        x0 = _point(cmd, dim)
        k_max = _opt_int(cmd, "k-max", 3)
        v = orbit.accessibility_verdict(family, lb, x0, k_max)
        cfg = _configuration(family, lb, defaults, x0, 0.0, 0.0, tol)
        results = [leaf("kind", v.kind),
                   leaf("ranks", *v.evidence["rank_profile"]),
                   leaf("dimension", v.evidence["dimension"]),
                   leaf("rank-tolerance", orbit.RANK_REL_TOL),
                   leaf("calculus", calculus(family.members))]
        if "saturation_k" in v.evidence:
            results.append(leaf("saturation-k", v.evidence["saturation_k"]))
        if "final_rank" in v.evidence:
            results.append(leaf("final-rank", v.evidence["final_rank"]))
        if "truncation_ranks" in v.evidence:
            results.append(leaf("truncation-ranks", *v.evidence["truncation_ranks"]))
        return Report(cmd, cfg, results)

    raise ParseError(f"unknown command '{name}'")


def run_scenario(scenario: Scenario, out_dir: Path, seed: int | None = None,
                 unsafe: bool = False, tol: float | None = None,
                 timestamp: str | None = None) -> int:
    """Execute all commands; write reports; return the process exit code."""
    defaults = scenario.defaults()
    if seed is not None:
        defaults["seed"] = seed
    if tol is not None:
        defaults["tol"] = tol
    family = scenario.build_family()
    # an lb that cannot be built (a region outside the family's domain, say)
    # fails every command, each with its own error report
    try:
        lb, lb_error = _build_lb(scenario, family, defaults), None
    except OrbitKitError as exc:
        lb, lb_error = None, exc
    out_dir.mkdir(parents=True, exist_ok=True)
    any_error = False
    for i, cmd in enumerate(scenario.commands(), start=1):
        error = lb_error
        if error is None:
            try:
                report = run_command(cmd, family, lb, defaults, out_dir, i, unsafe)
            except OrbitKitError as exc:
                error = exc
        if error is not None:
            any_error = True
            cfg = [leaf("norm", family.space.norm_kind),
                   leaf("dimension", family.space.dimension),
                   leaf("tol", float(defaults["tol"])),
                   leaf("seed", defaults["seed"])]
            report = Report(cmd, cfg, [], status="error",
                            error=(type(error).__name__, str(error)))
        path = out_dir / f"report-{i:02d}-{cmd.args[0]}.txt"
        path.write_text(report.render(timestamp=timestamp))
    return 1 if any_error else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="orbitkit", description=__doc__)
    sub = parser.add_subparsers(dest="action", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--unsafe", action="store_true",
                       help="override existence guards (recorded in reports)")
    p_run.add_argument("--tol", type=float, default=None)

    sub.add_parser("catalog", help="list builtin systems")

    p_check = sub.add_parser("check", help="parse and validate a scenario file")
    p_check.add_argument("scenario")

    args = parser.parse_args(argv)

    if args.action == "catalog":
        for name in sorted(BUILTIN_SUMMARIES):
            print(f"{name:22s} {BUILTIN_SUMMARIES[name]}")
        return 0

    text = Path(args.scenario).read_text()
    try:
        scenario = parse_scenario(text)
    except OrbitKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.action == "check":
        print(f"ok: {len(scenario.commands())} command(s)")
        return 0

    out_dir = Path(args.out) if args.out else Path(args.scenario).with_suffix(".out")
    code = run_scenario(scenario, out_dir, seed=args.seed, unsafe=args.unsafe, tol=args.tol)
    print(f"reports written to {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
