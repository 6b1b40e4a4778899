"""Batch command-line interface.

``orbitkit run <scenario> [--out DIR] [--seed N] [--unsafe] [--tol X]``
executes the scenario's commands in order, writing one report per command
plus any point-cloud files into the output directory.  Each command's
options are read through ``scenario.read_command`` when it runs, so a bad
command gets its own error report and the rest still run.  ``orbitkit
catalog`` lists the builtin systems; ``orbitkit check <scenario>`` parses
the scenario and reads every command's options without running any.  Exit
codes: 0 success, 1 any command errored, 2 parse error (for ``check``, also
a command the option table rejects).
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
from .scenario import Node, Scenario, parse_scenario, read_command
from .space import L1Coefficients


def _build_lb(scenario: Scenario, family: FieldFamily, defaults: dict) -> LbRecord:
    p = scenario.lb_params(family.space)
    region = p["region"] or family.common_domain
    samples = defaults["samples"] if p["samples"] is None else p["samples"]
    if p["declared"] not in ("auto", "off"):
        return LbRecord(order_s=p["order"], bound_k=p["declared"],
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


def run_command(cmd: Node, family: FieldFamily, lb: LbRecord, defaults: dict,
                out_dir: Path, index: int, unsafe: bool) -> Report:
    name = cmd.args[0]
    o = read_command(cmd, family)
    tol = defaults["tol"] if o["tol"] is None else o["tol"]
    unsafe = unsafe or o["unsafe"]
    x0 = o.get("point")

    if name == "check-lb":
        order = lb.order_s if o["order"] is None else o["order"]
        samples = defaults["samples"] if o["samples"] is None else o["samples"]
        rec = estimate_lb_bound(family, lb.region, order, samples,
                                rng_seed=defaults["seed"], safety=defaults["safety"],
                                force_sampled=o["force-sampled"])
        cfg = _configuration(family, rec, defaults, rec.region.center, 0.0, 0.0, tol)
        results = [leaf("bound-k", rec.bound_k), leaf("order", rec.order_s),
                   leaf("method", rec.method), leaf("region-radius", rec.region.radius),
                   leaf("samples", samples), leaf("calculus", calculus(family.members))]
        return Report(cmd, cfg, results)

    if name == "flow":
        T0 = o["duration"]
        control = Control(pieces=tuple((a, b, L1Coefficients.from_pairs(pairs))
                                       for a, b, pairs in o["piece"]))
        res = flow.flow_control(family, control, x0, o["t0"], T0,
                                with_variational=o["variational"], tol=tol, lb=lb, unsafe=unsafe)
        cfg = _configuration(family, lb, defaults, x0, control.sup_norm, abs(T0), tol)
        results = [vector_leaf("endpoint", res.endpoint),
                   leaf("endpoint-tolerance", tol * (1.0 + abs(T0))),
                   leaf("steps", res.steps_taken),
                   leaf("est-local-error", res.est_local_error),
                   leaf("unsafe", res.diagnostics.get("unsafe", False))]
        if o["variational"]:
            for i, row in enumerate(res.endpoint_variational):
                results.append(vector_leaf(f"variational-row-{i}", row))
        return Report(cmd, cfg, results)

    if name in ("compose", "invert"):
        tau = L1Coefficients.from_pairs(o["entry"], o["tail"])
        trunc = o["truncation"]
        if name == "compose":
            res = compose.compose_flows(family, lb, tau, x0, tol=tol, truncation_n=trunc,
                                        path=o["path"], unsafe=unsafe,
                                        l1_curve_samples=o["curve-samples"])
        else:
            res = compose.compose_inverse(family, lb, tau, x0, tol=tol, truncation_n=trunc,
                                          path=o["path"], unsafe=unsafe)
        cfg = _configuration(family, lb, defaults, x0, 1.0 if tau.entries else 0.0,
                             tau.norm1, tol)
        results = [vector_leaf("endpoint", res.endpoint),
                   leaf("endpoint-tolerance", tol * (1.0 + tau.norm1)),
                   leaf("truncation-n", res.truncation_n),
                   leaf("tail-error-bound", res.tail_error_bound),
                   leaf("tail-factor-note", *res.diagnostics["tail_factor_note"].split()),
                   leaf("unsafe", unsafe)]
        results.extend(leaf("letter", int(i), float(d)) for i, d in res.word)
        if res.l1_curve is not None and o.get("out") is not None:
            write_point_cloud(out_dir / o["out"], res.l1_curve.points)
            results.append(leaf("curve-file", o["out"]))
            results.append(leaf("curve-samples", res.l1_curve.points.shape[0]))
        return Report(cmd, cfg, results)

    if name == "slice":
        rho, axes = o["rho"], o["axes"]
        res = orbit.slice_grid(family, lb, x0, rho, o["grid"], axes, tol=tol)
        cfg = _configuration(family, lb, defaults, x0, 1.0, rho * len(axes), tol)
        results = [leaf("rank-at-zero", res.jacobian_rank_at_zero),
                   leaf("axes", *axes), leaf("rho", rho),
                   leaf("points", res.points.shape[0]),
                   leaf("point-tolerance", tol * (1.0 + rho * len(axes)))]
        if o["out"] is not None:
            write_point_cloud(out_dir / o["out"], res.points)
            results.append(leaf("cloud-file", o["out"]))
        return Report(cmd, cfg, results)

    if name == "bracket-chain":
        chain = algebra.bracket_chain(family, x0, o["k-max"])
        cfg = _configuration(family, lb, defaults, x0, 0.0, 0.0, tol)
        results = [leaf("ranks", *chain.rank_profile),
                   leaf("rank-tolerance", orbit.RANK_REL_TOL),
                   leaf("generations", len(chain.generations)),
                   leaf("final-rank", chain.final_rank),
                   leaf("calculus", calculus(family.members))]
        return Report(cmd, cfg, results)

    if name == "certify-hprime":
        region = lb.region
        rep = algebra.certify_h_prime(family, region, grid_size=o["grid"], tol=o["tolerance"])
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
        mode = o["mode"]
        samp = orbit.orbit_sample(family, lb, x0, o["budget"], o["max-word-len"],
                                  defaults["seed"], tol=tol, mode=mode,
                                  exploration_radius=o["exploration-radius"])
        cfg = _configuration(family, lb, defaults, x0, 1.0, samp.d_max, tol)
        pts = samp.points()
        truncated = sum(1 for _, _, t in samp.cloud if t)
        results = [leaf("points", pts.shape[0]),
                   leaf("d-max", samp.d_max),
                   leaf("mode", mode),
                   leaf("truncated-words", truncated),
                   leaf("replay-tolerance", 10.0 * tol)]
        if o["spot-check"]:
            gap = orbit.spot_check_sample(family, samp, 0.05, tol=tol)
            results.append(leaf("spot-check-max-gap", gap))
        if o["out"] is not None:
            write_point_cloud(out_dir / o["out"], pts)
            results.append(leaf("cloud-file", o["out"]))
        return Report(cmd, cfg, results)

    # verdict: read_command accepts no other name
    v = orbit.accessibility_verdict(family, lb, x0, o["k-max"])
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


def run_scenario(scenario: Scenario, out_dir: Path, seed: int | None = None,
                 unsafe: bool = False, tol: float | None = None,
                 timestamp: str | None = None) -> int:
    """Execute all commands; write reports; return the process exit code."""
    defaults = scenario.defaults()
    if seed is not None:
        defaults["seed"] = seed
    if tol is not None:
        defaults["tol"] = tol
    family = scenario.family
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
        bad = 0
        for i, cmd in enumerate(scenario.commands(), start=1):
            try:
                read_command(cmd, scenario.family)
            except ParseError as exc:
                print(f"error: command {i} '{cmd.args[0]}': {exc}", file=sys.stderr)
                bad += 1
        if bad:
            return 2
        print(f"ok: {len(scenario.commands())} command(s)")
        return 0

    out_dir = Path(args.out) if args.out else Path(args.scenario).with_suffix(".out")
    code = run_scenario(scenario, out_dir, seed=args.seed, unsafe=args.unsafe, tol=args.tol)
    print(f"reports written to {out_dir}")
    return code


if __name__ == "__main__":
    sys.exit(main())
