"""Batch command-line interface.

``orbitkit run <scenario> [--out DIR] [--seed N] [--unsafe] [--tol X]``
executes the scenario's commands in order, writing one report per command
plus any point-cloud files into the output directory.  Each command's
options are read through ``scenario.read_command`` when it runs, so a bad
command gets its own error report and the rest still run.  ``orbitkit
catalog`` lists the builtin systems; ``orbitkit check <scenario>`` parses
the scenario and reads every command's options without running any.  Exit
codes: 0 success, 1 any command errored, 2 parse error, a scenario file
that cannot be read or an output path that cannot be written (for
``check``, also a command the option table rejects).  Each command's report
comes from its runner in ``COMMANDS``.

One defaults rule: an option that a command or the ``lb`` section leaves out
takes the value of the same name in the ``defaults`` section (``tol``,
``samples``, ``seed``, ``safety``), after ``--seed`` and ``--tol`` have
replaced theirs.  A command's ``out`` is a file name inside the output
directory.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import algebra, compose, flow, orbit
from .catalog import BUILTIN_SUMMARIES
from .errors import OrbitKitError, ParseError
from .fields import FieldFamily, LbRecord, calculus, estimate_lb_bound
from .flow import Control
from .report import Report, leaf, section, vector_leaf, write_point_cloud
from .scenario import Node, Scenario, parse_scenario, positive_float, read_command
from .space import L1Coefficients


def _with_defaults(options: dict, defaults: dict) -> dict:
    """``options`` with each one left out (``None``) or absent taking the
    value of the same name in ``defaults``."""
    return {**options, **{k: v for k, v in defaults.items() if options.get(k) is None}}


def _build_lb(p: dict, family: FieldFamily) -> LbRecord:
    """The lb of the ``lb`` section ``p``, read with the defaults rule."""
    region = p["region"] or family.common_domain
    if p["declared"] not in ("auto", "off"):
        return LbRecord(order_s=p["order"], bound_k=p["declared"],
                        region=region, method="declared")
    return estimate_lb_bound(family, region, p["order"], p["samples"], rng_seed=p["seed"],
                             safety=p["safety"], force_sampled=p["declared"] == "off")


def _configuration(family: FieldFamily, lb: LbRecord | None, o: dict) -> list[Node]:
    """The configuration section, with the ``tol`` and ``seed`` of ``o``."""
    cfg = [
        leaf("norm", family.space.norm_kind),
        leaf("dimension", family.space.dimension),
        leaf("members", len(family.members)),
        leaf("l1-truncation", family.space.truncation_of_l1),
        leaf("tol", float(o["tol"])),
        leaf("seed", o["seed"]),
    ]
    if lb is not None:
        cfg.append(section("lb", [leaf("k", float(lb.bound_k)), leaf("order", lb.order_s),
                                  leaf("provenance", lb.method)]))
    return cfg


def _calculus(family: FieldFamily) -> Node:
    return leaf("calculus", calculus(family.members))


def _cloud(path: Path | None, points: np.ndarray, key: str = "cloud-file") -> list[Node]:
    """Write ``points`` to the cloud file ``path`` and name it in a leaf;
    nothing without a path."""
    if path is None:
        return []
    write_point_cloud(path, points)
    return [leaf(key, path.name)]


# Each runner takes a command's options, read with the defaults rule (its
# ``unsafe`` is on when the run's is, its ``out`` is a path in the output
# directory), the family and the lb, and returns the certificate of the guard
# it enforced (None: unguarded) and its results.

def _check_lb(o, family, lb):
    order = lb.order_s if o["order"] is None else o["order"]
    rec = estimate_lb_bound(family, lb.region, order, o["samples"], rng_seed=o["seed"],
                            safety=o["safety"], force_sampled=o["force-sampled"])
    return None, [leaf("bound-k", rec.bound_k), leaf("order", rec.order_s),
                  leaf("method", rec.method), leaf("region-radius", rec.region.radius),
                  leaf("samples", o["samples"]), _calculus(family)]


def _flow(o, family, lb):
    tol = o["tol"]
    control = Control(pieces=tuple((a, b, L1Coefficients.from_pairs(pairs))
                                   for a, b, pairs in o["piece"]))
    variational = np.eye(family.space.dimension) if o["variational"] else None
    res = flow.flow_control(family, control, o["point"], o["t0"], o["duration"],
                            tangents=variational, tol=tol, lb=lb, unsafe=o["unsafe"])
    results = [vector_leaf("endpoint", res.endpoint),
               leaf("endpoint-tolerance", tol * (1.0 + abs(o["duration"]))),
               leaf("steps", res.steps_taken), leaf("unsafe", res.certificate.unsafe)]
    if o["variational"]:
        results += [vector_leaf(f"variational-row-{i}", row)
                    for i, row in enumerate(res.tangents)]
    return res.certificate, results


def _compose(o, family, lb, inverse=False):
    tol, tau = o["tol"], L1Coefficients.from_pairs(o["entry"], o["tail"])
    run = compose.compose_inverse if inverse else compose.compose_flows
    res = run(family, lb, tau, o["point"], tol=tol, truncation_n=o["truncation"],
              path=o["path"], unsafe=o["unsafe"])
    results = [vector_leaf("endpoint", res.endpoint),
               leaf("endpoint-tolerance", tol * (1.0 + tau.norm1)),
               leaf("truncation-n", res.truncation_n),
               leaf("tail-error-bound", res.tail_error_bound),
               leaf("tail-factor-note", *compose.TAIL_FACTOR_NOTE.split()),
               leaf("unsafe", res.certificate.unsafe)]
    results += [leaf("letter", int(i), float(d)) for i, d in res.word]
    if o.get("out") is not None and o["curve-samples"] > 0:  # invert has no curve
        points = compose.extract_l1_curve(res, o["curve-samples"]).points
        results += _cloud(o["out"], points, "curve-file")
        results.append(leaf("curve-samples", points.shape[0]))
    return res.certificate, results


def _slice(o, family, lb):
    tol, rho, axes = o["tol"], o["rho"], o["axes"]
    res = orbit.slice_grid(family, lb, o["point"], rho, o["grid"], axes, tol=tol,
                           unsafe=o["unsafe"])
    return res.certificate, [
        leaf("rank-at-zero", res.jacobian_rank_at_zero), leaf("axes", *axes),
        leaf("rho", rho), leaf("points", res.points.shape[0]),
        leaf("point-tolerance", tol * (1.0 + rho * len(axes))),
        *_cloud(o["out"], res.points)]


def _bracket_chain(o, family, lb):
    chain = algebra.bracket_chain(family, o["point"], o["k-max"])
    return None, [leaf("ranks", *chain.rank_profile), leaf("rank-tolerance", orbit.RANK_REL_TOL),
                  leaf("generations", len(chain.generations)),
                  leaf("final-rank", chain.final_rank), _calculus(family)]


def _certify_hprime(o, family, lb):
    rep = algebra.certify_h_prime(family, lb.region, grid_size=o["grid"], tol=o["tolerance"])
    return None, [leaf("certified", rep.certified), leaf("bound-C", rep.bound_C),
                  leaf("max-residual", float(rep.residuals.max(initial=0.0))),
                  leaf("tolerance", rep.tolerance), leaf("grid-points", rep.grid.shape[0]),
                  leaf("rank-deficient-points", len(rep.rank_deficient_points)),
                  _calculus(family), leaf("note", *rep.note.split())]


def _orbit_sample(o, family, lb):
    tol = o["tol"]
    samp = orbit.orbit_sample(family, lb, o["point"], o["budget"], o["max-word-len"],
                              o["seed"], tol=tol, mode=o["mode"],
                              exploration_radius=o["exploration-radius"])
    pts = samp.points()
    results = [leaf("points", pts.shape[0]), leaf("d-max", samp.d_max),
               leaf("mode", o["mode"]),
               leaf("truncated-words", sum(1 for _, _, t in samp.cloud if t)),
               leaf("replay-tolerance", 10.0 * tol)]
    if o["spot-check"]:
        results.append(leaf("spot-check-max-gap", orbit.spot_check_sample(family, samp, tol=tol)))
    return samp.certificate, results + _cloud(o["out"], pts)


def _verdict(o, family, lb):
    v = orbit.accessibility_verdict(family, o["point"], o["k-max"])
    results = [leaf("kind", v.kind), leaf("ranks", *v.rank_profile),
               leaf("dimension", v.dimension), leaf("rank-tolerance", orbit.RANK_REL_TOL),
               _calculus(family)]
    if v.saturation_k is not None:
        results.append(leaf("saturation-k", v.saturation_k))
    if v.final_rank is not None:
        results.append(leaf("final-rank", v.final_rank))
    if v.truncation_ranks is not None:
        results.append(leaf("truncation-ranks", *v.truncation_ranks))
    return None, results


# the output twin of SCHEMA["command"]: each command's runner
COMMANDS = {"check-lb": _check_lb, "flow": _flow, "compose": _compose,
            "invert": partial(_compose, inverse=True), "slice": _slice,
            "bracket-chain": _bracket_chain, "certify-hprime": _certify_hprime,
            "orbit-sample": _orbit_sample, "verdict": _verdict}


def run_command(cmd: Node, family: FieldFamily, lb: LbRecord, defaults: dict,
                out_dir: Path, unsafe: bool) -> Report:
    """One command's report; the configuration ends with the guard the
    library enforced when the command is guarded.  A command that fails
    once its options are read gets an error report with the ``tol`` and
    ``seed`` it resolved; options that cannot be read raise."""
    o = _with_defaults(read_command(cmd, family), defaults)
    o["unsafe"] |= unsafe
    if o.get("out") is not None:
        o["out"] = out_dir / o["out"]
    cfg = _configuration(family, lb, o)
    try:
        cert, results = COMMANDS[cmd.args[0]](o, family, lb)
    except OrbitKitError as exc:
        return Report(cmd, cfg, [], error=(type(exc).__name__, str(exc)))
    if cert is not None:
        cfg.append(section("guard", [leaf(key, float(getattr(cert, key)))
                                     for key in ("r", "k", "c", "T0", "margin")]
                           + [leaf("unsafe", cert.unsafe)]))
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
    # an lb that cannot be built (a declared bound of -3 or `samples 0`, say)
    # fails every command, each with its own error report
    try:
        lb, lb_error = _build_lb(_with_defaults(scenario.lb_params(), defaults), family), None
    except OrbitKitError as exc:
        lb, lb_error = None, exc
    out_dir.mkdir(parents=True, exist_ok=True)
    any_error = False
    for i, cmd in enumerate(scenario.commands(), start=1):
        try:
            if lb_error is not None:
                raise lb_error
            report = run_command(cmd, family, lb, defaults, out_dir, unsafe)
        except OrbitKitError as exc:  # the lb or the command's options
            report = Report(cmd, _configuration(family, lb, defaults), [],
                            error=(type(exc).__name__, str(exc)))
        any_error |= report.error is not None
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
    p_run.add_argument("--tol", default=None, help="positive finite tolerance for every command")

    sub.add_parser("catalog", help="list builtin systems")

    p_check = sub.add_parser("check", help="parse and validate a scenario file")
    p_check.add_argument("scenario")

    args = parser.parse_args(argv)

    if args.action == "catalog":
        for name in sorted(BUILTIN_SUMMARIES):
            print(f"{name:22s} {BUILTIN_SUMMARIES[name]}")
        return 0

    # a file that cannot be read and an output path that cannot be a
    # directory are errors in the input, as a parse error is
    try:
        scenario = parse_scenario(Path(args.scenario).read_text())
        if args.action == "run":
            tol = None if args.tol is None else positive_float(args.tol, "--tol")
            out_dir = Path(args.out) if args.out else Path(args.scenario).with_suffix(".out")
            code = run_scenario(scenario, out_dir, seed=args.seed, unsafe=args.unsafe, tol=tol)
            print(f"reports written to {out_dir}")
            return code
    except (OrbitKitError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

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

if __name__ == "__main__":
    sys.exit(main())
