"""Issue claims to orbitkit and time each one.

A CLI item goes through ``orbitkit.cli.run_scenario`` exactly as ``orbitkit
run`` would send it.  Claim boundaries inside it are taken from a thin hook on
``orbitkit.cli.run_command``: a claim runs from the start of its command to
the start of the next one (or the end of the scenario), so it includes
rendering and writing its report.  Set-up (parse, family build, lb) is
everything before the first command.  A library item builds its family and
lb once (set-up) and then times each call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Entry points are called through their modules so that the traced run's
# wrappers see them.
from orbitkit import algebra, catalog, cli, compose, fields, flow, orbit, scenario
from orbitkit.algebra import FlowWord
from orbitkit.fields import FieldFamily, VectorField
from orbitkit.space import ChartSpace, L1Coefficients, ball

import gen
import oracle
from models import Wave


@dataclass
class Outcome:
    """Per-claim latencies and oracle verdicts of one item."""

    latencies: list[float] = field(default_factory=list)
    verdicts: list[oracle.Verdict] = field(default_factory=list)
    wall_s: float = 0.0   # set-up plus claims, oracle excluded


class ClaimClock:
    """Hook on ``orbitkit.cli.run_command`` that records when each command
    starts; installed for the whole run, traced or not."""

    def __init__(self, tracer=None):
        self.starts: list[float] = []
        self.tracer = tracer
        self._inner = None

    def install(self):
        inner = self._inner = cli.run_command
        tracer = self.tracer

        def run_command(*args, **kwargs):
            self.starts.append(time.perf_counter())
            if tracer is not None:
                tracer.claim += 1
            return inner(*args, **kwargs)

        cli.run_command = run_command

    def uninstall(self):
        cli.run_command = self._inner


def run_cli_item(item: dict, out_dir: Path, clock: ClaimClock) -> Outcome:
    text = gen.scenario_text(item)
    clock.starts = []
    t0 = time.perf_counter()
    error = None
    try:
        cli.run_scenario(scenario.parse_scenario(text), out_dir)
    except Exception as exc:  # a claim that raises is counted as failed, not fatal
        error = exc
    t_end = time.perf_counter()
    starts = clock.starts
    out = Outcome(wall_s=t_end - t0)
    bounds = starts + [t_end]
    out.latencies = [b - a for a, b in zip(bounds, bounds[1:])]
    model = gen.model_of(item["family"])
    for i, cmd in enumerate(item["commands"], start=1):
        path = out_dir / f"report-{i:02d}-{cmd['cmd']}.txt"
        if i > len(starts) or not path.exists():
            out.verdicts.append(oracle.Verdict(False, message=f"no report ({error!r})"))
            continue
        try:
            rep = oracle.read_report(path.read_text())
            out.verdicts.append(oracle.check_command(model, item["family"], cmd, rep, out_dir))
        except (KeyError, IndexError, ValueError, OSError) as exc:
            out.verdicts.append(oracle.Verdict(False, message=f"unreadable report: {exc!r}"))
    return out


# ------------------------------------------------------------ library items

def wave_family(fam: dict) -> FieldFamily:
    """Callable fields without analytic Jacobians (finite differences)."""
    model = Wave(fam["dim"], fam["amps"], fam["phases"])
    d = model.dim
    space = ChartSpace(d)
    dom = ball(np.zeros(d), model.radius, space.norm_kind)
    e0 = np.zeros(d)
    e0[0] = 1.0
    members = (VectorField(dom, lambda x: e0.copy(), label="W1"),
               VectorField(dom, lambda x: model.field(1, x), label="W2"))
    return FieldFamily(space=space, members=members, common_domain=dom)


def build_library_family(item: dict):
    fam = item["family"]
    if fam["kind"] == "wave":
        family = wave_family(fam)
    else:
        family = catalog.build(fam["kind"], radius=fam["radius"])
    lb = item["lb"]
    rec = fields.estimate_lb_bound(family, family.common_domain, lb["order"], lb.get("samples", 1),
                                   force_sampled=lb["declared"] == "off")
    return family, rec


def new_context(lb) -> dict:
    """What the calls of one library item share: the lb and earlier results."""
    return {"lb": lb, "bases": [], "fields": [], "enlarge": []}


def remember(ctx: dict, call: dict, result) -> None:
    """Keep the results that later calls of the item refer to."""
    if call["op"] == "enlarge":
        ctx["fields"].append(result)
        ctx["enlarge"].append(call)
    elif call["op"] == "distribution":
        ctx["bases"].append(result)


def call(family, lb, spec: dict, ctx: dict):
    """Issue one library call of an item."""
    op = spec["op"]
    tol = spec.get("tol")
    if op == "enlarge":
        return algebra.enlarge_field(family, FlowWord(spec["letters"]), spec["base"], spec["nu"],
                                     lb, tol=tol)
    if op == "distribution":
        return orbit.distribution_at(family, np.array(spec["point"]), ctx["fields"])
    if op == "lp":
        return ctx["bases"][spec["basis"]].coefficient_solver(np.array(spec["target"]))
    if op == "invariance":
        extra = ctx["fields"] if spec["enlarged"] else []
        return orbit.invariance_residual(family, np.array(spec["point"]), spec["index"], spec["t"],
                                         lb, include_enlarged=extra, tol=tol)
    if op == "d_psi":
        return compose.d_psi(family, lb, np.array(spec["point"]),
                             L1Coefficients.from_pairs(spec["tau"]),
                             L1Coefficients.from_pairs(spec["sigma"]), tol=tol)
    if op == "bracket_via_flows":
        i, j = spec["pair"]
        return algebra.lie_bracket_via_flows(family.members[i], family.members[j],
                                             np.array(spec["point"]))
    if op == "conjugate_flow":
        return flow.flow_single(ctx["fields"][spec["field"]], np.array(spec["point"]), spec["t"],
                                tol=tol)
    raise ValueError(op)


def run_library_item(item: dict, built: dict, tracer=None) -> Outcome:
    key = repr(item["family"])
    t0 = time.perf_counter()
    if key not in built:
        built[key] = build_library_family(item)
    family, lb = built[key]
    out = Outcome(wall_s=time.perf_counter() - t0)
    model = gen.model_of(item["family"])
    ctx = new_context(lb)
    for spec in item["calls"]:
        if tracer is not None:
            tracer.claim += 1
        start = time.perf_counter()
        try:
            result = call(family, lb, spec, ctx)
        except Exception as exc:  # counted as a failed claim
            out.latencies.append(time.perf_counter() - start)
            out.wall_s += out.latencies[-1]
            out.verdicts.append(oracle.Verdict(False, message=f"{spec['op']} raised {exc!r}"))
            continue
        out.latencies.append(time.perf_counter() - start)
        out.wall_s += out.latencies[-1]
        remember(ctx, spec, result)
        try:
            out.verdicts.append(oracle.check_call(model, spec, result, ctx))
        except (KeyError, IndexError) as exc:
            out.verdicts.append(oracle.Verdict(False, message=f"{spec['op']} not checkable: {exc!r}"))
    return out
