"""Span tracing from outside the program.

The benchmark wraps each module's public entry points (and their re-imported
bindings, such as ``compose.flow_control`` or ``orbit.linprog``) with spans.
A span records name, start, end, parent span and claim id; spans stay in
memory and are written out when the run ends.  Self time is a span's
duration minus the time its child spans cover (spans nest, so that is the
sum of the children's durations).

Field evaluations, Jacobians, brackets and rank decisions are the hottest
calls.  Such a span whose children were all folded is itself folded into its
parent record (as a count and a self time) instead of being stored, which
keeps the traced run's memory bounded; per-name counts and times still
include it.
``space`` gets no span: ``Ball.contains`` and ``L1Coefficients`` are
sub-microsecond calls made at every accepted step, so a wrapper would cost
more than the work it times.
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from collections import defaultdict

FOLDED = ("fields.eval", "fields.jacobian", "algebra.bracket", "orbit.rank")


class Tracer:
    def __init__(self):
        self.claim = -1
        self.stack: list[list] = []
        self.records: list[tuple] = []
        self.count: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._guard_errors: list[BaseException] = []
        self._patches: list[tuple] = []

    # -------------------------------------------------------------- spans
    def wrap(self, name: str, fn, on_result=None):
        stack = self.stack
        clock = time.perf_counter
        folded = name in FOLDED
        is_eval = name == "fields.eval"

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            # [name, id, start, child_s, children, folded children, folded spans, folded_s]
            entry = [name, sid, 0.0, 0.0, 0, 0, 0, 0.0]
            stack.append(entry)
            error = None
            entry[2] = start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                own = dur - entry[3]
                self.count[name] += 1
                self.self_s[name] += own
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += dur
                    parent[4] += 1
                    if is_eval and parent[0].startswith("flow."):
                        self.counters["flow.evals"] += 1
                if folded and parent is not None and entry[5] == entry[4]:
                    parent[5] += 1
                    parent[6] += 1 + entry[6]
                    parent[7] += own + entry[7]
                else:
                    self.records.append((sid, name, start, end, parent[1] if parent else -1,
                                         self.claim, entry[6], entry[7],
                                         type(error).__name__ if error else None))
                if error is not None and type(error).__name__ == "GuardViolated" \
                        and not any(e is error for e in self._guard_errors):
                    self._guard_errors.append(error)
                    self.counters["flow.guard_refusals"] += 1
            if on_result is not None:
                on_result(self.counters, result, args)
            return result

        return traced

    def install(self, targets):
        """Patch ``(owner, attribute, span name, on_result)`` targets in place."""
        for owner, attr, name, on_result in targets:
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(name, orig, on_result))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # -------------------------------------------------------------- output
    def outermost(self, key) -> dict[str, float]:
        """Inclusive time per ``key(name)`` of the recorded spans that have no
        ancestor with the same key, so nested spans count once (a flow inside
        an enlarged field inside a flow, say)."""
        by_id = {r[0]: r for r in self.records}
        out: dict[str, float] = defaultdict(float)
        for r in self.records:
            k = key(r[1])
            p = by_id.get(r[4])
            while p is not None and key(p[1]) != k:
                p = by_id.get(p[4])
            if p is None:
                out[k] += r[3] - r[2]
        return out

    def write(self, path: pathlib.Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "claim", "folded_spans", "folded_s", "error")
        tmp = path.with_suffix(".tmp")
        with open(tmp, "w") as fh:
            for r in self.records:
                fh.write(json.dumps(dict(zip(keys, r))) + "\n")
        os.replace(tmp, path)


# ------------------------------------------------------------------ targets

def _flow_result(counters, res, args):
    counters["flow.steps"] += res.steps_taken


def _compose_result(counters, res, args):
    counters["compose.legs"] += len(res.word)


def _orbit_result(counters, res, args):
    counters["orbit.points"] += len(res.cloud)
    counters["orbit.truncated"] += sum(1 for _, _, t in res.cloud if t)


def _lp_result(counters, res, args):
    counters["orbit.lp.fallbacks"] += res.status != 0


def _text_bytes(counters, res, args):
    counters["report.bytes"] += len(args[1])


def _file_bytes(counters, res, args):
    counters["report.bytes"] += os.path.getsize(args[0])


def targets():
    """Every public entry point per module, with its re-imported bindings."""
    from orbitkit import algebra, catalog, cli, compose, fields, flow, orbit, report, scenario
    from orbitkit.algebra import FlowWord
    from orbitkit.fields import VectorField
    from orbitkit.orbit import DistributionBasis
    from orbitkit.report import Report
    from orbitkit.scenario import Scenario

    t = [
        (VectorField, "__call__", "fields.eval", None),
        (VectorField, "jacobian", "fields.jacobian", None),
        (scenario, "parse_scenario", "scenario.parse", None),
        (cli, "parse_scenario", "scenario.parse", None),
        (Scenario, "build_family", "catalog.build", None),
        (catalog, "build", "catalog.build", None),
        (scenario, "build", "catalog.build", None),
        (Report, "render", "report.render", None),
        (pathlib.Path, "write_text", "report.write", _text_bytes),
        (report, "write_point_cloud", "report.write", _file_bytes),
        (cli, "write_point_cloud", "report.write", _file_bytes),
        (cli, "run_scenario", "cli.run", None),
        (cli, "run_command", "cli.command", None),
        (FlowWord, "apply", "algebra.word", None),
        (FlowWord, "apply_with_variational", "algebra.word", None),
        (DistributionBasis, "coefficient_solver", "orbit.solve", None),
    ]
    for mod in (fields, algebra):
        t.append((mod, "eval_jet_norm", "fields.jet_norm", None))
    for mod in (fields, cli):
        t.append((mod, "estimate_lb_bound", "fields.lb", None))
    for mod in (flow, compose):
        t.append((mod, "flow_control", "flow.control", _flow_result))
    for mod in (flow, compose, orbit, algebra):
        t.append((mod, "flow_single", "flow.single", _flow_result))
    for mod in (compose, orbit):
        t.append((mod, "compose_flows", "compose.compose", _compose_result))
    t += [
        (compose, "compose_inverse", "compose.inverse", _compose_result),
        (compose, "d_psi", "compose.d_psi", None),
        (compose, "extract_l1_curve", "compose.curve", None),
        (algebra, "lie_bracket", "algebra.bracket", None),
        (algebra, "lie_bracket_via_flows", "algebra.bracket_via_flows", None),
        (algebra, "bracket_chain", "algebra.chain", None),
        (algebra, "certify_h_prime", "algebra.certify", None),
        (algebra, "enlarge_field", "algebra.enlarge", None),
        (orbit, "orbit_sample", "orbit.sample", _orbit_result),
        (orbit, "spot_check_sample", "orbit.spot_check", None),
        (orbit, "slice_grid", "orbit.slice", None),
        (orbit, "distribution_at", "orbit.distribution", None),
        (orbit, "invariance_residual", "orbit.invariance", None),
        (orbit, "accessibility_verdict", "orbit.verdict", None),
        (orbit, "replay_word", "orbit.replay", None),
        (orbit, "linprog", "orbit.lp", _lp_result),
    ]
    for mod in (orbit, algebra):
        t.append((mod, "numerical_rank", "orbit.rank", None))
    return t


def per_layer(tr: Tracer, overhead: float, wall_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit).  Shares are inclusive
    time over ``wall_s``, the traced pass's set-up plus claim time."""
    c, s, n = tr.counters, tr.self_s, tr.count
    inc = tr.outermost(lambda name: name)
    layers = tr.outermost(lambda name: name.split(".")[0])

    def ratio(a, b):
        return a / b if b else 0.0

    flow_calls = n["flow.control"] + n["flow.single"]
    steps = c["flow.steps"]
    lp = n["orbit.lp"]
    points = c["orbit.points"]
    return {
        "flow.calls": (flow_calls, "count"),
        "flow.self_s": (s["flow.control"] + s["flow.single"], "s"),
        "flow.steps": (steps, "count"),
        "flow.steps_per_call": (ratio(steps, flow_calls), "ratio"),
        "flow.us_per_step": (1e6 * ratio(layers["flow"], steps), "us"),
        "flow.evals_per_step": (ratio(c["flow.evals"], steps), "ratio"),
        "flow.guard_refusals": (c["flow.guard_refusals"], "count"),
        "flow.share": (ratio(layers["flow"], wall_s), "ratio"),
        "fields.eval.count": (n["fields.eval"], "count"),
        "fields.eval.self_s": (s["fields.eval"], "s"),
        "fields.jacobian.count": (n["fields.jacobian"], "count"),
        "fields.jacobian.self_s": (s["fields.jacobian"], "s"),
        "fields.jet_norm.count": (n["fields.jet_norm"], "count"),
        "fields.jet_norm.self_s": (s["fields.jet_norm"], "s"),
        "fields.jet_norm.share": (ratio(inc["fields.jet_norm"], wall_s), "ratio"),
        "fields.lb.s": (inc["fields.lb"], "s"),
        "compose.calls": (n["compose.compose"] + n["compose.inverse"], "count"),
        "compose.self_s": (sum(v for k, v in s.items() if k.startswith("compose.")), "s"),
        "compose.legs": (c["compose.legs"], "count"),
        "algebra.bracket.count": (n["algebra.bracket"], "count"),
        "algebra.bracket.self_s": (s["algebra.bracket"], "s"),
        "algebra.chain.s": (inc["algebra.chain"], "s"),
        "algebra.certify.s": (inc["algebra.certify"], "s"),
        "algebra.enlarge.s": (inc["algebra.enlarge"], "s"),
        "orbit.sample.s": (inc["orbit.sample"], "s"),
        "orbit.points": (points, "count"),
        "orbit.truncated_frac": (ratio(c["orbit.truncated"], points), "ratio"),
        "orbit.spot_check.s": (inc["orbit.spot_check"], "s"),
        "orbit.lp.count": (lp, "count"),
        "orbit.lp.self_s": (s["orbit.lp"], "s"),
        "orbit.lp.share": (ratio(inc["orbit.lp"], wall_s), "ratio"),
        "orbit.lp.fallback_frac": (ratio(c["orbit.lp.fallbacks"], lp), "ratio"),
        "orbit.rank.count": (n["orbit.rank"], "count"),
        "orbit.rank.self_s": (s["orbit.rank"], "s"),
        "report.render_s": (inc["report.render"], "s"),
        "report.write_s": (inc["report.write"], "s"),
        "report.bytes": (c["report.bytes"], "B"),
        "cli.command.count": (n["cli.command"], "count"),
        "cli.self_s": (s["cli.run"] + s["cli.command"], "s"),
        "scenario.parse_s": (inc["scenario.parse"], "s"),
        "catalog.build_s": (inc["catalog.build"], "s"),
        "trace.overhead": (overhead, "ratio"),
    }
