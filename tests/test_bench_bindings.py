"""The benchmark's tracer wraps orbitkit entry points by attribute name
(``perfbench/spans.py``); every one of them must still exist, or a traced
benchmark run fails at start-up."""

import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from orbitkit import compose, flow
from orbitkit.algebra import enlarge_field
from orbitkit.flow import FlowWord
from orbitkit.space import L1Coefficients

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_binding_exists():
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in _spans().targets() if not hasattr(owner, attr)]
    assert missing == []




def test_word_runs_reach_the_traced_flow_single(monkeypatch, heis, heis_lb):
    # the tracer counts flows at flow_single, so every word run must call it;
    # an enlarged field of tabled members runs no word, so this one is built
    # on the members stripped of their tables, which takes the nested path
    stripped = replace(heis, members=tuple(replace(m, table=None) for m in heis.members))
    enlarged = enlarge_field(stripped, FlowWord(((0, 0.3), (1, -0.2))), 1, 1.0, heis_lb)
    tau = L1Coefficients(((0, 0.2), (1, -0.1)))
    runs = {
        "EnlargedField.eval_many": lambda: enlarged.eval_many(np.zeros((4, 3))),
        "d_psi": lambda: compose.d_psi(heis, heis_lb, np.zeros(3), tau,
                                       L1Coefficients(((1, 1.0),))),
        "compose_flows sequential": lambda: compose.compose_flows(
            heis, heis_lb, tau, np.zeros(3), path="sequential"),
    }
    calls = []
    original = flow.flow_single

    def counted(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return original(*args, **kwargs)

    # d_psi runs its letters through compose's binding of flow_single
    for module in (flow, compose):
        monkeypatch.setattr(module, "flow_single", counted)
    shapes = {}
    for name, run in runs.items():
        calls.clear()
        run()
        shapes[name] = set(calls)
    assert all(shapes.values()), shapes
    # the enlarged field's four rows run as one stack per letter
    assert (4, 3) in shapes["EnlargedField.eval_many"]
