"""The benchmark's tracer wraps orbitkit entry points by attribute name
(``perfbench/spans.py``); every one of them must still exist, or a traced
benchmark run fails at start-up."""

import importlib.util
from pathlib import Path

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

