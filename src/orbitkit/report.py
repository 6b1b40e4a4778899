"""Report and point-cloud emission.

Reports are structured text in the scenario grammar, rendered canonically so
identical runs produce byte-identical files (the timestamp line is the one
field excluded from comparisons).  Every floating-point result is
accompanied by the tolerance it was computed at.  Every report's
configuration carries the lb record (``k``, ``order``, ``provenance``); the
reports of guarded commands also carry the guard the library enforced, taken
from the result's certificate.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from .scenario import FORMAT_VERSION, Node, emit_tree, format_float


def leaf(key: str, *args) -> Node:
    return Node(key=key, args=[_tok(a) for a in args])


def section(key: str, children: list[Node]) -> Node:
    return Node(key=key, children=children)


def _tok(a) -> str:
    if isinstance(a, bool):
        return "on" if a else "off"
    if isinstance(a, float) or isinstance(a, np.floating):
        return format_float(float(a))
    return str(a)


def vector_leaf(key: str, v: np.ndarray) -> Node:
    return leaf(key, *[float(x) for x in np.asarray(v, dtype=float).ravel()])


@dataclass
class Report:
    """One command's outcome as a canonical tree; its status is ``ok``, or
    ``error`` when it carries an error."""

    command_echo: Node
    configuration: list[Node]
    results: list[Node]
    error: tuple[str, str] | None = None  # (type, message)

    def render(self, timestamp: str | None = None) -> str:
        ts = timestamp or datetime.datetime.now(datetime.timezone.utc).strftime(
            "%Y-%m-%dT%H:%M:%SZ")
        children = [
            leaf("version", FORMAT_VERSION),
            leaf("timestamp", ts),
            self.command_echo,
            section("configuration", self.configuration),
            section("results", self.results),
        ]
        if self.error is not None:
            children.append(section("error", [leaf("type", self.error[0]),
                                              leaf("message-words", *self.error[1].split())]))
        children.append(leaf("status", "ok" if self.error is None else "error"))
        return emit_tree([section("report", children)]) + "\n"


def strip_timestamp(text: str) -> str:
    """Drop the timestamp line so reports can be compared across runs."""
    return "\n".join(ln for ln in text.splitlines() if not ln.strip().startswith("timestamp "))


def write_point_cloud(path, points: np.ndarray) -> None:
    """Delimited text, one point per row, a header row naming the
    coordinates ``x0 x1 ...``, 17 significant digits."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError("points must be a 2-d array")
    with open(path, "w") as fh:
        fh.write(" ".join(f"x{i}" for i in range(pts.shape[1])) + "\n")
        for row in pts:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_point_cloud(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    return np.array([[float(t) for t in ln.split()] for ln in lines[1:]])
