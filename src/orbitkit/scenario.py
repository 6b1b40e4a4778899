"""Scenario file grammar: parsing, validation, canonical emission.

The format is line-oriented key-value text with brace-nested sections::

    version 1
    family {
      builtin heisenberg {
        radius 8
      }
    }
    lb {
      order 2
      samples 200
    }
    defaults {
      tol 1e-09
      seed 42
    }
    command verdict {
      point 0 0 0
      k-max 3
    }

Rules: one entry per line; an entry is a key followed by whitespace-separated
argument tokens; a trailing ``{`` opens a nested section closed by a lone
``}``; ``#`` starts a comment.  Emission is canonical (two-space indents,
single spaces, shortest round-trip floats), so parse -> emit -> parse -> emit
is byte-stable.  The parsed tree is the source of truth; typed accessors
validate on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .catalog import BUILTINS, build
from .errors import DimensionMismatch, ParseError, UnknownBuiltin
from .fields import FieldFamily, polynomial_field
from .flow import DEFAULT_TOL
from .space import Ball, ChartSpace, ball

FORMAT_VERSION = "1"

COMMANDS = ("flow", "compose", "invert", "slice", "bracket-chain",
            "certify-hprime", "orbit-sample", "verdict", "check-lb")

DEFAULT_SEED = 0
DEFAULT_SAMPLES = 200
DEFAULT_SAFETY = 1.25


@dataclass
class Node:
    """One entry of the scenario tree."""

    key: str
    args: list[str] = field(default_factory=list)
    children: list["Node"] | None = None  # None: leaf; list: section

    def child(self, key: str) -> "Node | None":
        for c in self.children or []:
            if c.key == key:
                return c
        return None

    def all(self, key: str) -> list["Node"]:
        return [c for c in self.children or [] if c.key == key]


def format_float(x: float) -> str:
    return repr(float(x))


def parse_tree(text: str) -> list[Node]:
    root: list[Node] = []
    stack: list[list[Node]] = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ParseError("unbalanced '}'", line=lineno)
            stack.pop()
            continue
        opens = line.endswith("{")
        body = line[:-1].strip() if opens else line
        tokens = body.split()
        if not tokens:
            raise ParseError("section needs a key", line=lineno)
        node = Node(key=tokens[0], args=tokens[1:], children=[] if opens else None)
        stack[-1].append(node)
        if opens:
            stack.append(node.children)  # type: ignore[arg-type]
    if len(stack) != 1:
        raise ParseError("unclosed section at end of input")
    return root


def emit_tree(nodes: list[Node], indent: int = 0) -> str:
    out: list[str] = []
    pad = "  " * indent
    for n in nodes:
        head = " ".join([n.key] + list(n.args))
        if n.children is None:
            out.append(pad + head)
        else:
            out.append(pad + head + " {")
            body = emit_tree(n.children, indent + 1)
            if body:
                out.append(body)
            out.append(pad + "}")
    return "\n".join(out)


def _floats(node: Node, lineno_hint: str = "") -> list[float]:
    try:
        return [float(a) for a in node.args]
    except ValueError:
        raise ParseError(f"expected numbers in '{node.key}'{lineno_hint}") from None


def _one_float(node: Node) -> float:
    vals = _floats(node)
    if len(vals) != 1:
        raise ParseError(f"'{node.key}' takes exactly one number")
    return vals[0]


def _one_int(node: Node) -> int:
    return _integer(_one_float(node), node.key)


def _integer(v: float, key: str) -> int:
    if not v.is_integer():
        raise ParseError(f"'{key}' takes integers")
    return int(v)


def _exponents(vals: list[float], key: str) -> tuple[int, ...]:
    exps = tuple(_integer(v, key) for v in vals)
    if any(e < 0 for e in exps):
        raise ParseError(f"'{key}' exponents must be non-negative")
    return exps


def _built(constructor, *args, **kwargs):
    """Call a library constructor on parsed values; a value it rejects
    (``ValueError``: a radius of 0, an unknown norm, a count out of range)
    is an error in the scenario."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


@dataclass
class Scenario:
    """A validated scenario: the canonical tree plus typed accessors."""

    tree: list[Node]

    def emit(self) -> str:
        return emit_tree(self.tree) + "\n"

    # -- sections ----------------------------------------------------------
    def _section(self, key: str) -> Node | None:
        for n in self.tree:
            if n.key == key:
                return n
        return None

    def defaults(self) -> dict:
        out = {"tol": DEFAULT_TOL, "seed": DEFAULT_SEED,
               "samples": DEFAULT_SAMPLES, "safety": DEFAULT_SAFETY}
        sec = self._section("defaults")
        if sec is not None:
            for c in sec.children or []:
                if c.key == "tol":
                    out["tol"] = _one_float(c)
                elif c.key == "seed":
                    out["seed"] = _one_int(c)
                elif c.key == "samples":
                    out["samples"] = _one_int(c)
                elif c.key == "safety":
                    out["safety"] = _one_float(c)
                else:
                    raise ParseError(f"unknown defaults entry '{c.key}'")
        return out

    def build_family(self) -> FieldFamily:
        fam_sec = self._section("family")
        if fam_sec is None:
            raise ParseError("scenario needs a 'family' section")
        space_sec = self._section("space")
        declared_space = None
        if space_sec is not None:
            dim_node = space_sec.child("dim")
            if dim_node is None:
                raise ParseError("'space' needs a 'dim' entry")
            dim = _one_int(dim_node)
            norm_node = space_sec.child("norm")
            norm = norm_node.args[0] if norm_node and norm_node.args else None
            trunc_node = space_sec.child("l1-truncation")
            trunc = bool(trunc_node and trunc_node.args and trunc_node.args[0] == "on")
            declared_space = _built(ChartSpace, dim, norm_kind=norm, truncation_of_l1=trunc)

        builtins = fam_sec.all("builtin")
        polys = fam_sec.all("poly")
        if builtins and polys:
            raise ParseError("family mixes 'builtin' and 'poly' entries")
        if builtins:
            if len(builtins) != 1:
                raise ParseError("family takes a single 'builtin' entry")
            family = self._build_builtin(builtins[0])
        elif polys:
            family = self._build_poly(polys, fam_sec, declared_space)
        else:
            raise ParseError("family needs a 'builtin' or 'poly' entry")
        if declared_space is not None and declared_space.dimension != family.space.dimension:
            raise DimensionMismatch(
                f"space dim {declared_space.dimension} != family dim {family.space.dimension}")
        return family

    def _build_builtin(self, node: Node) -> FieldFamily:
        if not node.args:
            raise ParseError("'builtin' needs a name")
        name = node.args[0]
        if name not in BUILTINS:
            raise UnknownBuiltin(f"no builtin named {name!r}")
        params: dict = {}
        matrix_terms = []
        for c in node.children or []:
            key = c.key.replace("-", "_")
            if key in ("dim", "span", "count", "grid"):
                params[key] = _one_int(c)
            elif key in ("radius", "decay"):
                params[key] = _one_float(c)
            elif key in ("linear_part",):
                params[key] = bool(c.args and c.args[0] == "on")
            elif key == "norm_kind":
                if len(c.args) != 1:
                    raise ParseError("'norm-kind' takes exactly one value")
                params[key] = c.args[0]
            elif key == "matrix_term":
                # coeff, one exponent per coordinate, row, col
                vals = _floats(c)
                if len(vals) < 4:
                    raise ParseError("'matrix-term' takes coeff exponents... row col")
                matrix_terms.append((vals[0], _exponents(vals[1:-2], c.key),
                                     _integer(vals[-2], c.key), _integer(vals[-1], c.key)))
            else:
                raise ParseError(f"unknown builtin parameter '{c.key}'")
        if matrix_terms:
            params["matrix_terms"] = matrix_terms
        return _built(build, name, **params)

    def _build_poly(self, polys: list[Node], fam_sec: Node,
                    declared_space: ChartSpace | None) -> FieldFamily:
        if declared_space is None:
            raise ParseError("polynomial families need a 'space' section")
        dim = declared_space.dimension
        dom_sec = fam_sec.child("domain")
        if dom_sec is None:
            raise ParseError("polynomial families need a 'domain' section")
        center_node = dom_sec.child("center")
        radius_node = dom_sec.child("radius")
        if center_node is None or radius_node is None:
            raise ParseError("'domain' needs 'center' and 'radius'")
        center = _floats(center_node)
        if len(center) != dim:
            raise DimensionMismatch("domain center dimension mismatch")
        dom = _built(ball, center, _one_float(radius_node), declared_space.norm_kind)

        members = []
        labels = set()
        for p in polys:
            if not p.args:
                raise ParseError("'poly' needs a label")
            label = p.args[0]
            if label in labels:
                raise ParseError(f"duplicate field label '{label}'")
            labels.add(label)
            comps: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(dim)]
            for c in p.children or []:
                if c.key != "component":
                    raise ParseError(f"unknown poly entry '{c.key}'")
                ci = _one_int(c)
                if not 0 <= ci < dim:
                    raise DimensionMismatch(f"component index {ci} out of range")
                for t in c.children or []:
                    if t.key != "term":
                        raise ParseError(f"unknown component entry '{t.key}'")
                    vals = _floats(t)
                    if len(vals) != dim + 1:
                        raise DimensionMismatch(
                            "'term' takes a coefficient plus one exponent per coordinate")
                    comps[ci].append((vals[0], _exponents(vals[1:], t.key)))
            members.append(polynomial_field(dom, comps, label=label))
        return FieldFamily(space=declared_space, members=tuple(members), common_domain=dom)

    def lb_params(self, space: ChartSpace) -> dict:
        """The ``lb`` section; its ``region`` is a ball of the chart ``space``."""
        out = {"order": 2, "samples": None, "declared": "auto", "region": None}
        sec = self._section("lb")
        if sec is not None:
            for c in sec.children or []:
                if c.key == "order":
                    out["order"] = _one_int(c)
                elif c.key == "samples":
                    out["samples"] = _one_int(c)
                elif c.key == "declared":
                    out["declared"] = c.args[0] if c.args else "auto"
                elif c.key == "region":
                    out["region"] = _region_from(c, space)
                else:
                    raise ParseError(f"unknown lb entry '{c.key}'")
        return out

    def commands(self) -> list[Node]:
        cmds = [n for n in self.tree if n.key == "command"]
        for c in cmds:
            if not c.args or c.args[0] not in COMMANDS:
                raise ParseError(f"unknown command '{' '.join(c.args) or '?'}'")
        return cmds


def _region_from(node: Node, space: ChartSpace) -> Ball:
    center_node = node.child("center")
    radius_node = node.child("radius")
    if center_node is None or radius_node is None:
        raise ParseError("'region' needs 'center' and 'radius'")
    center = _floats(center_node)
    if len(center) != space.dimension:
        raise DimensionMismatch("region center dimension mismatch")
    return _built(ball, center, _one_float(radius_node), space.norm_kind)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text."""
    tree = parse_tree(text)
    sc = Scenario(tree=tree)
    for n in tree:
        if n.key not in ("version", "space", "family", "lb", "defaults", "command"):
            raise ParseError(f"unknown top-level entry '{n.key}'")
    ver = sc._section("version")
    if ver is not None and ver.args and ver.args[0] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {ver.args[0]!r}")
    # force validation of each typed section now, not at run time
    sc.defaults()
    sc.lb_params(sc.build_family().space)
    sc.commands()
    return sc


def emit_scenario(scenario: Scenario) -> str:
    return scenario.emit()
