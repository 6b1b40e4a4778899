"""Scenario file grammar: parsing, the option table, canonical emission.

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
is byte-stable.

``SCHEMA`` is the one table of options: it maps the ``space``, ``lb`` and
``defaults`` sections, each builtin's parameters and each command to its
options, each an :class:`Opt` with a kind and a default.  :func:`read_options`
applies a table to a section and returns the typed values; anything the table
does not accept is a :class:`ParseError`.  :func:`parse_scenario` reads every
section and builds the family once (``Scenario.family``).  Commands are read
by :func:`read_command`: ``orbitkit check`` reads them all up front, and
``orbitkit run`` reads each as it runs it, so that a bad command gets its
own error report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .catalog import build
from .errors import DimensionMismatch, ParseError, UnknownBuiltin
from .fields import DEFAULT_SAFETY, FieldFamily, polynomial_field
from .flow import DEFAULT_TOL
from .space import Ball, ChartSpace, ball

FORMAT_VERSION = "1"


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


def _floats(node: Node, count: int | None = None) -> list[float]:
    try:
        vals = [float(a) for a in node.args]
    except ValueError:
        raise ParseError(f"expected numbers in '{node.key}'") from None
    if count is not None and len(vals) != count:
        raise ParseError(f"'{node.key}' takes {count} number(s)")
    return vals


def _integer(v: float, key: str, members: int | None = None) -> int:
    """``v`` as an integer; given ``members``, as the index of a family member."""
    if not v.is_integer():
        raise ParseError(f"'{key}' takes integers")
    if members is not None and not 0 <= v < members:
        raise ParseError(f"'{key}' index {int(v)} has no family member")
    return int(v)


def positive_float(token: str, key: str) -> float:
    """``token`` as a positive finite number, such as a tolerance."""
    try:
        v = float(token)
    except ValueError:
        v = math.nan
    if not 0 < v < math.inf:
        raise ParseError(f"'{key}' takes a positive finite number")
    return v


def _built(constructor, *args, **kwargs):
    """Call a library constructor on parsed values; a value it rejects
    (``ValueError``: a radius of 0, an unknown norm, a count out of range)
    is an error in the scenario."""
    try:
        return constructor(*args, **kwargs)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


# -- the option table ---------------------------------------------------------

REQUIRED = object()  # an Opt default: the option must be given (a repeated one at least once)


@dataclass(frozen=True)
class Opt:
    """One option: its kind (a key of ``_KINDS``), its value when absent and,
    for a ``word`` with a fixed vocabulary, the words it takes."""

    kind: str
    default: object = None
    words: tuple[str, ...] = ()


def _word(n: Node, *_) -> str:
    if len(n.args) != 1:
        raise ParseError(f"'{n.key}' takes exactly one value")
    return n.args[0]


def _flag(n: Node, *_) -> bool:
    if _word(n) not in ("on", "off"):
        raise ParseError(f"'{n.key}' takes on or off")
    return n.args[0] == "on"


def _declared(n: Node, *_) -> str | float:
    """``auto``, ``off`` or a number: the lb section's ``declared``."""
    word = _word(n)
    return word if word in ("auto", "off") else _floats(n, 1)[0]


def _point(n: Node, space: ChartSpace, _members) -> np.ndarray:
    vals = _floats(n)
    if len(vals) != space.dimension:
        raise DimensionMismatch(f"'{n.key}' needs {space.dimension} coordinates")
    return np.array(vals)


def _indices(n: Node, _space, members: int) -> tuple[int, ...]:
    return tuple(_integer(v, n.key, members) for v in _floats(n))


def _entry(n: Node, _space, members: int) -> tuple[int, float]:
    i, v = _floats(n, 2)
    return _integer(i, n.key, members), v


def _piece(n: Node, _space, members: int) -> tuple[float, float, list[tuple[int, float]]]:
    vals = _floats(n)
    if len(vals) < 4 or len(vals) % 2:
        raise ParseError("'piece' takes t_start t_end then index/value pairs")
    pairs = [(_integer(i, n.key, members), v) for i, v in zip(vals[2::2], vals[3::2])]
    return vals[0], vals[1], pairs


def _matrix_term(n: Node, *_) -> tuple[float, tuple[int, ...], int, int]:
    vals = _floats(n)
    if len(vals) < 4:
        raise ParseError("'matrix-term' takes coeff exponents... row col")
    return vals[0], tuple(vals[1:-2]), _integer(vals[-2], n.key), _integer(vals[-1], n.key)


def _ball(n: Node, space: ChartSpace, _members=0) -> Ball:
    """A ``center``/``radius`` section as a ball of the chart norm."""
    p = read_options(n, _BALL, space)
    return _built(ball, p["center"], p["radius"], space.norm_kind)


_KINDS = {
    "float": lambda n, *_: _floats(n, 1)[0],
    "positive": lambda n, *_: positive_float(_word(n), n.key),
    "int": lambda n, *_: _integer(_floats(n, 1)[0], n.key),
    "word": _word, "flag": _flag, "declared": _declared, "point": _point,
    "indices": _indices, "entry": _entry, "piece": _piece, "matrix-term": _matrix_term,
    "ball": _ball,
}
_REPEATED = ("entry", "piece", "matrix-term")
_BALL = {"center": Opt("point", REQUIRED), "radius": Opt("float", REQUIRED)}

_RADIUS = {"radius": Opt("float"), "norm-kind": Opt("word")}
_SHAPE = {"dim": Opt("int", REQUIRED), "count": Opt("int", REQUIRED),
          "decay": Opt("float"), "radius": Opt("float")}
_POINT = {"point": Opt("point", REQUIRED)}
_COMPOSE = {**_POINT, "entry": Opt("entry"), "tail": Opt("float", 0.0),
            "truncation": Opt("int"),
            "path": Opt("word", "control", ("control", "sequential"))}
_EVERY_COMMAND = {"tol": Opt("positive"), "unsafe": Opt("flag", False)}

SCHEMA = {
    "space": {"dim": Opt("int", REQUIRED), "norm": Opt("word"),
              "l1-truncation": Opt("flag", False)},
    "lb": {"order": Opt("int", 2), "samples": Opt("int"), "declared": Opt("declared", "auto"),
           "region": Opt("ball")},
    "defaults": {"tol": Opt("positive", DEFAULT_TOL), "seed": Opt("int", 0),
                 "samples": Opt("int", 200), "safety": Opt("float", DEFAULT_SAFETY)},
    # a builtin parameter left out takes the catalog builder's default
    "builtin": {
        "heisenberg": _RADIUS, "heisenberg-full": _RADIUS, "grushin": _RADIUS,
        "commuting-constants": {"dim": Opt("int", REQUIRED), "span": Opt("int", REQUIRED),
                                **_RADIUS},
        "affine-l1": {**_SHAPE, "linear-part": Opt("flag")},
        "operator-family": {**_SHAPE, "matrix-term": Opt("matrix-term", REQUIRED)},
    },
    "command": {name: {**opts, **_EVERY_COMMAND} for name, opts in {
        "check-lb": {"order": Opt("int"), "samples": Opt("int"),
                     "force-sampled": Opt("flag", False)},
        "flow": {**_POINT, "t0": Opt("float", 0.0), "duration": Opt("float", 1.0),
                 "piece": Opt("piece", REQUIRED), "variational": Opt("flag", False)},
        "compose": {**_COMPOSE, "curve-samples": Opt("int", 0), "out": Opt("word")},
        "invert": _COMPOSE,
        "slice": {**_POINT, "rho": Opt("positive", 0.1), "grid": Opt("int", 5),
                  "axes": Opt("indices", (0,)), "out": Opt("word")},
        "bracket-chain": {**_POINT, "k-max": Opt("int", 3)},
        "certify-hprime": {"grid": Opt("int", 5), "tolerance": Opt("float", 1e-8)},
        "orbit-sample": {**_POINT, "budget": Opt("int", 1000), "max-word-len": Opt("int", 8),
                         "mode": Opt("word", "explore", ("explore", "independent")),
                         "exploration-radius": Opt("float"),
                         "spot-check": Opt("flag", False), "out": Opt("word")},
        "verdict": {**_POINT, "k-max": Opt("int", 3)},
    }.items()},
}


def read_options(node: Node | None, table: dict[str, Opt], space: ChartSpace | None = None,
                 members: int = 0) -> dict:
    """The typed value of every option of ``table`` in section ``node``
    (``None``: an absent section).  Points have ``space``'s dimension and
    indices name one of ``members`` family members.  Raises
    :class:`ParseError` for an unknown or repeated key, a missing or extra
    value, a value of the wrong kind, a word outside the option's words or a
    missing required option."""
    where = " ".join([node.key, *node.args]) if node else ""
    given: dict[str, list[Node]] = {}
    for c in (node.children or []) if node else []:
        opt = table.get(c.key)
        if opt is None:
            raise ParseError(f"unknown option '{c.key}' in '{where}'")
        if c.key in given and opt.kind not in _REPEATED:
            raise ParseError(f"'{c.key}' given twice in '{where}'")
        if (c.children is not None) != (opt.kind == "ball"):
            raise ParseError(f"'{c.key}' in '{where}' "
                             + ("must open a section" if opt.kind == "ball" else "takes no section"))
        if not c.args and opt.kind != "ball":
            raise ParseError(f"'{c.key}' in '{where}' needs a value")
        given.setdefault(c.key, []).append(c)
    out = {}
    for key, opt in table.items():
        vals = [_KINDS[opt.kind](n, space, members) for n in given.get(key, [])]
        for v in vals:
            if opt.words and v not in opt.words:
                raise ParseError(f"'{key}' in '{where}' takes {' or '.join(opt.words)}, not '{v}'")
        if not vals and opt.default is REQUIRED:
            raise ParseError(f"'{where}' needs '{key}'")
        out[key] = vals if opt.kind in _REPEATED else vals[0] if vals else opt.default
    return out


def read_command(cmd: Node, family: FieldFamily) -> dict:
    """The typed options of one command over ``family``."""
    return read_options(cmd, SCHEMA["command"][cmd.args[0]], family.space, len(family.members))


@dataclass
class Scenario:
    """A validated scenario: the canonical tree, its family and typed accessors."""

    tree: list[Node]
    family: FieldFamily | None = field(default=None, repr=False)

    def emit(self) -> str:
        return emit_tree(self.tree) + "\n"

    # -- sections ----------------------------------------------------------
    def _section(self, key: str) -> Node | None:
        for n in self.tree:
            if n.key == key:
                return n
        return None

    def defaults(self) -> dict:
        return read_options(self._section("defaults"), SCHEMA["defaults"])

    def build_family(self) -> FieldFamily:
        fam_sec = self._section("family")
        if fam_sec is None:
            raise ParseError("scenario needs a 'family' section")
        space_sec = self._section("space")
        declared_space = None
        if space_sec is not None:
            s = read_options(space_sec, SCHEMA["space"])
            declared_space = _built(ChartSpace, s["dim"], norm_kind=s["norm"],
                                    truncation_of_l1=s["l1-truncation"])

        for c in fam_sec.children or []:
            if c.key not in ("builtin", "poly", "domain"):
                raise ParseError(f"unknown family entry '{c.key}'")
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
        if name not in SCHEMA["builtin"]:
            raise UnknownBuiltin(f"no builtin named {name!r}")
        params = {k.replace("-", "_"): v for k, v in read_options(
            node, SCHEMA["builtin"][name]).items() if v is not None}
        if "matrix_term" in params:  # the builder's keyword is plural
            params["matrix_terms"] = params.pop("matrix_term")
        return _built(build, name, **params)

    def _build_poly(self, polys: list[Node], fam_sec: Node,
                    declared_space: ChartSpace | None) -> FieldFamily:
        if declared_space is None:
            raise ParseError("polynomial families need a 'space' section")
        dim = declared_space.dimension
        dom_sec = fam_sec.child("domain")
        if dom_sec is None:
            raise ParseError("polynomial families need a 'domain' section")
        dom = _ball(dom_sec, declared_space)

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
                ci = _integer(_floats(c, 1)[0], c.key)
                if not 0 <= ci < dim:
                    raise DimensionMismatch(f"component index {ci} out of range")
                for t in c.children or []:
                    if t.key != "term":
                        raise ParseError(f"unknown component entry '{t.key}'")
                    vals = _floats(t)
                    if not vals:
                        raise ParseError("'term' needs a coefficient")
                    comps[ci].append((vals[0], tuple(vals[1:])))
            # polynomial_field checks each term's exponents
            members.append(_built(polynomial_field, dom, comps, label=label))
        return FieldFamily(space=declared_space, members=tuple(members), common_domain=dom)

    def lb_params(self) -> dict:
        """The ``lb`` section; its ``region`` is a ball of the family's chart
        that lies in the family's domain."""
        p = read_options(self._section("lb"), SCHEMA["lb"], self.family.space)
        if p["region"] is not None and not self.family.common_domain.contains_ball(p["region"]):
            raise ParseError("lb region not contained in the family's common domain")
        return p

    def commands(self) -> list[Node]:
        cmds = [n for n in self.tree if n.key == "command"]
        for c in cmds:
            if len(c.args) != 1 or c.args[0] not in SCHEMA["command"]:
                raise ParseError(f"unknown command '{' '.join(c.args) or '?'}'")
        return cmds


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text and build its family.  Commands are
    checked by name here and by :func:`read_command` for their options."""
    tree = parse_tree(text)
    sc = Scenario(tree=tree)
    for n in tree:
        if n.key not in ("version", "space", "family", "lb", "defaults", "command"):
            raise ParseError(f"unknown top-level entry '{n.key}'")
    ver = sc._section("version")
    if ver is not None and ver.args and ver.args[0] != FORMAT_VERSION:
        raise ParseError(f"unsupported format version {ver.args[0]!r}")
    sc.defaults()
    sc.family = sc.build_family()
    sc.lb_params()
    sc.commands()
    return sc
