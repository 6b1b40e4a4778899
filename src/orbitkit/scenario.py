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

``SCHEMA`` is the one table of options: it maps the ``space``, ``family``,
``lb`` and ``defaults`` sections, each builtin's parameters and each command
to its options, each an :class:`Opt` with a kind and a default.
:func:`read_options` applies a table to a section and returns the typed
values, reading a nested section (a ball, a builtin, a ``poly`` field and
its components) through its own table; anything the table does not accept
is a :class:`ParseError`.  :func:`parse_scenario` reads every
section and builds the family once (``Scenario.family``).  Commands are read
by :func:`read_command`: ``orbitkit check`` reads them all up front, and
``orbitkit run`` reads each as it runs it, so that a bad command gets its
own error report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import PurePath

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
    if not all(math.isfinite(v) for v in vals):
        raise ParseError(f"'{node.key}' takes finite numbers")
    if count is not None and len(vals) != count:
        raise ParseError(f"'{node.key}' takes {count} number(s)")
    return vals


def _integer(v: float, key: str, members: int | None = None) -> int:
    """``v`` as an integer; given ``members``, as the index of a family member."""
    if not v.is_integer():
        raise ParseError(f"'{key}' takes integers")
    if members is not None and not 0 <= v < members:
        raise ParseError(f"'{key}' index {int(v)} names no family member")
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


def _file(n: Node, *_) -> str:
    """A plain file name, such as a command's ``out``: no directory part."""
    name = _word(n)
    if PurePath(name).name != name or name in (".", ".."):
        raise ParseError(f"'{n.key}' takes a file name without a directory, not '{name}'")
    return name


def _flag(n: Node, *_) -> bool:
    if _word(n) not in ("on", "off"):
        raise ParseError(f"'{n.key}' takes on or off")
    return n.args[0] == "on"


def _declared(n: Node, *_) -> str | float:
    """``auto``, ``off`` or a number: the lb section's ``declared``."""
    word = _word(n)
    return word if word in ("auto", "off") else _floats(n, 1)[0]


def _dimension(n: Node, space: ChartSpace | None) -> int:
    """The chart dimension that entry ``n`` is read in."""
    if space is None:
        raise ParseError(f"'{n.key}' needs a 'space' section")
    return space.dimension


def _point(n: Node, space: ChartSpace | None, _members) -> np.ndarray:
    vals = _floats(n)
    if len(vals) != _dimension(n, space):
        raise DimensionMismatch(f"'{n.key}' needs {space.dimension} coordinates")
    return np.array(vals)


def _indices(n: Node, _space, members: int) -> tuple[int, ...]:
    indices = tuple(_integer(v, n.key, members) for v in _floats(n))
    if len(set(indices)) < len(indices):
        raise ParseError(f"'{n.key}' repeats an index")
    return indices


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


def _ball(n: Node, space: ChartSpace | None, _members) -> Ball:
    """A ``center``/``radius`` section as a ball of the chart norm."""
    p = read_options(n, _BALL, space)
    return _built(ball, p["center"], p["radius"], space.norm_kind)


def _builtin(n: Node, *_) -> FieldFamily:
    """A ``builtin <name>`` section as the builtin family, built from its
    parameters (``SCHEMA["builtin"][name]``)."""
    name = _word(n)
    if name not in SCHEMA["builtin"]:
        raise UnknownBuiltin(f"no builtin named {name!r}")
    params = {k.replace("-", "_"): v for k, v in read_options(
        n, SCHEMA["builtin"][name]).items() if v is not None}
    if "matrix_term" in params:  # the builder's keyword is plural
        params["matrix_terms"] = params.pop("matrix_term")
    return _built(build, name, **params)


def _poly(n: Node, space: ChartSpace | None, _members) -> tuple[str, list]:
    """A ``poly <label>`` section as its label and, per chart coordinate,
    the ``(coefficient, exponents)`` terms of that component."""
    label = _word(n)
    components: list[list] = [[] for _ in range(_dimension(n, space))]
    for i, terms in read_options(n, _POLY, space)["component"]:
        components[i] += terms
    return label, components


def _component(n: Node, space: ChartSpace, _members) -> tuple[int, list]:
    """A ``component <i>`` section as its index and its ``(coefficient,
    exponents)`` terms; :func:`polynomial_field` checks the exponents."""
    i = _integer(_floats(n, 1)[0], n.key)
    if not 0 <= i < space.dimension:
        raise DimensionMismatch(f"component index {i} out of range")
    return i, [(v[0], v[1:]) for v in read_options(n, _COMPONENT)["term"]]


_KINDS = {
    "float": lambda n, *_: _floats(n, 1)[0],
    "positive": lambda n, *_: positive_float(_word(n), n.key),
    "int": lambda n, *_: _integer(_floats(n, 1)[0], n.key),
    "word": _word, "file": _file, "flag": _flag, "declared": _declared, "point": _point,
    "indices": _indices, "entry": _entry, "piece": _piece, "matrix-term": _matrix_term,
    "term": lambda n, *_: _floats(n), "ball": _ball, "builtin": _builtin, "poly": _poly, "component": _component,
}
_REPEATED = ("entry", "piece", "matrix-term", "term", "poly", "component")
_SECTIONS = ("ball", "builtin", "poly", "component")  # the kinds that open a section
_BALL = {"center": Opt("point", REQUIRED), "radius": Opt("float", REQUIRED)}
_POLY = {"component": Opt("component")}
_COMPONENT = {"term": Opt("term")}

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
    # one builtin, or poly fields on a domain over the space section's chart
    "family": {"builtin": Opt("builtin"), "domain": Opt("ball"), "poly": Opt("poly")},
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
        "compose": {**_COMPOSE, "curve-samples": Opt("int", 0), "out": Opt("file")},
        "invert": _COMPOSE,
        "slice": {**_POINT, "rho": Opt("positive", 0.1), "grid": Opt("int", 5),
                  "axes": Opt("indices", (0,)), "out": Opt("file")},
        "bracket-chain": {**_POINT, "k-max": Opt("int", 3)},
        "certify-hprime": {"grid": Opt("int", 5), "tolerance": Opt("float", 1e-8)},
        "orbit-sample": {**_POINT, "budget": Opt("int", 1000), "max-word-len": Opt("int", 8),
                         "mode": Opt("word", "explore", ("explore", "independent")),
                         "exploration-radius": Opt("positive"),
                         "spot-check": Opt("flag", False), "out": Opt("file")},
        "verdict": {**_POINT, "k-max": Opt("int", 3)},
    }.items()},
}


def read_options(node: Node | None, table: dict[str, Opt], space: ChartSpace | None = None,
                 members: int = 0) -> dict:
    """The typed value of every option of ``table`` in section ``node``
    (``None``: an absent section).  Points have ``space``'s dimension and
    indices name one of ``members`` family members.  Raises
    :class:`ParseError` for an unknown or repeated key, a missing or extra
    value, a value of the wrong kind, a word outside the option's words, a
    missing required option, or an option that opens a section where its
    kind is not one of ``_SECTIONS``, or the other way round."""
    where = " ".join([node.key, *node.args]) if node else ""
    given: dict[str, list[Node]] = {}
    for c in (node.children or []) if node else []:
        opt = table.get(c.key)
        if opt is None:
            raise ParseError(f"unknown option '{c.key}' in '{where}'")
        if c.key in given and opt.kind not in _REPEATED:
            raise ParseError(f"'{c.key}' given twice in '{where}'")
        if (c.children is not None) != (opt.kind in _SECTIONS):
            raise ParseError(f"'{c.key}' in '{where}' "
                             + ("must open a section" if opt.kind in _SECTIONS else "takes no section"))
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
        return Node("", children=self.tree).child(key)

    def defaults(self) -> dict:
        return read_options(self._section("defaults"), SCHEMA["defaults"])

    def build_family(self) -> FieldFamily:
        """The family of the ``family`` section, read through
        ``SCHEMA["family"]`` over the chart of the ``space`` section: one
        builtin, which takes no ``domain``, or ``poly`` fields with distinct
        labels on the ``domain`` ball, which need the ``space`` section."""
        fam_sec = self._section("family")
        if fam_sec is None:
            raise ParseError("scenario needs a 'family' section")
        space = None
        if (space_sec := self._section("space")) is not None:
            s = read_options(space_sec, SCHEMA["space"])
            space = _built(ChartSpace, s["dim"], norm_kind=s["norm"],
                           truncation_of_l1=s["l1-truncation"])
        f = read_options(fam_sec, SCHEMA["family"], space)
        family, polys, dom = f["builtin"], f["poly"], f["domain"]
        if family is not None and (polys or dom is not None):
            # a builtin's own 'radius' sets its domain
            raise ParseError("a 'builtin' family takes no 'poly' or 'domain' entry")
        if family is None:
            if not polys:
                raise ParseError("family needs a 'builtin' or 'poly' entry")
            if dom is None:
                raise ParseError("polynomial families need a 'domain' section")
            labels = [label for label, _ in polys]
            for i, label in enumerate(labels):
                if label in labels[:i]:
                    raise ParseError(f"duplicate field label '{label}'")
            family = FieldFamily(space=space, common_domain=dom, members=tuple(
                _built(polynomial_field, dom, comps, label=label) for label, comps in polys))
        if space is not None and space.dimension != family.space.dimension:
            raise DimensionMismatch(
                f"space dim {space.dimension} != family dim {family.space.dimension}")
        return family

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
