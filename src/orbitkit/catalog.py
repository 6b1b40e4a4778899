"""Builtin example systems.

Every acceptance-style check in the test suite references only these
builders.  Each returns a :class:`FieldFamily` over an appropriate chart;
where a sharp analytic jet bound is available for the default norm it is
attached as a declared bound (dropped automatically if the caller overrides
the norm, since the closed forms below are norm-specific).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgument, UnknownBuiltin
from .fields import (FieldFamily, MonomialTable, VectorField, _exponents, constant_field,
                     polynomial_field)
from .space import ChartSpace, ball, integer


def heisenberg(radius: float = 8.0, norm_kind: str | None = None) -> FieldFamily:
    """Two polynomial fields on R^3 whose bracket restores the third axis:
    X1 = (1,0,0), X2 = (0,1,x)."""
    space = ChartSpace(3, norm_kind=norm_kind)
    dom = ball([0.0, 0.0, 0.0], radius, space.norm_kind)
    x1 = polynomial_field(dom, [((1.0, (0, 0, 0)),), (), ()], label="X1")
    x2 = polynomial_field(dom, [(), ((1.0, (0, 0, 0)),), ((1.0, (1, 0, 0)),)], label="X2")
    declared = None
    if space.norm_kind == "euclidean":
        v = math.sqrt(1.0 + radius * radius)
        declared = {0: v, 1: v + 1.0, 2: v + 1.0, 3: v + 1.0}
    return FieldFamily(space=space, members=(x1, x2), common_domain=dom, declared_lb=declared)


def heisenberg_full(radius: float = 8.0, norm_kind: str | None = None) -> FieldFamily:
    """Heisenberg pair extended with the vertical field X3 = (0,0,1)."""
    base = heisenberg(radius, norm_kind)
    x3 = constant_field(base.common_domain, [0.0, 0.0, 1.0], label="X3")
    declared = None
    if base.declared_lb is not None:
        declared = dict(base.declared_lb)  # X3 has unit jets, bound unchanged
    return FieldFamily(space=base.space, members=base.members + (x3,),
                       common_domain=base.common_domain, declared_lb=declared)


def grushin(radius: float = 4.0, norm_kind: str | None = None) -> FieldFamily:
    """X1 = (1,0), X2 = (0,x) on R^2; X2 degenerates on the x=0 line."""
    space = ChartSpace(2, norm_kind=norm_kind)
    dom = ball([0.0, 0.0], radius, space.norm_kind)
    x1 = polynomial_field(dom, [((1.0, (0, 0)),), ()], label="X1")
    x2 = polynomial_field(dom, [(), ((1.0, (1, 0)),)], label="X2")
    declared = None
    if space.norm_kind == "euclidean":
        declared = {0: max(1.0, radius), 1: radius + 1.0, 2: radius + 1.0, 3: radius + 1.0}
    return FieldFamily(space=space, members=(x1, x2), common_domain=dom, declared_lb=declared)


def commuting_constants(dim: int, span: int, radius: float = 4.0,
                        norm_kind: str | None = None) -> FieldFamily:
    """Constant canonical fields e_1..e_span on R^dim; all brackets vanish."""
    space = ChartSpace(dim, norm_kind=norm_kind)
    if integer(span, "span", 1) > dim:
        raise InvalidArgument("span must be between 1 and dim")
    dom = ball(np.zeros(dim), radius, space.norm_kind)
    members = []
    for i in range(span):
        e = np.zeros(dim)
        e[i] = 1.0
        members.append(constant_field(dom, e, label=f"E{i + 1}"))
    return FieldFamily(space=space, members=tuple(members), common_domain=dom,
                       declared_lb={0: 1.0, 1: 1.0, 2: 1.0, 3: 1.0})


def affine_l1(dim: int, count: int, decay: float = 0.5, linear_part: bool = False,
              radius: float = 4.0) -> FieldFamily:
    """Family X_a(x) = [x +] a_a on a truncated summable-sequence chart.

    Directions are a_a = decay^a e_a.  With ``linear_part`` off (the default)
    the members are constant, hence commuting, which is the regime whose
    compositions have an exact closed form.  The family can be re-truncated
    through its factory, which is what the approximate-controllability
    heuristic drives.
    """
    space = ChartSpace(dim, truncation_of_l1=True)
    if integer(count, "count", 1) > dim:
        raise InvalidArgument("count must be between 1 and dim")
    if not math.isfinite(decay):
        raise InvalidArgument("decay must be finite")
    dom = ball(np.zeros(dim), radius, space.norm_kind)
    members = []
    amax = 0.0
    for a in range(count):
        direction = np.zeros(dim)
        direction[a] = decay ** a
        amax = max(amax, float(np.sum(np.abs(direction))))
        # a constant row d and, with the linear part, the identity on the
        # degree-1 monomials: x + d
        linear = np.eye(dim)[:dim if linear_part else 0]
        table = MonomialTable.from_rows(np.vstack([np.zeros(dim), linear]),
                                        np.vstack([direction, linear]))
        members.append(VectorField(domain=dom, eval_fn=table, label=f"A{a}", table=table))
    if linear_part:
        declared = {s: radius + amax + (1.0 if s >= 1 else 0.0) for s in range(4)}
    else:
        declared = {s: amax for s in range(4)}

    def factory(n: int):
        return affine_l1(dim, n, decay, linear_part, radius)

    return FieldFamily(space=space, members=tuple(members), common_domain=dom,
                       declared_lb=declared, truncation_factory=factory)


def operator_family(dim: int, count: int,
                    matrix_terms: list[tuple[float, tuple[int, ...], int, int]],
                    decay: float = 0.5, radius: float = 4.0) -> FieldFamily:
    """Family X_a(x) = Phi_x(a_a) for a polynomial operator-valued map Phi.

    ``matrix_terms`` lists ``(coeff, exponents, row, col)`` monomial entries
    of the dim-by-dim matrix Phi_x, with one non-negative integer exponent
    per coordinate; directions are a_a = decay^a e_a.  Jet bounds are
    sampled, not declared.
    """
    space = ChartSpace(dim)
    if integer(count, "count", 1) > dim:
        raise InvalidArgument("count must be between 1 and dim")
    if not math.isfinite(decay):
        raise InvalidArgument("decay must be finite")
    dom = ball(np.zeros(dim), radius, space.norm_kind)
    terms = [(float(c), _exponents(exps, dim), integer(r, "matrix-term row"),
              integer(col, "matrix-term column")) for c, exps, r, col in matrix_terms]
    if any(not (0 <= r < dim and 0 <= col < dim) for _, _, r, col in terms):
        raise InvalidArgument(f"matrix-term row and column must lie in 0..{dim - 1}")

    members = []
    for a in range(count):
        vec = np.zeros(dim)
        vec[a] = decay ** a
        # X_a components as monomial tables: row r picks up c * x^exps * vec[col]
        comp: list[list[tuple[float, tuple[int, ...]]]] = [[] for _ in range(dim)]
        for c, exps, r, col in terms:
            w = c * vec[col]
            if w != 0.0:
                comp[r].append((w, exps))
        members.append(polynomial_field(dom, comp, label=f"P{a}"))

    def factory(n: int):
        return operator_family(dim, n, matrix_terms, decay, radius)

    return FieldFamily(space=space, members=tuple(members), common_domain=dom,
                       truncation_factory=factory)


BUILTINS = {
    "heisenberg": heisenberg,
    "heisenberg-full": heisenberg_full,
    "grushin": grushin,
    "commuting-constants": commuting_constants,
    "affine-l1": affine_l1,
    "operator-family": operator_family,
}

BUILTIN_SUMMARIES = {
    "heisenberg": "R^3 pair (1,0,0), (0,1,x); bracket spans the vertical axis",
    "heisenberg-full": "heisenberg plus the vertical field (0,0,1)",
    "grushin": "R^2 pair (1,0), (0,x); rank drops on the x=0 line",
    "commuting-constants": "constant canonical fields e_1..e_span on R^dim",
    "affine-l1": "X_a(x) = [x +] decay^a e_a on a truncated l1 chart",
    "operator-family": "X_a(x) = Phi_x(a_a) for a polynomial matrix map Phi",
}


def build(name: str, **params) -> FieldFamily:
    try:
        builder = BUILTINS[name]
    except KeyError:
        raise UnknownBuiltin(f"no builtin named {name!r}") from None
    return builder(**params)
