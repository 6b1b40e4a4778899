"""Local vector fields, indexed families, and jet-bound estimation.

A :class:`VectorField` is an evaluable field on a ball-shaped domain.
Fields whose components are polynomials (:func:`polynomial_field`,
:func:`constant_field`, the affine builtins and exact brackets of such
fields) also carry a :class:`MonomialTable`, the one source of their exact
derivatives of every order (their per-point Jacobian included), exact Lie
brackets, and their values at one point or many; every other field is
differentiated by finite differences, whose shifted points go through one
``eval_many`` per derivative, and along a single vector by
:func:`finite_difference_jvp`.  A :class:`FieldFamily` is an ordered,
indexed collection sharing a common domain.  :func:`eval_jet_norm` measures
the size of a field's jet up to order 3, at a point or over a block of
points, and
:func:`estimate_lb_bound` turns a sampled (or declared) supremum of jet
norms over a region into an :class:`LbRecord`, the bound record that powers
every existence-radius guard downstream.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgument, OrderTooHigh, OutOfDomain
from .space import Ball, ChartSpace, _row_norms, max_operator_norm, member_index, operator_norm

# Finite-difference steps per derivative order (relative, scaled by 1+|x|):
# standard truncation/round-off balance for first, second, third order.
FD_STEP_1 = 1e-5
FD_STEP_2 = 1e-3
FD_STEP_3 = 1e-2

DEFAULT_SAFETY = 1.25
MIN_UNIT_TUPLES = 64

MAX_JET_ORDER = 3
# Entries of one contraction stack of :func:`eval_jet_norm` (512 KiB), a
# bound on its memory: :func:`estimate_lb_bound` sizes its point blocks by it.
JET_STACK_ENTRIES = 2 ** 16


@dataclass(frozen=True, eq=False)
class MonomialTable:
    """A polynomial map compiled to monomial rows.

    Row t is the monomial ``x ** exponents[t]`` (non-negative integer powers,
    one per coordinate; ``exponents`` is ``(T, d)``) with coefficient
    ``coefficients[t]``: one entry per component for a vector field, and one
    more trailing axis per derivative taken, indexed by the coordinate
    differentiated.  Rows have distinct exponents and none is all zero, so
    the zero map has no rows.
    """

    exponents: np.ndarray
    coefficients: np.ndarray

    @classmethod
    def from_rows(cls, exponents, coefficients) -> "MonomialTable":
        """The table of the sum of the given rows: rows with equal exponents
        are added, and rows that add up to zero are dropped."""
        coefficients = np.asarray(coefficients, dtype=float)
        exponents, _, order, starts = _distinct_rows(exponents)
        coefficients = np.add.reduceat(coefficients[order], starts, axis=0)  # each run summed
        keep = coefficients.reshape(len(coefficients), math.prod(coefficients.shape[1:])).any(axis=1)
        return cls(exponents[keep], coefficients[keep])

    def monomials(self, points: np.ndarray) -> np.ndarray:
        """The monomials at the rows of ``points`` (N, d), shape (N, T).

        Each monomial is the product of the coordinates its nonzero
        exponents name, gathered in coordinate order and raised to a power
        only where the exponent exceeds 1; padding factors are exact ones.
        These are the factors of ``prod(x ** exponents)`` in its order,
        without the ones of the zero exponents."""
        index, raised, powers = self._support
        points = np.asarray(points, dtype=float)
        padded = np.empty((len(points), points.shape[1] + 1))
        padded[:, :-1] = points
        padded[:, -1] = 1.0
        factors = padded[:, index]
        if raised is not None:
            factors[:, raised] **= powers
        return factors if index.ndim == 1 else factors.prod(axis=2)

    def monomials_at(self, x: np.ndarray) -> np.ndarray:
        """The monomials at one point x (d,), shape (T,), as in
        :meth:`monomials` but faster than a one-row batch: on a 2-core Xeon,
        2.6 us per call against 7.0 us, and a 36-piece variational
        :func:`~orbitkit.flow.flow_control` of a quadratic pair, which the
        stepper integrates, took 4.0 ms against 6.0 ms through
        :meth:`monomials` (best of 5, five alternating rounds)."""
        index, raised, powers = self._support
        padded = np.empty(len(x) + 1)
        padded[:-1] = x
        padded[-1] = 1.0
        factors = padded[index]
        if raised is not None:
            factors[raised] **= powers
        return factors if index.ndim == 1 else factors.prod(axis=1)

    @cached_property
    def _support(self) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
        """Per monomial, the coordinates of its nonzero exponents in order,
        padded with d (a column of ones): ``(T, w)``, or ``(T,)`` when no
        monomial has two; where those exponents exceed 1 (``None``
        nowhere), and the exponents there."""
        exponents = self.exponents
        used = exponents > 0
        width = max(1, int(used.sum(axis=1).max(initial=0)))
        # a stable sort puts each row's nonzero coordinates first, in order
        cols = np.argsort(~used, axis=1, kind="stable")[:, :width]
        rows = np.arange(len(exponents))[:, None]
        used = used[rows, cols]
        powers = np.where(used, exponents[rows, cols], 1)
        index = np.where(used, cols, exponents.shape[1])
        if width == 1:
            index, powers = index[:, 0], powers[:, 0]
        raised = powers > 1
        return index, raised if raised.any() else None, powers[raised]

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of ``points`` (N, d), in one batched evaluation:
        shape ``(N,) + coefficients.shape[1:]``."""
        points = np.asarray(points, dtype=float)
        return (self.monomials(points) @ self.flat).reshape(
            (len(points),) + self.coefficients.shape[1:])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """The value at one point x (d,), shape ``coefficients.shape[1:]``:
        the monomials at x, then one product with the flat coefficients."""
        values = self.monomials_at(x).dot(self.flat)
        shape = self.coefficients.shape
        return values if len(shape) == 2 else values.reshape(shape[1:])

    @cached_property
    def flat(self) -> np.ndarray:
        """The coefficients as a (T, K) matrix."""
        return self.coefficients.reshape(len(self.coefficients),
                                         math.prod(self.coefficients.shape[1:]))

    @cached_property
    def derivative(self) -> "MonomialTable":
        """The exact derivative: coefficients gain a trailing axis j holding
        the partial derivative along coordinate j.  Row t lands on exponent
        ``exponents[t] - e_j`` at axis j, a slot no other row fills, so the
        rows are grouped by exponent and scattered into the output alone."""
        d = self.exponents.shape[1]
        t, j = np.nonzero(self.exponents)  # monomial t has a positive power of x_j
        exponents, row, _, _ = _distinct_rows(self.exponents[t] - np.eye(d, dtype=np.int64)[j])
        shape = self.coefficients.shape[1:]
        coeffs = np.zeros((len(exponents),) + shape + (d,))
        coeffs[row, ..., j] = (self.coefficients[t] * self.exponents[t, j]
                               .reshape((-1,) + (1,) * len(shape)))
        return MonomialTable(exponents, coeffs)

    @cached_property
    def _by_member(self) -> np.ndarray:
        """The coefficients of a merged table (:func:`_merge_tables`) or of
        its derivatives as one member-major matrix (m, T*K)."""
        return np.moveaxis(self.coefficients, 1, 0).reshape(self.coefficients.shape[1], -1)

    def weighted(self, weights: np.ndarray) -> np.ndarray:
        """For a merged table (:func:`_merge_tables`) or its derivatives,
        coefficients ``(T, m, ...)``: the flat coefficients (T, K) of
        ``sum_a w_a`` member a for weights (m,), or one such matrix per row
        of weights (N, m), (N, T, K), from one product with the member-major
        coefficients."""
        return (weights @ self._by_member).reshape(
            np.shape(weights)[:-1] + (len(self.exponents), math.prod(self.coefficients.shape[2:])))

    @cached_property
    def degree(self) -> int:
        """The largest total degree of a monomial (0 for constants or no rows)."""
        return int(self.exponents.sum(axis=1).max(initial=0))

    @cached_property
    def _augmented_layout(self) -> np.ndarray:
        """For a vector-field table of degree at most 1: the top rows
        ``[A, b]`` (d, d+1) of its field ``A x + b``, or of each member of a
        merged table, member-major (m, d*(d+1)).  Row t lands in the column
        of its one coordinate, or in column d when it is the constant."""
        exponents = self.exponents
        place = np.column_stack([exponents, 1 - exponents.sum(axis=1)]).astype(float)
        if self.coefficients.ndim == 2:
            return self.coefficients.T @ place
        return np.einsum("tad,tc->adc", self.coefficients, place).reshape(
            self.coefficients.shape[1], -1)

    def augmented(self, weights: np.ndarray | None = None) -> np.ndarray:
        """The top rows ``[A, b]`` of the augmented matrix ``[[A, b], [0,
        0]]`` of an affine field ``A x + b`` (:attr:`degree` at most 1): of
        this table's own field for ``weights`` None, (d, d+1), or, for a
        merged table (:func:`_merge_tables`), of ``sum_a w_a`` member a for
        weights (m,) or (..., m), (..., d, d+1), from one product."""
        if weights is None:
            return self._augmented_layout
        d = self.exponents.shape[1]
        return (weights @ self._augmented_layout).reshape(np.shape(weights)[:-1] + (d, d + 1))

    def bracket(self, other: "MonomialTable") -> "MonomialTable":
        """The table of the Lie bracket [self, other] = D(other) self - D(self) other."""
        return MonomialTable.from_rows(*self.bracket_rows(other))

    def bracket_rows(self, other: "MonomialTable") -> tuple[np.ndarray, np.ndarray]:
        """The exponent and coefficient rows that sum to the bracket, before
        :meth:`from_rows` merges them (exponents may repeat)."""
        e1, c1 = _apply(other.derivative, self)
        e2, c2 = _apply(self.derivative, other)
        return np.concatenate([e1, e2]), np.concatenate([c1, -c2])


def _apply(jac: MonomialTable, vec: MonomialTable) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the product of a matrix-valued table and a vector field table,
    one per pair of their rows (not yet merged)."""
    a, b, d = len(jac.exponents), len(vec.exponents), vec.exponents.shape[1]
    exps = (jac.exponents[:, None, :] + vec.exponents[None, :, :]).reshape(-1, d)
    # coeffs[a, b, i] = sum_j jac[a, i, j] vec[b, j]
    coeffs = jac.coefficients.reshape(a * d, d) @ vec.coefficients.T
    return exps, coeffs.reshape(a, d, b).transpose(0, 2, 1).reshape(-1, d)


def _row_keys(exponents: np.ndarray) -> np.ndarray:
    """One key per row of the integer exponents (n, d): the row's bytes as
    int64, so that equal rows have equal keys, and keys sort as bytes."""
    exponents = np.ascontiguousarray(exponents, dtype=np.int64)
    return exponents.view(np.dtype((np.void, 8 * exponents.shape[1]))).ravel()


def _distinct_rows(exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                                    np.ndarray]:
    """The distinct rows of ``exponents`` (n, d) in the order of their keys
    (:func:`_row_keys`), the position of each input row among them, the
    stable order of the input rows by key, in which the input rows of each
    distinct row are one run in input order, and where each run starts."""
    exponents = np.ascontiguousarray(exponents, dtype=np.int64)
    order = np.argsort(_row_keys(exponents), kind="stable")
    ordered = exponents[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ordered[1:] != ordered[:-1], axis=1)
    row = np.empty(len(order), dtype=np.int64)
    row[order] = np.cumsum(first) - 1
    return ordered[first], row, order, np.flatnonzero(first)


def _merge_tables(tables: Sequence[MonomialTable]) -> MonomialTable:
    """Tables of one coefficient shape merged on one monomial list with a
    member axis: coefficients ``(T, m) + shape``, member a's rows in column
    a and zeros elsewhere.  They are stored member-major, so that
    :meth:`MonomialTable.weighted` forms a weighted sum of the members with
    one product."""
    exponents, row, _, _ = _distinct_rows(np.concatenate([t.exponents for t in tables]))
    member = np.repeat(np.arange(len(tables)), [len(t.exponents) for t in tables])
    coefficients = np.zeros((len(tables), len(exponents)) + tables[0].coefficients.shape[1:])
    # a table's rows have distinct exponents, so no slot is filled twice
    coefficients[member, row] = np.concatenate([t.coefficients for t in tables])
    return MonomialTable(exponents, coefficients.swapaxes(0, 1))


@dataclass(frozen=True)
class VectorField:
    """An evaluable local vector field on a chart.

    ``eval_fn`` maps a point (1-d array) to a vector of the same dimension.
    Evaluation must be pure.  ``table``, when present, is the field as a
    :class:`MonomialTable`, the one source of its derivatives and of its
    batched values; a polynomial field's ``eval_fn`` is the table itself.  A
    field without a table is differentiated by central finite differences.
    """

    domain: Ball
    eval_fn: Callable[[np.ndarray], np.ndarray]
    label: str = "X"
    table: MonomialTable | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=float)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of ``points`` (N, d): one batched table
        evaluation for a tabled field, one call per point otherwise."""
        points = np.asarray(points, dtype=float)
        if self.table is not None:
            return self.table.eval_many(points)
        return np.array([self(x) for x in points]).reshape(points.shape)

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """The exact Jacobian of a tabled field, from its table's
        derivative; else central differences."""
        x = np.asarray(x, dtype=float)
        if self.table is not None:
            return self.table.derivative(x)
        return finite_difference_jacobian(self, x)


def finite_difference_jacobian(field: VectorField, x: np.ndarray) -> np.ndarray:
    """The Jacobian at x by central differences along the axes, its 2d
    shifted points evaluated in one ``eval_many``."""
    x = np.asarray(x, dtype=float)
    h = FD_STEP_1 * (1.0 + float(np.linalg.norm(x)))
    return _central_differences(field.eval_many, x, [(h,)])[0]


def finite_difference_jvp(field: VectorField, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``DX(x) v`` by one central difference along v: two evaluations, where
    a finite-difference Jacobian takes 2d.  The step is ``FD_STEP_1`` scaled
    by 1+|x|, taken along the unit vector of v; a zero v gives zero.  Rows of
    2-D ``x`` and ``v`` are separate points, all evaluated in one
    ``eval_many``; a single point is the one-row case."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.ndim == 1:
        return finite_difference_jvp(field, x[None], v[None])[0]
    nv = _row_norms(v, "euclidean")[:, None]
    h = FD_STEP_1 * (1.0 + _row_norms(x, "euclidean"))[:, None]
    shift = h * np.divide(v, nv, out=np.zeros_like(v), where=nv > 0.0)
    values = field.eval_many(np.concatenate([x + shift, x - shift]))
    return nv * (values[:len(x)] - values[len(x):]) / (2.0 * h)


def _central_differences(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                         step_sets: Sequence[tuple[float, ...]]) -> list[np.ndarray]:
    """Nested central differences of ``fn`` at x, one array per tuple of
    steps.  A tuple ``(h1, h2, ...)`` differences along every axis j with
    step h1, the result along every axis k with step h2, and so on; each
    level adds a trailing axis indexed by the coordinate differentiated.
    ``fn`` maps a stack of points ``(N, d)`` to their values, and every
    shifted point of every tuple goes through one call of it."""
    d = x.size
    signs = np.stack([np.eye(d), -np.eye(d)], axis=1).reshape(2 * d, d)  # +e_0, -e_0, +e_1, ...
    stencils = []
    for steps in step_sets:
        points = x
        for h in reversed(steps):  # the outermost shift is added first
            points = points[..., None, :] + h * signs
        stencils.append(points.reshape(-1, d))
    values = fn(np.concatenate(stencils) if len(stencils) > 1 else stencils[0])
    tail = values.shape[1:]
    out, start = [], 0
    for steps, points in zip(step_sets, stencils):
        f = values[start:start + len(points)]
        start += len(points)
        for i, h in enumerate(steps):
            # the innermost remaining level is the last stencil axis: split
            # it into (axis, sign), difference the signs, and move the axis
            # behind the value's axes
            f = f.reshape(-1, d, 2, f[0].size)
            f = ((f[:, :, 0] - f[:, :, 1]) / (2.0 * h)).swapaxes(1, 2)
        out.append(f.reshape(tail + (d,) * len(steps)))
    return out


def calculus(fields: Sequence[VectorField]) -> str:
    """``"exact"`` when every field carries a monomial table, so that its
    derivatives and brackets come from the tables; ``"finite-difference"``
    otherwise."""
    return "exact" if all(f.table is not None for f in fields) else "finite-difference"


def _exponents(exps, dim: int) -> tuple[int, ...]:
    exps = tuple(exps)
    if len(exps) != dim or not all(float(e).is_integer() and e >= 0 for e in exps):
        raise InvalidArgument(f"exponents {exps} are not {dim} non-negative integers")
    return tuple(int(e) for e in exps)


def polynomial_field(domain: Ball, components: Sequence[Sequence[tuple[float, tuple[int, ...]]]],
                     label: str = "X") -> VectorField:
    """Vector field whose components are given by monomial tables.

    ``components[i]`` lists ``(coefficient, exponents)`` terms of component
    ``i``, with ``exponents`` one non-negative integer power per coordinate
    (:class:`InvalidArgument` otherwise).  The terms compile to the field's
    :class:`MonomialTable`, which evaluates the field and gives its
    derivatives.
    """
    dim = len(components)
    rows = [(_exponents(exps, dim), float(c) * np.eye(dim)[i])
            for i, terms in enumerate(components) for c, exps in terms]
    exponents = np.array([e for e, _ in rows], dtype=np.int64).reshape(-1, dim)
    table = MonomialTable.from_rows(exponents, np.array([v for _, v in rows]).reshape(-1, dim))
    return VectorField(domain=domain, eval_fn=table, label=label, table=table)


def constant_field(domain: Ball, vector, label: str = "c") -> VectorField:
    v = np.asarray(vector, dtype=float)
    table = MonomialTable.from_rows(np.zeros((1, v.size)), v[None])
    return VectorField(domain=domain, eval_fn=table, label=label, table=table)


@dataclass(frozen=True)
class FieldFamily:
    """Ordered indexed family of vector fields with a common domain.

    ``declared_lb`` optionally maps a jet order to an analytic bound valid on
    the whole common domain; :func:`estimate_lb_bound` passes such bounds
    through instead of sampling.  ``truncation_factory``, when present, maps
    a member count to the corresponding truncation of a countable family.
    :attr:`table` merges the members' monomial tables on one monomial list,
    and :attr:`derivative_table` their derivatives, so that any weighted
    sum of the members, shared by a stack of rows or one per row, is one
    table evaluation.
    """

    space: ChartSpace
    members: tuple[VectorField, ...]
    common_domain: Ball
    declared_lb: dict[int, float] | None = None
    truncation_factory: Callable[[int], "FieldFamily"] | None = None

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("family needs at least one member")
        for m in self.members:
            if not m.domain.contains_ball(self.common_domain):
                raise ValueError(f"common domain not contained in domain of {m.label}")

    def __len__(self) -> int:
        return len(self.members)

    def __getitem__(self, i: int) -> VectorField:
        return self.members[i]

    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.members)

    def check_members(self, indices: Sequence[int]) -> None:
        """The one member-index rule: every index of a word, a control piece,
        a coefficient family or an axis list is an integer that names a
        member, ``0 <= i < len(self)``; :class:`InvalidArgument` otherwise."""
        for i in indices:
            member_index(i)
        low, high = min(indices, default=0), max(indices, default=0)
        if low < 0 or high >= len(self.members):
            raise InvalidArgument(f"index {low if low < 0 else high} has no family member "
                                  f"(the family has {len(self.members)})")

    @cached_property
    def table(self) -> MonomialTable | None:
        """The members' tables merged (:func:`_merge_tables`), coefficients
        ``(T, m, d)``, so that ``sum_a w_a X_a`` is one table evaluation
        against ``table.weighted(w)``; ``None`` when some member has no
        table.  Built on first use."""
        if any(m.table is None for m in self.members):
            return None
        return _merge_tables([m.table for m in self.members])

    @property
    def derivative_table(self) -> MonomialTable | None:
        """The derivative of :attr:`table`, which holds the members'
        derivatives merged the same way, coefficients ``(T', m, d, d)``;
        ``None`` with :attr:`table`."""
        return None if self.table is None else self.table.derivative


@dataclass(frozen=True)
class LbRecord:
    """A jet bound ``bound_k`` of order ``order_s`` valid on ``region``.

    ``method`` records provenance: ``"sampled"`` bounds come from a finite
    sample inflated by a safety factor, ``"declared"`` bounds were supplied
    analytically.  Numerical jets stop at order 3, so smoothness claims
    beyond C^1 for compositions are noted but not certified.
    """

    order_s: int
    bound_k: float
    region: Ball
    method: str = "sampled"

    def __post_init__(self):
        if self.order_s < 0:
            raise InvalidArgument("order must be >= 0")
        if not self.bound_k > 0:
            raise InvalidArgument("bound must be positive")
        if self.method not in ("sampled", "declared"):
            raise InvalidArgument("method must be 'sampled' or 'declared'")


def _directions(space: ChartSpace, random: np.ndarray) -> np.ndarray:
    """The random unit directions ``(..., count, d)``, each stack followed by
    +e_j and -e_j for every axis j."""
    eye = np.eye(space.dimension)
    # canonical directions sharpen the sampled maximum at no real cost
    canonical = np.stack([eye, -eye], axis=1).reshape(-1, space.dimension)
    return np.concatenate([random, np.broadcast_to(canonical, random.shape[:-2] + canonical.shape)],
                          axis=-2)


def _integer(value, what: str, lowest: int) -> int:
    """``value`` as an int, which it must be, at least ``lowest``: the one
    check of a count argument (a jet order, a sample count, a budget, a word
    length, a grid size)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < lowest:
        raise InvalidArgument(f"{what} must be an integer >= {lowest}, not {value!r}")
    return int(value)


def _jet_order(s) -> int:
    """The jet order s, checked: an integer from 0 to ``MAX_JET_ORDER``."""
    s = _integer(s, "jet order", 0)
    if s > MAX_JET_ORDER:
        raise OrderTooHigh(f"jet order {s} > {MAX_JET_ORDER}: jet norms are estimated up to "
                           f"order {MAX_JET_ORDER}")
    return s


def _paired(width: int) -> int:
    """How many of a point's ``width`` directions every direction is paired
    with at order 3: the first eighth of them, at least 4."""
    return max(4, width // 8)


def _block_size(space: ChartSpace, s: int, members: int) -> int:
    """Points per block of :func:`estimate_lb_bound`, at least one, such
    that the block's contraction stacks, and the random directions it draws
    for ``members`` fields, hold about ``JET_STACK_ENTRIES`` entries."""
    d = space.dimension
    if s < 2:
        return max(1, JET_STACK_ENTRIES // d ** (s + 1))
    width = MIN_UNIT_TUPLES + 2 * d  # directions per point
    stack = width * d * d * (1 if s == 2 else _paired(width))
    return max(1, JET_STACK_ENTRIES // max(stack, members * MIN_UNIT_TUPLES * d))


def _jet_tensors(field: VectorField, points: np.ndarray, s: int) -> list[np.ndarray]:
    """The value, Jacobian, D2 and D3 of the field at the rows of ``points``
    (P, d), up to order s: ``(P, d)``, ``(P, d, d)``, ... with ``d2[p, i, j,
    k] = d_k d_j X_i`` and ``d3[p, i, j, k, l] = d_l d_k d_j X_i``.  A tabled
    field takes each order from its table's derivative in one ``eval_many``
    over the block.  Any other field takes, point by point, every
    derivative from nested central differences of its values, with every
    shifted point evaluated in one ``eval_many`` (1 + 2d + 4d^2 points at
    order 2)."""
    if field.table is None:
        jets = []
        for x in points:
            scale = 1.0 + float(np.linalg.norm(x))
            steps = (FD_STEP_1 * scale, FD_STEP_2 * scale, FD_STEP_3 * scale)
            jets.append(_central_differences(field.eval_many, x, [steps[:j] for j in range(s + 1)]))
        return [np.stack(order) for order in zip(*jets)]
    table = field.table
    jet = [table.eval_many(points)]
    for _ in range(s):
        table = table.derivative
        jet.append(table.eval_many(points))
    return jet


def eval_jet_norm(field: VectorField, x: np.ndarray, s: int, space: ChartSpace,
                  directions: np.ndarray | None = None) -> float | np.ndarray:
    """Sum over orders 0..s of the size of the field's derivatives at x, one
    point (d,), or at each row of a block of points (P, d), one sum each.

    Order 0 is the chart norm of the value, order 1 the exact induced
    operator norm of the Jacobian.  Orders 2 and 3 are built as tensors
    over the whole block (:func:`_jet_tensors`): exactly, from the table's
    derivatives, for a field with a monomial table, and point by point from
    nested central differences (steps ``FD_STEP_1``, ``FD_STEP_2`` and
    ``FD_STEP_3`` per order) for any other field.  Their multilinear norms
    are estimated by contracting the tensors with canonical and random unit
    directions and maximizing the induced operator norm of each
    contraction over its remaining slot (:func:`max_operator_norm`), which
    is exact for that slot; order 3 pairs every direction with the first
    eighth of them (at least 4).  ``directions`` gives the random unit
    directions of each point, ``(count, d)`` for one point or ``(P, count,
    d)`` for a block; orders 2 and 3 need them.  Order 2 contracts the
    block in one product, and order 3 in stacks of at most
    ``JET_STACK_ENTRIES`` entries, or of one order-3 direction over the
    block where that is larger.

    The order s must be an integer from 0 to 3 (:class:`InvalidArgument`
    below, :class:`OrderTooHigh` above), and a point must lie in the
    field's domain.  A jet that is not finite at some point, such as that of
    a field undefined there, raises :class:`OutOfDomain` naming the field,
    before any norm is taken.
    """
    x = np.asarray(x, dtype=float)
    s = _jet_order(s)
    if s >= 2 and directions is None:
        raise InvalidArgument(f"jet order {s} needs the random directions")
    points = np.atleast_2d(x)
    if not field.domain.contains_rows(points).all():
        raise OutOfDomain(f"{field.label}: point outside domain")
    with np.errstate(all="ignore"):  # a jet that overflows fails the check below
        jet = _jet_tensors(field, points, s)
    if not all(np.isfinite(j).all() for j in jet):
        raise OutOfDomain(f"{field.label}: jet up to order {s} is not finite at a point")

    kind = space.norm_kind
    P, d = points.shape
    total = _row_norms(jet[0], kind)
    if s >= 1:
        total = total + operator_norm(jet[1], kind)
    if s >= 2:
        dirs = _directions(space, np.asarray(directions, dtype=float).reshape(P, -1, d))
        if jet[2].any():
            # m2[p, v, (i, j)] = sum_k v_k d2[p, i, j, k]
            m2 = dirs @ jet[2].reshape(P, d * d, d).transpose(0, 2, 1)
            total = total + max_operator_norm(m2.reshape(P, -1, d, d), kind)
        if s >= 3 and jet[3].any():
            w = dirs[:, :_paired(dirs.shape[1])]
            # t[p, w, k, (i, j)] = sum_l d3[p, i, j, k, l] w_l
            t = (jet[3].reshape(P, d ** 3, d) @ w.transpose(0, 2, 1)).reshape(P, d * d, d, -1)
            t = t.transpose(0, 3, 2, 1)
            chunk = max(1, JET_STACK_ENTRIES // (P * dirs.shape[1] * d * d))
            best = 0.0
            for a in range(0, w.shape[1], chunk):
                m3 = dirs[:, None] @ t[:, a:a + chunk]
                best = max_operator_norm(m3.reshape(P, -1, d, d), kind, best)
            total = total + best
    return float(total[0]) if x.ndim == 1 else total


def sample_in_ball(region: Ball, space: ChartSpace, rng: np.random.Generator,
                   count: int) -> list[np.ndarray]:
    """Uniform-ish samples in the ball: random unit direction, radial factor
    u^(1/n).  The center is always included, and with the same seed the
    sample set of a concentric sub-ball is the radial contraction of the
    larger one, which keeps sampled suprema nested."""
    pts = [region.center.copy()]
    n = space.dimension
    for _ in range(max(0, count - 1)):
        u = space.unit_vector(rng)
        rho = rng.uniform() ** (1.0 / n)
        pts.append(region.center + region.radius * rho * u)
    return pts


def estimate_lb_bound(family: FieldFamily, region: Ball, s: int, samples: int,
                      rng_seed: int = 0, safety: float = DEFAULT_SAFETY,
                      force_sampled: bool = False) -> LbRecord:
    """Bound the order-s jets of all members over ``region``.

    Families carrying a declared analytic bound for order ``s`` pass it
    through unchanged (``method="declared"``).  Otherwise the sampled
    supremum over ``samples`` region points and all members is inflated by
    ``safety`` so that downstream radius guards stay conservative.  The
    points go through :func:`eval_jet_norm` in blocks, one call per block
    and member, each block sized so that its contraction stacks hold about
    ``JET_STACK_ENTRIES`` entries.  The jet directions of every point and
    member come from the stream seeded with ``rng_seed + 1``, one draw per
    block, in the order of one draw per point and member, point after
    point.  ``s`` must be an integer from 0 to 3 (a declared bound of a
    higher order passes through) and ``samples`` an integer of at least 1,
    or :class:`InvalidArgument` is raised before any sampling.  A member
    whose jet is not finite at a sample point, so that no sampled bound
    holds there, raises :class:`OutOfDomain` (:func:`eval_jet_norm`).
    """
    s, samples = _integer(s, "jet order", 0), _integer(samples, "samples", 1)
    if not family.common_domain.contains_ball(region):
        raise OutOfDomain("region not contained in the family's common domain")
    if family.declared_lb and not force_sampled and s in family.declared_lb:
        return LbRecord(order_s=s, bound_k=float(family.declared_lb[s]),
                        region=region, method="declared")
    s = _jet_order(s)
    space, members = family.space, family.members
    rng = np.random.default_rng(rng_seed)
    pts = np.array(sample_in_ball(region, space, rng, samples))
    jet_rng = np.random.default_rng(rng_seed + 1)
    block = _block_size(space, s, len(members))
    best = 0.0
    for start in range(0, len(pts), block):
        points = pts[start:start + block]
        directions = [None] * len(members)
        if s >= 2:
            drawn = space.unit_vectors(jet_rng, len(points) * len(members) * MIN_UNIT_TUPLES)
            directions = drawn.reshape(len(points), len(members), -1, space.dimension).swapaxes(0, 1)
        for m, dirs in zip(members, directions):
            best = max(best, float(eval_jet_norm(m, points, s, space, directions=dirs).max()))
    if best <= 0.0:
        best = 1e-30  # identically-zero family still needs a positive record
    return LbRecord(order_s=s, bound_k=best * safety, region=region, method="sampled")
