"""Local vector fields, indexed families, and jet-bound estimation.

A :class:`VectorField` is an evaluable field on a ball-shaped domain with an
optional analytic Jacobian.  Fields whose components are polynomials
(:func:`polynomial_field`, :func:`constant_field`, the affine builtins and
exact brackets of such fields) also carry a :class:`MonomialTable`, which
gives exact derivatives of every order, exact Lie brackets and batched
evaluation; every other field is differentiated by finite differences.  A
:class:`FieldFamily` is an ordered, indexed collection sharing a common
domain.  :func:`eval_jet_norm` measures the size of a field's jet at a point
up to order 3, and :func:`estimate_lb_bound` turns a sampled (or declared)
supremum of jet norms over a region into an :class:`LbRecord`, the bound
record that powers every existence-radius guard downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidArgument, OrderTooHigh, OutOfDomain
from .space import Ball, ChartSpace, operator_norm, vector_norm

# Finite-difference steps per derivative order (relative, scaled by 1+|x|):
# standard truncation/round-off balance for first, second, third order.
FD_STEP_1 = 1e-5
FD_STEP_2 = 1e-3
FD_STEP_3 = 1e-2

DEFAULT_SAFETY = 1.25
MIN_UNIT_TUPLES = 64

MAX_JET_ORDER = 3


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
        exponents = np.ascontiguousarray(exponents, dtype=np.int64)
        if len(exponents) > 1:
            # a stable sort on the bytes of each row turns equal rows into
            # runs, each summed in input order
            rows = exponents.view(np.dtype((np.void, exponents.itemsize * exponents.shape[1])))
            order = np.argsort(rows.ravel(), kind="stable")
            exponents, coefficients = exponents[order], coefficients[order]
            starts = np.flatnonzero(np.any(exponents[1:] != exponents[:-1], axis=1)) + 1
            starts = np.concatenate(([0], starts))
            exponents = exponents[starts]
            coefficients = np.add.reduceat(coefficients, starts, axis=0)
        keep = coefficients.reshape(len(coefficients), math.prod(coefficients.shape[1:])).any(axis=1)
        return cls(exponents[keep], coefficients[keep])

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of ``points`` (N, d), in one batched evaluation:
        shape ``(N,) + coefficients.shape[1:]``."""
        points = np.asarray(points, dtype=float)
        monomials = np.prod(points[:, None, :] ** self.exponents, axis=2)
        return (monomials @ self._flat).reshape((len(points),) + self.coefficients.shape[1:])

    def __call__(self, x: np.ndarray) -> np.ndarray:
        monomials = np.prod(np.asarray(x, dtype=float) ** self.exponents, axis=1)
        return (monomials @ self._flat).reshape(self.coefficients.shape[1:])

    @cached_property
    def _flat(self) -> np.ndarray:
        """The coefficients as a (T, K) matrix."""
        return self.coefficients.reshape(len(self.coefficients),
                                         math.prod(self.coefficients.shape[1:]))

    @cached_property
    def derivative(self) -> "MonomialTable":
        """The exact derivative: coefficients gain a trailing axis j holding
        the partial derivative along coordinate j."""
        d = self.exponents.shape[1]
        shape = self.coefficients.shape[1:]
        t, j = np.nonzero(self.exponents)  # monomial t has a positive power of x_j
        coeffs = np.zeros((len(t),) + shape + (d,))
        coeffs[np.arange(len(t)), ..., j] = (self.coefficients[t] * self.exponents[t, j]
                                             .reshape((-1,) + (1,) * len(shape)))
        return MonomialTable.from_rows(self.exponents[t] - np.eye(d, dtype=np.int64)[j], coeffs)

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


@dataclass(frozen=True)
class VectorField:
    """An evaluable local vector field on a chart.

    ``eval_fn`` maps a point (1-d array) to a vector of the same dimension.
    ``jacobian_fn`` is optional; when absent, Jacobians are produced by
    central finite differences.  Evaluation must be pure.  ``table``, when
    present, is the field as a :class:`MonomialTable`; ``eval_fn`` stays the
    per-point evaluator because it is faster on one point than the table.
    """

    domain: Ball
    eval_fn: Callable[[np.ndarray], np.ndarray]
    jacobian_fn: Callable[[np.ndarray], np.ndarray] | None = None
    label: str = "X"
    table: MonomialTable | None = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(self.eval_fn(np.asarray(x, dtype=float)), dtype=float)

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of ``points`` (N, d): one batched table
        evaluation for a tabled field, one call per point otherwise."""
        if self.table is not None:
            return self.table.eval_many(points)
        return np.array([self(x) for x in np.asarray(points, dtype=float)])

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """Analytic Jacobian when available, else central differences."""
        x = np.asarray(x, dtype=float)
        if self.jacobian_fn is not None:
            return np.asarray(self.jacobian_fn(x), dtype=float)
        return finite_difference_jacobian(self, x)

    @property
    def has_analytic_jacobian(self) -> bool:
        return self.jacobian_fn is not None


def finite_difference_jacobian(field: VectorField, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _axis_differences(field, x, FD_STEP_1 * (1.0 + float(np.linalg.norm(x))))


def _axis_differences(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
                      h: float) -> np.ndarray:
    """(fn(x + h e_k) - fn(x - h e_k)) / 2h for every axis k, stacked on a
    new last axis: the derivative of ``fn`` at x by central differences."""
    return np.stack([fn(x + e) - fn(x - e) for e in h * np.eye(x.size)], axis=-1) / (2.0 * h)


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
    (:class:`InvalidArgument` otherwise).  The analytic Jacobian and the
    field's :class:`MonomialTable` are derived from the same terms.
    """
    dim = len(components)
    comp = tuple(tuple((float(c), _exponents(exps, dim)) for c, exps in terms)
                 for terms in components)
    rows = [(exps, c * np.eye(dim)[i]) for i, terms in enumerate(comp) for c, exps in terms]
    exponents = np.array([e for e, _ in rows], dtype=np.int64).reshape(-1, dim)
    table = MonomialTable.from_rows(exponents, np.array([v for _, v in rows]).reshape(-1, dim))

    def ev(x: np.ndarray) -> np.ndarray:
        out = np.zeros(dim)
        for i, terms in enumerate(comp):
            acc = 0.0
            for c, exps in terms:
                t = c
                for j, e in enumerate(exps):
                    if e:
                        t *= x[j] ** e
                acc += t
            out[i] = acc
        return out

    def jac(x: np.ndarray) -> np.ndarray:
        m = np.zeros((dim, dim))
        for i, terms in enumerate(comp):
            for c, exps in terms:
                for j, e in enumerate(exps):
                    if not e:
                        continue
                    t = c * e
                    for k, ek in enumerate(exps):
                        p = ek - 1 if k == j else ek
                        if p:
                            t *= x[k] ** p
                    m[i, j] += t
        return m

    return VectorField(domain=domain, eval_fn=ev, jacobian_fn=jac, label=label, table=table)


def constant_field(domain: Ball, vector, label: str = "c") -> VectorField:
    v = np.asarray(vector, dtype=float).copy()
    v.flags.writeable = False
    n = v.size
    return VectorField(domain=domain, eval_fn=lambda x: v.copy(),
                       jacobian_fn=lambda x: np.zeros((n, n)), label=label,
                       table=MonomialTable.from_rows(np.zeros((1, n)), v[None]))


@dataclass(frozen=True)
class FieldFamily:
    """Ordered indexed family of vector fields with a common domain.

    ``declared_lb`` optionally maps a jet order to an analytic bound valid on
    the whole common domain; :func:`estimate_lb_bound` passes such bounds
    through instead of sampling.  ``truncation_factory``, when present, maps
    a member count to the corresponding truncation of a countable family.
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


def _unit_vectors(space: ChartSpace, rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random unit directions, then +e_j and -e_j for every axis j."""
    eye = np.eye(space.dimension)
    # canonical directions sharpen the sampled maximum at no real cost
    canonical = np.stack([eye, -eye], axis=1).reshape(-1, space.dimension)
    return np.vstack([space.unit_vectors(rng, count), canonical])


def _derivative_tensors(field: VectorField, x: np.ndarray, s: int):
    """D2 and, for s >= 3, D3 of the field at x (else None), with
    ``d2[i, j, k] = d_k d_j X_i`` and ``d3[i, j, k, l] = d_l d_k d_j X_i``:
    exact from a monomial table, else central differences of the Jacobian."""
    if field.table is not None:
        d2 = field.table.derivative.derivative
        return d2(x), (d2.derivative(x) if s >= 3 else None)
    scale = 1.0 + float(np.linalg.norm(x))
    h2 = FD_STEP_2 * scale
    d2 = _axis_differences(field.jacobian, x, h2)
    if s < 3:
        return d2, None
    h3 = FD_STEP_3 * scale
    return d2, _axis_differences(lambda y: _axis_differences(field.jacobian, y, h2), x, h3)


def eval_jet_norm(field: VectorField, x: np.ndarray, s: int, space: ChartSpace,
                  rng: np.random.Generator | None = None,
                  tuple_samples: int = MIN_UNIT_TUPLES) -> float:
    """Sum over orders 0..s of the size of the field's derivatives at x.

    Order 0 is the chart norm of the value, order 1 the exact induced
    operator norm of the Jacobian.  Orders 2 and 3 are built once per point
    as tensors.  A field with a monomial table takes them exactly from the
    table's derivatives.  Otherwise D2 comes from central differences of the
    Jacobian along the coordinate axes (step ``FD_STEP_2``) and D3 from
    central differences of D2 along the axes (step ``FD_STEP_3``), which
    takes 1 + 2d Jacobians at order 2 and 1 + 2d + 4d^2 at order 3.  Their
    multilinear norms are estimated by contracting the tensors with
    canonical and random unit directions (at least ``tuple_samples`` random
    ones) and maximizing the induced operator norm of each contraction over
    its remaining slot, which is exact for that slot; order 3 pairs every
    direction with the first eighth of them (at least 4).
    """
    x = np.asarray(x, dtype=float)
    if not field.domain.contains(x, inflate=1e-12):
        raise OutOfDomain(f"{field.label}: point outside domain")
    if s > MAX_JET_ORDER:
        raise OrderTooHigh(f"jet order {s} > {MAX_JET_ORDER}: nested differences are noise-dominated")
    if rng is None:
        rng = np.random.default_rng(0)

    total = vector_norm(field(x), space.norm_kind)
    if s >= 1:
        total += operator_norm(field.jacobian(x), space.norm_kind)
    if s >= 2:
        dirs = _unit_vectors(space, rng, tuple_samples)
        d2, d3 = _derivative_tensors(field, x, s)
        total += operator_norm(np.tensordot(dirs, d2, axes=([1], [2])), space.norm_kind).max()
        if s >= 3:
            best3 = 0.0
            for w in dirs[: max(4, len(dirs) // 8)]:
                m = np.tensordot(dirs, d3 @ w, axes=([1], [2]))
                best3 = max(best3, operator_norm(m, space.norm_kind).max())
            total += best3
    return float(total)


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
    ``safety`` so that downstream radius guards stay conservative.  Each
    point and member costs one :func:`eval_jet_norm`, whose derivative
    tensors take 1 + 2d Jacobians at order 2 and 1 + 2d + 4d^2 at order 3
    in dimension d; the jet directions come from the stream seeded with
    ``rng_seed + 1``.
    """
    if samples < 1:
        raise InvalidArgument("samples must be >= 1")
    if not family.common_domain.contains_ball(region):
        raise OutOfDomain("region not contained in the family's common domain")
    if family.declared_lb and not force_sampled and s in family.declared_lb:
        return LbRecord(order_s=s, bound_k=float(family.declared_lb[s]),
                        region=region, method="declared")
    rng = np.random.default_rng(rng_seed)
    pts = sample_in_ball(region, family.space, rng, samples)
    jet_rng = np.random.default_rng(rng_seed + 1)
    best = 0.0
    for y in pts:
        for m in family.members:
            best = max(best, eval_jet_norm(m, y, s, family.space, rng=jet_rng))
    if best <= 0.0:
        best = 1e-30  # identically-zero family still needs a positive record
    return LbRecord(order_s=s, bound_k=best * safety, region=region, method="sampled")
