"""Lie brackets, flow-conjugated field enlargement, bracket chains, and the
sampled structure-constant certification.

Brackets of two fields that carry monomial tables are exact: the bracket is
a tabled field again, so iterated brackets carry no finite-difference error.
On families of tabled fields, :func:`bracket_chain` drops brackets that lie
in the span of the fields already accumulated, and :func:`certify_h_prime`
evaluates the whole grid in batches.  Brackets of any other field are
evaluated by finite differences of Jacobian-vector products.

Enlarged fields are pushforwards of scaled members through finite flow
words.  When every member carries a monomial table, the pushforward is a
table too: each letter ``(a, t)`` pushes a field Y by the Lie series
``(phi^X_t)_* Y = sum_k (-t)^k / k! ad_X^k Y`` with ``ad_X Y = [X, Y]`` and
X the letter's member, which stops after a few brackets on nilpotent
families (Agrachev and Sachkov, *Control Theory from the Geometric
Viewpoint*, ch. 2).  Such a field is exact wherever it is evaluated:
flowing it, its derivatives, its brackets and its values in distributions
all come from the table.  Where the series does not stop within
``SERIES_MAX_BRACKETS`` brackets per letter (affine-l1 with a linear part),
or a member is untabled (the callable families), the field is evaluated by
nested flows: the inverse word finds the source point, and the word from
there carries the scaled member value as one tangent column through the
linearised flow (never the full variational matrix).  Both runs are
:func:`~orbitkit.flow._stacked_word` over a stack of points, each letter
one ``flow_single`` call whose rows share a step sequence, and raise at the
first letter that leaves the region
(:meth:`EnlargedField.eval_many`); that is how their finite-difference
Jacobians and jet screens evaluate all their shifted points at once.  The
conjugation identity between the flow of an enlarged field and the
conjugated flows is testable on either path rather than assumed.
:func:`lie_bracket_via_flows` likewise carries the single tangent ``Y``
through the flow of ``X``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import LeftDomain, OutOfDomain, StepUnderflow, WordNotIntegrable
from .fields import (FieldFamily, LbRecord, MonomialTable, VectorField, _row_keys, calculus,
                     eval_jet_norm, finite_difference_jvp)
from .flow import DEFAULT_TOL, FlowWord, _stacked_word, flow_single
from .orbit import BracketChain, DistributionBasis, rank_of_singular_values
from .orbit import numerical_rank  # noqa: F401  (perfbench's tracer wraps algebra.numerical_rank)
from .space import Ball, integer, positive

# A tabled bracket whose coefficient vector is within this relative distance
# of the span of the fields already in a chain is dropped.  It sits far
# below orbit.RANK_REL_TOL, so no rank decision can depend on it.
SPAN_REL_TOL = 1e-12

# Brackets of the pushforward series taken per letter before a tabled
# enlarged field is given up for nested flows.  Every member pair of
# heisenberg, heisenberg-full, grushin, a 7-dimensional chain family and
# affine-l1 without a linear part stops within 6; affine-l1 with a linear
# part never stops.
SERIES_MAX_BRACKETS = 10


def _check_domains(fields, x: np.ndarray) -> None:
    for f in {id(f.domain): f for f in fields}.values():  # each distinct domain once
        if not f.domain.contains(x):
            raise OutOfDomain(f"{f.label}: point outside domain")


def lie_bracket(X: VectorField, Y: VectorField, x: np.ndarray) -> np.ndarray:
    """[X, Y](x) = DY(x) X(x) - DX(x) Y(x).

    Each side's derivative is exact, from its Jacobian, when that field
    carries a monomial table; otherwise it is a central difference of the
    Jacobian-vector product.
    """
    x = np.asarray(x, dtype=float)
    _check_domains((X, Y), x)
    return _derivative(Y, x, X(x)) - _derivative(X, x, Y(x))


def _derivative(X: VectorField, x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """DX(x) v: exact from the table of a tabled field, else a central
    difference along v."""
    return X.jacobian(x) @ v if X.table is not None else finite_difference_jvp(X, x, v)


def lie_bracket_via_flows(X: VectorField, Y: VectorField, x: np.ndarray) -> np.ndarray:
    """Diagnostic cross-check of the bracket through pushforwards along the
    flow of X for times -t and t (t = 1e-4, integrated at tol 1e-12),
    symmetric in the time parameter for second-order accuracy."""
    x = np.asarray(x, dtype=float)
    t, tol = 1e-4, 1e-12

    def pushed(s: float) -> np.ndarray:
        back = flow_single(X, x, -s, tol=tol).endpoint
        return flow_single(X, back, s, tol=tol, tangents=Y(back)).tangents

    return (pushed(-t) - pushed(t)) / (2.0 * t)


def _pushforward_table(members, word: FlowWord, table: MonomialTable) -> MonomialTable | None:
    """``table`` pushed forward through ``word``, letter by letter: a letter
    ``(a, t)`` adds ``(-t)^k / k! ad_X^k Y`` to Y for k = 1, 2, ... with X
    member a, until a term has no rows.  ``None`` when a letter's term is
    still nonzero after ``SERIES_MAX_BRACKETS`` brackets."""
    for index, t in word.letters:
        X = members[index].table
        term, terms = table, [table]
        for k in range(1, SERIES_MAX_BRACKETS + 1):
            exponents, coefficients = X.bracket_rows(term)
            term = MonomialTable.from_rows(exponents, coefficients * (-t / k))
            if not len(term.exponents):
                break
            terms.append(term)
        else:
            return None
        table = MonomialTable.from_rows(np.concatenate([s.exponents for s in terms]),
                                        np.concatenate([s.coefficients for s in terms]))
    return table


@dataclass(frozen=True)
class EnlargedField(VectorField):
    """A member pushed forward through a flow word and scaled.

    A tabled enlarged field carries the pushforward series as its ``table``
    (:func:`enlarge_field`), which evaluates it: it is the exact pushforward
    of the members' polynomial fields at every point of the region, and it
    agrees with the conjugated flow wherever the word stays inside the
    region.  An untabled one is evaluated by nested flows, which raise
    :class:`WordNotIntegrable` where the word leaves the region.

    ``in_enlargement`` records whether the jet-norm screening at the region
    anchor stayed within the family bound; fields failing the screen are
    still returned for study.  Jet screening stops at order 3, and is exact
    for a tabled field.  ``family`` and ``tol`` are what the word runs with,
    so that :meth:`eval_many` can run it over a stack of points.
    """

    base_index: int = 0
    word: FlowWord = FlowWord(())
    scale: float = 1.0
    in_enlargement: bool = True
    screen_jet: float = float("nan")
    family: FieldFamily | None = field(default=None, compare=False, repr=False)
    tol: float = DEFAULT_TOL

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Values at the rows of ``points`` (N, d): one table evaluation for a
        tabled field.  Otherwise two runs of the word over the whole stack:
        the inverse word, run plain, gives the source points z; the word run
        from z carries the tangents ``scale X_base(z)`` to the values.  The
        first letter whose run leaves the region raises
        :class:`WordNotIntegrable`."""
        if self.table is not None:
            return super().eval_many(points)
        family, tol, region, n = self.family, self.tol, self.domain, len(points)
        try:
            # each word runs from every row: one flow_single call per letter
            *_, (z, _) = _stacked_word(family, self.inverse_word.letters, points, tol, region)
            tangents = self.scale * family.members[self.base_index].eval_many(z)
            return list(_stacked_word(family, self.word.letters, z, tol, region, tangents))[-1][1]
        except (LeftDomain, StepUnderflow) as exc:
            where = points[0] if n == 1 else f"one of {n} points"
            raise WordNotIntegrable(f"conjugating word not integrable from {where}") from exc

    @cached_property
    def inverse_word(self) -> FlowWord:
        """The inverse word, built once: every nested evaluation runs it."""
        return self.word.inverse()


def enlarge_field(family: FieldFamily, word: FlowWord, base_index: int, nu: float,
                  lb: LbRecord, tol: float = DEFAULT_TOL) -> EnlargedField:
    """Pushforward of ``nu`` times a member through ``word``.

    When every member carries a monomial table, the scaled base table is
    pushed through the word by the Lie series (:func:`_pushforward_table`),
    and the field carries the result as its ``table``: it is the exact
    pushforward of the members' polynomial fields at every point of the
    region, and agrees with the conjugated flow wherever the word stays
    inside the region.  Otherwise, or when a letter's series does not stop
    within ``SERIES_MAX_BRACKETS`` brackets, eval(x) runs the inverse word
    from x to its source point z, then the word from z carrying the tangent
    vector ``nu X_base(z)``, whose end value is the pushforward;
    :meth:`EnlargedField.eval_many` does both runs over a stack of points at
    once, and only this nested path raises :class:`WordNotIntegrable` where
    the word leaves the region.  An enlarged ``base_index`` composes the
    words and takes the path of its family.

    Membership screening compares the jet norm at the region center against
    the family bound: from the table's exact derivatives for a tabled field,
    else from finite-difference tensors whose shifted points go through
    ``eval_many``, any of them leaving the region failing the screen.
    """
    nu = positive(nu, "scale")
    if isinstance(base_index, EnlargedField):
        inner = base_index
        return enlarge_field(family, inner.word.then(word), inner.base_index,
                             nu * inner.scale, lb, tol=tol)
    family.check_members([base_index, *(a for a, _ in word.letters)])
    base = family.members[base_index]
    region = lb.region
    table = None
    if calculus(family.members) == "exact":
        table = _pushforward_table(family.members, word,
                                   MonomialTable(base.table.exponents, nu * base.table.coefficients))

    def ev(x: np.ndarray) -> np.ndarray:
        return probe.eval_many(x[None])[0]

    probe = EnlargedField(domain=region, eval_fn=ev if table is None else table,
                          label=f"({base.label}|w{len(word.letters)},nu={nu:g})", table=table,
                          base_index=base_index, word=word, scale=nu,
                          in_enlargement=True, screen_jet=float("nan"), family=family, tol=tol)
    order = min(lb.order_s, 3)
    try:
        # a thin sample of 8 directions keeps the screen affordable at
        # screening (not certification) duty
        jet = eval_jet_norm(probe, region.center, order, family.space,
                            directions=family.space.unit_vectors(np.random.default_rng(0), 8))
        inside = jet <= lb.bound_k
    except (WordNotIntegrable, LeftDomain, OutOfDomain):  # a jet not finite fails too
        jet = float("inf")
        inside = False
    return replace(probe, in_enlargement=bool(inside), screen_jet=float(jet))


def bracket_field(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] as an evaluable field.

    When both fields carry monomial tables the bracket is exact and tabled
    again, and the table evaluates it; otherwise each evaluation is a
    :func:`lie_bracket` and the field is differentiated by finite
    differences.  Either way evaluation outside the domains of X and Y
    raises :class:`OutOfDomain`.
    """
    dom = X.domain if X.domain is Y.domain or Y.domain.contains_ball(X.domain) else Y.domain
    label = f"[{X.label},{Y.label}]"
    if X.table is not None and Y.table is not None:
        table = X.table.bracket(Y.table)

        def ev_exact(x: np.ndarray) -> np.ndarray:
            _check_domains((X, Y), x)
            return table(x)

        return VectorField(domain=dom, eval_fn=ev_exact, label=label, table=table)

    def ev(x: np.ndarray) -> np.ndarray:
        return lie_bracket(X, Y, x)

    return VectorField(domain=dom, eval_fn=ev, label=label)


class _CoefficientSpan:
    """The span of tabled fields' coefficient vectors, kept as orthonormal
    rows over (monomial, component) pairs.  Monomials are numbered in the
    order they are first seen, so a new monomial only appends coordinates,
    which are zero in every stored row."""

    def __init__(self, dim: int):
        self.dim = dim
        self.monomials: dict[bytes, int] = {}
        self.basis = np.zeros((0, 0))

    def add(self, exponents: np.ndarray, coefficients: np.ndarray) -> bool:
        """Add the coefficient vector that the rows of a table sum to (as in
        :meth:`MonomialTable.from_rows`); False when it already lies in the
        span (relative distance at most ``SPAN_REL_TOL``)."""
        rows = np.array([self.monomials.setdefault(key, len(self.monomials))
                         for key in _row_keys(exponents).tolist()], dtype=np.int64)
        # entry (monomial, component) of the vector, summed in row order
        index = (rows[:, None] * self.dim + np.arange(self.dim)).ravel()
        v = np.bincount(index, weights=coefficients.ravel(),
                        minlength=len(self.monomials) * self.dim)
        norm = math.sqrt(v @ v)
        if norm == 0.0:
            return False
        q = self.basis
        if q.shape[1] < v.size:
            q = np.concatenate([q, np.zeros((len(q), v.size - q.shape[1]))], axis=1)
        r = v
        for _ in range(2):  # orthogonalise twice: one pass loses orthogonality
            r = r - (q @ r) @ q
        rn = math.sqrt(r @ r)
        if rn <= SPAN_REL_TOL * norm:
            self.basis = q
            return False
        self.basis = np.concatenate([q, (r / rn)[None]])
        return True


def bracket_chain(family: FieldFamily, x: np.ndarray, k_max: int) -> BracketChain:
    """Iterated-bracket generations evaluated at x with their rank profile.

    Generation 1 is the family itself; generation k adds brackets of family
    members against the new fields of generation k-1.  Stops early once the
    rank saturates the chart dimension.

    When every member carries a monomial table the brackets are exact, and
    a bracket whose coefficient vector lies in the span of the fields
    accumulated so far is dropped.  Brackets are bilinear, so the dropped
    field's own brackets lie in the span of later generations: no
    generation's span changes, and the chain still emits one generation per
    step.  Raises :class:`OutOfDomain` when x lies outside a member's domain.
    """
    k_max = integer(k_max, "k_max", 1)
    x = np.asarray(x, dtype=float)
    _check_domains(family.members, x)
    dim = family.space.dimension
    members = family.members
    span = None
    if calculus(members) == "exact":
        span = _CoefficientSpan(dim)
        for m in members:
            span.add(m.table.exponents, m.table.coefficients)

    fields_acc: list[VectorField] = list(members)
    columns: list[np.ndarray] = [f(x) for f in members]
    new_fields: list[VectorField] = list(members)
    generations: list[DistributionBasis] = []

    def basis() -> DistributionBasis:
        return DistributionBasis(anchor=x.copy(), vectors=np.stack(columns, axis=1),
                                 source_labels=tuple(f.label for f in fields_acc),
                                 source_fields=tuple(fields_acc))

    generations.append(basis())
    for k in range(2, k_max + 1):
        if generations[-1].rank >= dim:
            break
        created: list[VectorField] = []
        for i, X in enumerate(members):
            for j, Y in enumerate(new_fields):
                # an exact [X_j, X_i] = -[X_i, X_j], formed first, is in the span
                if X is Y or (span is not None and k == 2 and j < i):
                    continue
                # the span test reads the bracket's rows unmerged, so only a
                # kept bracket is built as a field
                if span is None or span.add(*X.table.bracket_rows(Y.table)):
                    created.append(bracket_field(X, Y))
        if created:
            fields_acc = fields_acc + created
            columns = columns + [f(x) for f in created]
        new_fields = created
        generations.append(basis() if created else generations[-1])
        if len(members) == 1:
            break  # a lone field brackets with nothing
    return BracketChain(anchor=x.copy(), generations=tuple(generations))


@dataclass(frozen=True)
class StructureReport:
    """Sampled certification that brackets close over the family.

    At every grid point each pairwise bracket is least-squares expanded over
    the member values; certification requires all residuals under the stated
    tolerance, and ``bound_C`` is the largest absolute coefficient sum seen.
    This is a sampled certification over the grid, not a uniform bound over
    an open set.
    """

    grid: np.ndarray
    coefficients: np.ndarray  # (n_points, n_pairs, n_members)
    residuals: np.ndarray     # (n_points, n_pairs)
    pairs: tuple[tuple[int, int], ...]
    bound_C: float
    certified: bool
    tolerance: float
    rank_deficient_points: tuple[int, ...]
    note: str = "sampled certification over a finite grid"


def _grid_in_region(region: Ball, dim: int, grid_size: int) -> np.ndarray:
    # tensor grid over the inscribed box of the region ball
    half = region.radius if region.norm_kind == "sup" else region.radius / math.sqrt(dim) \
        if region.norm_kind == "euclidean" else region.radius / dim
    offsets = np.linspace(-half, half, grid_size)
    # row-major over the axes, as a meshgrid with indexing="ij" ravels
    return offsets[np.indices((grid_size,) * dim).reshape(dim, -1).T] + region.center


def certify_h_prime(family: FieldFamily, region: Ball, grid_size: int = 5,
                    tol: float = 1e-8) -> StructureReport:
    """Solve bracket = coefficient-combination-of-members at each grid point.

    Each pair bracket is built once and, like the members, evaluated over the
    whole grid (one batched table evaluation for tabled fields); the rank
    decisions and least-squares solves then share one stacked SVD, with the
    cutoffs of :func:`numerical_rank` and ``np.linalg.lstsq``.  Not raising
    on rank-deficient dictionaries: such points are flagged in the report
    instead.  Raises :class:`InvalidArgument` for a grid size that is not
    an integer of at least 1.
    """
    grid_size = integer(grid_size, "grid_size", 1)
    if not family.common_domain.contains_ball(region):
        raise OutOfDomain("region not contained in the family's common domain")
    dim = family.space.dimension
    members = family.members
    m = len(members)
    pairs = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    grid = _grid_in_region(region, dim, grid_size)
    A = np.stack([f.eval_many(grid) for f in members], axis=2)  # (points, dim, m)
    b = np.zeros((len(grid), len(pairs), dim))
    for q, (i, j) in enumerate(pairs):
        b[:, q] = bracket_field(members[i], members[j]).eval_many(grid)
    # one SVD per point serves the rank decision and the least squares, which
    # drops singular values at or below lstsq's cutoff eps * max(dim, m) * s_max
    U, sv, Vt = np.linalg.svd(A, full_matrices=False)
    rank_flags = np.flatnonzero(rank_of_singular_values(sv) < min(dim, m))
    keep = sv > np.finfo(float).eps * max(dim, m) * sv[:, :1]
    inv = np.where(keep, 1.0 / np.where(keep, sv, 1.0), 0.0)
    coeffs = (b @ U) * inv[:, None, :] @ Vt  # (points, pairs, m)
    b_norm = np.linalg.norm(b, axis=2)
    residuals = np.linalg.norm(coeffs @ A.transpose(0, 2, 1) - b, axis=2)
    return StructureReport(grid=grid, coefficients=coeffs, residuals=residuals, pairs=pairs,
                           bound_C=float(np.abs(coeffs).sum(axis=2).max(initial=0.0)),
                           certified=bool(np.all(residuals <= tol * (1.0 + b_norm))),
                           tolerance=tol, rank_deficient_points=tuple(int(p) for p in rank_flags))
