"""Lie brackets, flow-conjugated field enlargement, bracket chains, and the
sampled structure-constant certification.

Enlarged fields are pushforwards of scaled members through finite flow
words.  Their evaluation runs one backward word integration to find the
source point and one forward variational integration to transport the field
value, so the conjugation identity between their flows and the conjugated
flows is testable rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, LeftDomain, OutOfDomain, StepUnderflow, WordNotIntegrable
from .fields import FD_STEP_1, FieldFamily, LbRecord, VectorField, eval_jet_norm
from .flow import DEFAULT_TOL, FlowWord, flow_single
from .orbit import BracketChain, DistributionBasis, numerical_rank
from .space import Ball

ENLARGED_FD_STEP = 1e-6


def lie_bracket(X: VectorField, Y: VectorField, x: np.ndarray) -> np.ndarray:
    """[X, Y](x) = DY(x) X(x) - DX(x) Y(x).

    Uses analytic Jacobians when both fields carry them; otherwise central
    differences of the Jacobian-vector products.
    """
    x = np.asarray(x, dtype=float)
    for f in (X, Y):
        if not f.domain.contains(x, inflate=1e-12):
            raise OutOfDomain(f"{f.label}: point outside domain")
    if X.has_analytic_jacobian and Y.has_analytic_jacobian:
        return Y.jacobian(x) @ X(x) - X.jacobian(x) @ Y(x)
    return _jvp(Y, x, X(x)) - _jvp(X, x, Y(x))


def _jvp(field_: VectorField, x: np.ndarray, v: np.ndarray,
         step: float | None = None) -> np.ndarray:
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return np.zeros_like(v)
    h = (step if step is not None else FD_STEP_1 * (1.0 + float(np.linalg.norm(x))))
    u = v / nv
    return nv * (field_(x + h * u) - field_(x - h * u)) / (2.0 * h)


def lie_bracket_via_flows(X: VectorField, Y: VectorField, x: np.ndarray, t: float = 1e-4,
                          tol: float = 1e-12) -> np.ndarray:
    """Diagnostic cross-check of the bracket through pushforwards along the
    flow of X, symmetric in the time parameter for second-order accuracy."""
    x = np.asarray(x, dtype=float)

    def pushed(s: float) -> np.ndarray:
        back = flow_single(X, x, -s, tol=tol, with_variational=False).endpoint
        res = flow_single(X, back, s, tol=tol, with_variational=True)
        return res.endpoint_variational @ Y(back)

    return (pushed(-t) - pushed(t)) / (2.0 * t)


@dataclass(frozen=True)
class EnlargedField(VectorField):
    """A member pushed forward through a flow word and scaled.

    ``in_enlargement`` records whether the jet-norm screening at the region
    anchor stayed within the family bound; fields failing the screen are
    still returned for study.  Jet screening is numerical and stops at
    order 3.
    """

    base_index: int = 0
    word: FlowWord = FlowWord(())
    scale: float = 1.0
    in_enlargement: bool = True
    screen_jet: float = float("nan")


def enlarge_field(family: FieldFamily, word: FlowWord, base_index: int, nu: float,
                  lb: LbRecord, tol: float = DEFAULT_TOL) -> EnlargedField:
    """Pushforward of ``nu`` times a member through ``word``.

    eval(x) transports the scaled member value from the backward-word image
    of x with the forward variational matrix.  Membership screening compares
    the jet norm at the region center against the family bound.
    """
    if nu <= 0:
        raise ValueError("scale must be positive")
    if isinstance(base_index, EnlargedField):
        inner = base_index
        return enlarge_field(family, inner.word.then(word), inner.base_index,
                             nu * inner.scale, lb, tol=tol)
    base = family.members[base_index]
    inv = word.inverse()
    region = lb.region

    def ev(x: np.ndarray) -> np.ndarray:
        try:
            z = inv.apply(family, x, tol=tol, region=region)
            _, M = word.apply_with_variational(family, z, tol=tol, region=region)
        except (LeftDomain, StepUnderflow) as exc:
            raise WordNotIntegrable(f"conjugating word not integrable from {x}") from exc
        return M @ (nu * base(z))

    probe = EnlargedField(domain=region, eval_fn=ev, jacobian_fn=None,
                          label=f"({base.label}|w{len(word.letters)},nu={nu:g})",
                          base_index=base_index, word=word, scale=nu,
                          in_enlargement=True, screen_jet=float("nan"))
    order = min(lb.order_s, 3)
    try:
        # each probe eval costs two word integrations; a thin tuple sample
        # keeps the screen affordable at screening (not certification) duty
        jet = eval_jet_norm(probe, region.center, order, family.space,
                            tuple_samples=8)
        inside = jet <= lb.bound_k
    except (WordNotIntegrable, LeftDomain):
        jet = float("inf")
        inside = False
    return EnlargedField(domain=region, eval_fn=ev, jacobian_fn=None, label=probe.label,
                         base_index=base_index, word=word, scale=nu,
                         in_enlargement=bool(inside), screen_jet=float(jet))


def bracket_field(X: VectorField, Y: VectorField) -> VectorField:
    """[X, Y] as an evaluable field (no analytic Jacobian of its own)."""
    dom = X.domain if Y.domain.contains_ball(X.domain) else Y.domain

    def ev(x: np.ndarray) -> np.ndarray:
        return lie_bracket(X, Y, x)

    return VectorField(domain=dom, eval_fn=ev, jacobian_fn=None,
                       label=f"[{X.label},{Y.label}]")


def bracket_chain(family: FieldFamily, x: np.ndarray, k_max: int,
                  rank_rel_tol: float = 1e-8) -> BracketChain:
    """Iterated-bracket generations evaluated at x with their rank profile.

    Generation 1 is the family itself; generation k adds brackets of family
    members against the new fields of generation k-1.  Stops early once the
    rank saturates the chart dimension.
    """
    if k_max < 1:
        raise InvalidArgument("k_max must be >= 1")
    x = np.asarray(x, dtype=float)
    dim = family.space.dimension

    fields_acc: list[VectorField] = list(family.members)
    new_fields: list[VectorField] = list(family.members)
    generations: list[DistributionBasis] = []
    ranks: list[int] = []

    def basis_from(fields_list) -> DistributionBasis:
        vecs = np.stack([f(x) for f in fields_list], axis=1)
        return DistributionBasis(anchor=x.copy(), vectors=vecs,
                                 source_labels=tuple(f.label for f in fields_list),
                                 source_fields=tuple(fields_list))

    gen = basis_from(fields_acc)
    generations.append(gen)
    ranks.append(gen.rank)
    for _ in range(2, k_max + 1):
        if ranks[-1] >= dim:
            break
        created: list[VectorField] = []
        for X in family.members:
            for Y in new_fields:
                if X is Y:
                    continue
                created.append(bracket_field(X, Y))
        fields_acc = fields_acc + created
        new_fields = created
        gen = basis_from(fields_acc)
        generations.append(gen)
        ranks.append(gen.rank)
        if not created:
            break
    return BracketChain(anchor=x.copy(), generations=tuple(generations),
                        rank_profile=tuple(ranks))


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
    axes = [np.linspace(-half, half, grid_size) + region.center[i] for i in range(dim)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def certify_h_prime(family: FieldFamily, region: Ball, grid_size: int = 5,
                    tol: float = 1e-8) -> StructureReport:
    """Solve bracket = coefficient-combination-of-members at each grid point.

    Not raising on rank-deficient dictionaries: such points are flagged in
    the report instead.
    """
    dim = family.space.dimension
    members = family.members
    m = len(members)
    pairs = tuple((i, j) for i in range(m) for j in range(i + 1, m))
    grid = _grid_in_region(region, dim, grid_size)
    coeffs = np.zeros((grid.shape[0], len(pairs), m))
    residuals = np.zeros((grid.shape[0], len(pairs)))
    rank_flags: list[int] = []
    certified = True
    bound = 0.0
    for p_idx, y in enumerate(grid):
        A = np.stack([f(y) for f in members], axis=1)
        if numerical_rank(A) < min(A.shape):
            rank_flags.append(p_idx)
        for q_idx, (i, j) in enumerate(pairs):
            b = lie_bracket(members[i], members[j], y)
            c, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
            r = float(np.linalg.norm(A @ c - b))
            coeffs[p_idx, q_idx] = c
            residuals[p_idx, q_idx] = r
            bound = max(bound, float(np.sum(np.abs(c))))
            if r > tol * (1.0 + float(np.linalg.norm(b))):
                certified = False
    return StructureReport(grid=grid, coefficients=coeffs, residuals=residuals,
                           pairs=pairs, bound_C=bound, certified=certified,
                           tolerance=tol, rank_deficient_points=tuple(rank_flags))
