"""Pointwise distributions, trivializations, slices, orbit clouds and
accessibility verdicts.

A :class:`DistributionBasis` collects the values of a set of fields at an
anchor point together with a least-l1-norm coefficient solver, the finite
shadow of representing tangent vectors by summable coefficient families.
Bracket generations stack into a :class:`BracketChain` whose rank profile
drives the controllability verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import GuardViolated, InvalidArgument, LeftDomain, OutOfDomain, StepUnderflow
from .compose import compose_flows
from .fields import FieldFamily, LbRecord, VectorField
from .flow import DEFAULT_TOL, FlowWord, existence_radius, flow_single, guard
from .space import L1Coefficients

RANK_REL_TOL = 1e-8
SOLVER_RESIDUAL_TOL = 1e-8
CONDITION_LIMIT = 1e6


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: importing
    scipy.optimize costs more than the rest of orbitkit's start-up, and only
    the least-l1 coefficient solver needs it."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def numerical_rank(matrix: np.ndarray, rel_tol: float = RANK_REL_TOL) -> int:
    """Rank with singular values at or below rel_tol * s_max counted as zero."""
    if matrix.size == 0:
        return 0
    return int(rank_of_singular_values(np.linalg.svd(matrix, compute_uv=False), rel_tol))


def rank_of_singular_values(s: np.ndarray, rel_tol: float = RANK_REL_TOL) -> np.ndarray:
    """The :func:`numerical_rank` rule applied to singular values sorted in
    decreasing order along the last axis; a stack gives an array of ranks."""
    return np.sum(s > rel_tol * s[..., :1], axis=-1)


@dataclass(frozen=True)
class DistributionBasis:
    """Spanning vectors of a pointwise distribution with provenance.

    ``vectors`` is a (dim, m) matrix whose columns are the field values at
    ``anchor``; ``source_labels`` names the producing fields and
    ``source_fields`` keeps them evaluable for downstream trivializations.
    """

    anchor: np.ndarray
    vectors: np.ndarray
    source_labels: tuple[str, ...]
    source_fields: tuple[VectorField, ...] = field(compare=False, repr=False, default=())
    rank: int = 0
    condition: float = float("inf")

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "rank", numerical_rank(v))
        s = np.linalg.svd(v, compute_uv=False) if v.size else np.array([])
        nonzero = s[s > 0]
        cond = float(nonzero[0] / nonzero[-1]) if nonzero.size else float("inf")
        object.__setattr__(self, "condition", cond)

    def coefficient_solver(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-l1-norm coefficients representing ``target`` over the columns.

        The target is first projected onto the span (the reported residual is
        the projection defect); among exact representations of the projection
        the solver returns one of minimal l1 norm via linear programming.
        """
        target = np.asarray(target, dtype=float)
        A = self.vectors
        m = A.shape[1]
        ls, _, _, _ = np.linalg.lstsq(A, target, rcond=None)
        proj = A @ ls
        residual = float(np.linalg.norm(target - proj))
        # min sum(c+ + c-)  s.t.  A (c+ - c-) = proj,  c+- >= 0
        c_obj = np.ones(2 * m)
        A_eq = np.hstack([A, -A])
        res = linprog(c_obj, A_eq=A_eq, b_eq=proj, bounds=[(0, None)] * (2 * m),
                      method="highs")
        if res.status == 0:
            coeff = res.x[:m] - res.x[m:]
        else:  # LP can fail on ill-posed inputs; fall back to least squares
            coeff = ls
        return coeff, residual

    def contains(self, vector: np.ndarray, rel_tol: float = 1e-8) -> bool:
        _, residual = self.coefficient_solver(vector)
        scale = max(float(np.linalg.norm(vector)), 1e-300)
        return residual <= rel_tol * scale


@dataclass(frozen=True)
class BracketChain:
    """Nested pointwise distributions produced by iterated brackets."""

    anchor: np.ndarray
    generations: tuple[DistributionBasis, ...]
    rank_profile: tuple[int, ...]

    @property
    def final_rank(self) -> int:
        return self.rank_profile[-1] if self.rank_profile else 0

    def saturation_generation(self, dimension: int) -> int | None:
        """1-based generation at which the rank reaches the chart dimension."""
        for g, r in enumerate(self.rank_profile, start=1):
            if r >= dimension:
                return g
        return None


@dataclass(frozen=True)
class OrbitSample:
    """A reachable cloud: endpoints of random admissible words from a seed."""

    seed: np.ndarray
    cloud: tuple[tuple[np.ndarray, tuple[tuple[str, float], ...], bool], ...]
    budget_used: int
    rng_seed: int
    d_max: float

    def points(self) -> np.ndarray:
        return np.array([p for p, _, _ in self.cloud])


@dataclass(frozen=True)
class Verdict:
    """Controllability conclusion with the rank evidence that produced it."""

    kind: str  # exactly_controllable | approximately_controllable | rank_deficient
    evidence: dict


def distribution_at(family: FieldFamily, x: np.ndarray,
                    include_enlarged: Sequence[VectorField] = ()) -> DistributionBasis:
    """Evaluate the family (plus any enlarged fields) at x and build the basis."""
    x = np.asarray(x, dtype=float)
    fields_all = tuple(family.members) + tuple(include_enlarged)
    cols = []
    labels = []
    for f in fields_all:
        if not f.domain.contains(x, inflate=1e-12):
            raise OutOfDomain(f"{f.label}: anchor outside domain")
        cols.append(f(x))
        labels.append(f.label)
    vectors = np.stack(cols, axis=1) if cols else np.zeros((x.size, 0))
    return DistributionBasis(anchor=x.copy(), vectors=vectors,
                             source_labels=tuple(labels), source_fields=fields_all)


def trivialization_eval(basis: DistributionBasis, family: FieldFamily,
                        w: L1Coefficients, y: np.ndarray) -> np.ndarray:
    """Sum of w-weighted source fields evaluated at y (the lower
    trivialization; at the anchor it reproduces the basis combination)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(family.space.dimension)
    for idx, val in w.entries:
        if idx >= len(basis.source_fields):
            raise IndexError(f"coefficient index {idx} beyond basis size")
        f = basis.source_fields[idx]
        if not f.domain.contains(y, inflate=1e-12):
            raise OutOfDomain(f"{f.label}: evaluation point outside domain")
        out += val * f(y)
    return out


@dataclass(frozen=True)
class SliceGrid:
    """Image of a parameter grid under the composition chart map."""

    params: np.ndarray
    points: np.ndarray
    axes: tuple[int, ...]
    jacobian_rank_at_zero: int
    diagnostics: dict = field(compare=False, default_factory=dict)


def slice_grid(family: FieldFamily, lb: LbRecord, x: np.ndarray, rho: float,
               grid_per_axis: int, axes: Sequence[int],
               tol: float = DEFAULT_TOL) -> SliceGrid:
    """Map the parameter box ``|w_axis| <= rho`` through the chart map.

    ``rho`` must stay below the smallness radius r/k.  At the origin the
    differential sends the canonical directions to the field values, so the
    reported rank at zero should equal the number of axes wherever the
    slice is a genuine local parametrization.
    """
    x = np.asarray(x, dtype=float)
    axes = tuple(int(a) for a in axes)
    if len(axes) > 3:
        raise InvalidArgument("at most 3 grid axes are supported")
    cert = guard(lb, x, 1.0, rho)
    limit = cert.r / cert.k
    if not cert.satisfied:
        raise GuardViolated(f"rho={rho:.6g} is not below the smallness bound r/k={limit:.6g}")
    grids = np.meshgrid(*[np.linspace(-rho, rho, grid_per_axis)] * len(axes), indexing="ij")
    params = np.stack([g.ravel() for g in grids], axis=1)
    pts = []
    for w in params:
        tau = L1Coefficients.from_pairs(zip(axes, w))
        # finite words with per-axis smallness: run with the guard overridden
        # but the region confinement still active
        res = compose_flows(family, lb, tau, x, tol=tol, unsafe=True)
        pts.append(res.endpoint)
    base_vectors = np.stack([family.members[a](x) for a in axes], axis=1)
    rank0 = numerical_rank(base_vectors)
    return SliceGrid(params=params, points=np.array(pts), axes=axes,
                     jacobian_rank_at_zero=rank0,
                     diagnostics={"rho": rho, "smallness_limit": limit})


def orbit_sample(family: FieldFamily, lb: LbRecord, x: np.ndarray, budget: int,
                 max_word_len: int, rng_seed: int, tol: float = 1e-6,
                 d_max: float | None = None, mode: str = "explore",
                 exploration_radius: float | None = None) -> OrbitSample:
    """Sample the reachable cloud by integrating random words from x.

    Word letters always pick a uniform member index and a duration uniform
    in ``[-d_max, d_max]`` with ``d_max`` half the single-leg guard margin,
    so every leg is individually admissible.  Legs that would exit the
    working region truncate the word at the last valid point and mark the
    entry.  Deterministic for a fixed ``rng_seed``.

    ``mode="explore"`` (default) grows words incrementally: each step draws
    a target uniformly in a box of half-width ``exploration_radius`` around
    the seed and extends the nearest stored point whose word is still below
    ``max_word_len``, which spreads the cloud far more evenly than blind
    words.  ``mode="independent"`` integrates ``budget`` unrelated words of
    ``max_word_len`` legs each, storing every leg endpoint in generation
    order.
    """
    if budget < 1:
        raise InvalidArgument("budget must be >= 1")
    x = np.asarray(x, dtype=float)
    r = existence_radius(lb, x)
    if d_max is None:
        d_max = 0.5 * r / lb.bound_k
    if exploration_radius is None:
        exploration_radius = 0.2 * r
    if mode == "explore":
        cloud = _sample_explore(family, lb, x, budget, max_word_len, rng_seed,
                                tol, d_max, exploration_radius)
    elif mode == "independent":
        cloud = _sample_independent(family, lb, x, budget, max_word_len, rng_seed,
                                    tol, d_max)
    else:
        raise InvalidArgument("mode must be 'explore' or 'independent'")
    return OrbitSample(seed=x.copy(), cloud=cloud, budget_used=budget,
                       rng_seed=rng_seed, d_max=d_max)


def _sample_explore(family, lb, x, budget, max_word_len, rng_seed, tol, d_max,
                    exploration_radius):
    rng = np.random.default_rng(rng_seed)
    labels = family.labels()
    m = len(family.members)
    dim = x.size
    pts = np.empty((budget + 1, dim))
    pts[0] = x
    words: list[tuple[tuple[str, float], ...]] = [()]
    depth = np.zeros(budget + 1, dtype=int)
    flags: list[bool] = [False]
    n = 1
    for _ in range(budget):
        target = x + exploration_radius * rng.uniform(-1.0, 1.0, size=dim)
        idx = int(rng.integers(0, m))
        dur = float(rng.uniform(-d_max, d_max))
        d2 = np.einsum("ij,ij->i", pts[:n] - target, pts[:n] - target)
        d2[depth[:n] >= max_word_len] = np.inf
        pi = int(np.argmin(d2))
        if not np.isfinite(d2[pi]):
            continue  # every stored word is at the depth cap
        try:
            y = flow_single(family.members[idx], pts[pi], dur, tol=tol,
                            region=lb.region).endpoint
        except (LeftDomain, StepUnderflow):
            flags[pi] = True  # the last valid point of the attempted word
            continue
        pts[n] = y
        words.append(words[pi] + ((labels[idx], dur),))
        depth[n] = depth[pi] + 1
        flags.append(False)
        n += 1
    return tuple((pts[i].copy(), words[i], flags[i]) for i in range(n))


def _sample_independent(family, lb, x, budget, max_word_len, rng_seed, tol, d_max):
    rng = np.random.default_rng(rng_seed)
    labels = family.labels()
    m = len(family.members)
    cloud: list[tuple[np.ndarray, tuple[tuple[str, float], ...], bool]] = [(x.copy(), (), False)]
    for _ in range(budget):
        word = FlowWord([(int(rng.integers(0, m)), float(rng.uniform(-d_max, d_max)))
                         for _ in range(max_word_len)])
        legs = word.legs(family.members, x, tol, lb.region)
        y, executed = x, ()
        try:
            for (idx, dur), (y, _) in zip(word.letters, legs):
                executed = executed + ((labels[idx], dur),)
                cloud.append((y, executed, False))
        except (LeftDomain, StepUnderflow):
            # the last valid point of the attempted word
            cloud.append((y.copy(), executed, True))
    return tuple(cloud)


def replay_word(family: FieldFamily, seed: np.ndarray, word: Sequence[tuple[str, float]],
                tol: float = 1e-6, region=None) -> np.ndarray:
    """Re-integrate a stored (label, duration) word from the seed."""
    index = {m.label: i for i, m in enumerate(family.members)}
    return FlowWord(tuple((index[label], dur) for label, dur in word)).apply(
        family, seed, tol=tol, region=region)


def spot_check_sample(family: FieldFamily, sample: OrbitSample, fraction: float = 0.05,
                      tol: float = 1e-6) -> float:
    """Replay a deterministic fraction of the cloud's words and return the
    largest distance between a stored point and its replay."""
    stride = max(1, int(round(1.0 / max(fraction, 1e-9))))
    return max((float(np.linalg.norm(replay_word(family, sample.seed, word, tol=tol) - point))
                for point, word, _ in sample.cloud[::stride]), default=0.0)


def accessibility_verdict(family: FieldFamily, lb: LbRecord, x: np.ndarray, k_max: int,
                          truncation_levels: tuple[int, ...] = (0, 5, 10)) -> Verdict:
    """Run the bracket chain and classify reachability at x.

    Rank saturation at the chart dimension gives an exact verdict.  On charts
    flagged as truncations of a summable sequence space with an extendable
    family, strictly growing final ranks across three truncation levels are
    taken as evidence of approximate controllability (a documented heuristic:
    density can only manifest asymptotically).  Anything else reports the
    limiting rank.
    """
    from .algebra import bracket_chain  # deferred: algebra imports this module

    x = np.asarray(x, dtype=float)
    chain = bracket_chain(family, x, k_max)
    n = family.space.dimension
    sat = chain.saturation_generation(n)
    if sat is not None:
        return Verdict(kind="exactly_controllable",
                       evidence={"rank_profile": chain.rank_profile, "saturation_k": sat,
                                 "dimension": n, "k": lb.bound_k})
    if family.space.truncation_of_l1 and family.truncation_factory is not None:
        base = len(family.members)
        # at the base count the factory would rebuild the family itself
        ranks = [chain.final_rank if count == base else
                 bracket_chain(family.truncation_factory(count), x, k_max).final_rank
                 for count in (min(n, base + lvl) for lvl in truncation_levels)]
        if all(b > a for a, b in zip(ranks, ranks[1:])):
            return Verdict(kind="approximately_controllable",
                           evidence={"rank_profile": chain.rank_profile,
                                     "truncation_ranks": tuple(ranks),
                                     "truncation_levels": truncation_levels,
                                     "dimension": n, "k": lb.bound_k})
    return Verdict(kind="rank_deficient",
                   evidence={"rank_profile": chain.rank_profile,
                             "final_rank": chain.final_rank, "dimension": n,
                             "k": lb.bound_k})


@dataclass(frozen=True)
class InvarianceReport:
    """Residuals of pushed basis vectors against the target-point span."""

    residuals: np.ndarray
    max_residual: float
    rank_source: int
    rank_target: int


def invariance_residual(family: FieldFamily, x: np.ndarray, flow_index: int, t: float,
                        lb: LbRecord, include_enlarged: Sequence[VectorField] = (),
                        tol: float = DEFAULT_TOL) -> InvarianceReport:
    """Push the basis at x through one member flow and measure how far the
    pushed vectors leave the span at the target point.

    An invariant distribution keeps every residual at integrator scale; a
    non-invariant one shows order-one residuals exactly where the rank
    jumps.
    """
    x = np.asarray(x, dtype=float)
    src = distribution_at(family, x, include_enlarged)
    res = flow_single(family.members[flow_index], x, t, tol=tol,
                      with_variational=True, region=lb.region)
    y = res.endpoint
    M = res.endpoint_variational
    tgt = distribution_at(family, y, include_enlarged)
    # residual of each pushed vector against the orthogonal projector onto
    # the target span (euclidean geometry is enough for a rank statement);
    # the leading left singular vectors span it even when the leading
    # columns are dependent
    U, _, _ = np.linalg.svd(tgt.vectors, full_matrices=False)
    Q = U[:, :tgt.rank]
    residuals = []
    for j in range(src.vectors.shape[1]):
        v = M @ src.vectors[:, j]
        nv = float(np.linalg.norm(v))
        if nv < 1e-14:
            residuals.append(0.0)
            continue
        defect = v - Q @ (Q.T @ v)
        residuals.append(float(np.linalg.norm(defect)) / nv)
    residuals = np.asarray(residuals)
    return InvarianceReport(residuals=residuals,
                            max_residual=float(residuals.max(initial=0.0)),
                            rank_source=src.rank, rank_target=tgt.rank)
