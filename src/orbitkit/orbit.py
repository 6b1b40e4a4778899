"""Pointwise distributions, trivializations, slices, orbit clouds and
accessibility verdicts.

A :class:`DistributionBasis` collects the values of a set of fields at an
anchor point together with a least-l1-norm coefficient solver, the finite
shadow of representing tangent vectors by summable coefficient families.  The
solver is exact without an LP solver on small bases, where it enumerates the
basic solutions; only a basis with more than ``MAX_SUPPORTS`` of them loads
``scipy.optimize`` for HiGHS.
Bracket generations stack into a :class:`BracketChain` whose rank profile
drives the controllability verdicts.

Independent-mode clouds, their spot-check replays and slice grids evaluate
many flow words from one point; each is one :func:`run_words` run, a
stacked segment per letter position, in the region the words belong to.
Explore-mode clouds grow in rounds of ``EXPLORE_ROUND`` targets, each
extending the stored point nearest it among those stored before the
round; a round is one :func:`run_words` run of one-letter words, each from
its own parent.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import InvalidArgument, OutOfDomain
# compose_flows stays bound here so that tracing can wrap every binding of it
from .compose import compose_flows  # noqa: F401
from .fields import FieldFamily, LbRecord, VectorField
from .flow import (DEFAULT_TOL, ExistenceCertificate, FlowWord, _raise_first, flow_single, guard,
                   run_words)
from .space import Ball, L1Coefficients, integer, positive

RANK_REL_TOL = 1e-8
# coefficient_solver enumerates the supports of a basis with at most this many
# and hands a wider one to linprog: at the cap, 20 supports of 19 columns,
# enumeration is still faster than HiGHS
MAX_SUPPORTS = 20
# member counts added to the base count for accessibility_verdict's truncation chains
TRUNCATION_LEVELS = (0, 5, 10)
# explore-mode clouds extend this many stored points per round, as one word run
EXPLORE_ROUND = 16


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first use: importing
    scipy.optimize costs more than the rest of orbitkit's start-up and about
    50 MiB of memory, and only the least-l1 coefficient solver needs it, on a
    basis too wide to enumerate (more than ``MAX_SUPPORTS`` supports)."""
    from scipy.optimize import linprog as solve
    return solve(*args, **kwargs)


def numerical_rank(matrix: np.ndarray) -> int:
    """Rank with singular values at or below RANK_REL_TOL * s_max counted as zero."""
    if matrix.size == 0:
        return 0
    return int(rank_of_singular_values(np.linalg.svd(matrix, compute_uv=False)))


def rank_of_singular_values(s: np.ndarray) -> np.ndarray:
    """The :func:`numerical_rank` rule applied to singular values sorted in
    decreasing order along the last axis; a stack gives an array of ranks."""
    return np.sum(s > RANK_REL_TOL * s[..., :1], axis=-1)


@dataclass(frozen=True)
class DistributionBasis:
    """Spanning vectors of a pointwise distribution with provenance.

    ``vectors`` is a (dim, m) matrix whose columns are the field values at
    ``anchor``; ``source_labels`` names the producing fields and
    ``source_fields`` keeps them evaluable for downstream trivializations.
    ``rank`` and ``condition`` are read from the vectors' singular values.
    """

    anchor: np.ndarray
    vectors: np.ndarray
    source_labels: tuple[str, ...]
    source_fields: tuple[VectorField, ...] = field(compare=False, repr=False, default=())
    rank: int = field(init=False)
    condition: float = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        object.__setattr__(self, "vectors", v)
        s = np.linalg.svd(v, compute_uv=False) if v.size else np.array([])
        object.__setattr__(self, "rank", int(rank_of_singular_values(s)))
        nonzero = s[s > 0]
        # Python floats: a tiny singular value gives inf, not numpy's overflow warning
        cond = float(nonzero[0]) / float(nonzero[-1]) if nonzero.size else float("inf")
        object.__setattr__(self, "condition", cond)

    def coefficient_solver(self, target: np.ndarray) -> tuple[np.ndarray, float]:
        """Least-l1-norm coefficients representing ``target`` over the columns.

        The target is first projected onto the span by least squares (the
        reported residual is the projection defect); among exact
        representations of the projection the solver returns one of minimal
        l1 norm.  That is a linear program, feasible and bounded below, so
        its optimum is attained at a basic solution: one carried by r
        linearly independent columns, r the rank least squares found, with
        every other coefficient zero.  When there are at most
        ``MAX_SUPPORTS`` supports of r columns, the solver solves the
        projection on all of them in one batched least-squares call, which
        yields every basic solution and so the exact optimum; a wider basis
        goes to :func:`linprog`.  The least-squares coefficients are one more
        candidate.  Of the candidates that reconstruct the projection to
        1e-9 * (1 + sup|proj|), it returns the first of least l1 norm, which
        is never heavier than least squares.  ``target`` must hold one finite
        number per chart coordinate.
        """
        target = np.asarray(target, dtype=float)
        A = self.vectors
        d, m = A.shape
        if target.shape != (d,) or not np.all(np.isfinite(target)):
            raise InvalidArgument(f"target must be {d} finite numbers, "
                                  f"not an array of shape {target.shape}")
        ls, _, r, _ = np.linalg.lstsq(A, target, rcond=None)
        proj = A @ ls
        residual = float(np.linalg.norm(target - proj))
        count = math.comb(m, r)
        if count <= MAX_SUPPORTS:
            supports = np.array(list(itertools.combinations(range(m), r)),
                                dtype=int).reshape(count, r)
            candidates = np.zeros((count, m))
            candidates[np.arange(count)[:, None], supports] = (
                np.linalg.pinv(A[:, supports].transpose(1, 0, 2)) @ proj)
        else:
            # min sum(c+ + c-)  s.t.  A (c+ - c-) = proj,  c+- >= 0
            res = linprog(np.ones(2 * m), A_eq=np.hstack([A, -A]), b_eq=proj,
                          bounds=[(0, None)] * (2 * m), method="highs")
            candidates = [res.x[:m] - res.x[m:]] if res.status == 0 else np.empty((0, m))
        candidates = np.vstack([candidates, ls])
        error = np.abs(candidates @ A.T - proj).max(axis=1, initial=0.0)
        l1 = np.abs(candidates).sum(axis=1)
        l1[error > 1e-9 * (1.0 + np.abs(proj).max(initial=0.0))] = np.inf
        return candidates[np.argmin(l1)], residual


@dataclass(frozen=True)
class BracketChain:
    """Nested pointwise distributions produced by iterated brackets."""

    anchor: np.ndarray
    generations: tuple[DistributionBasis, ...]

    @property
    def rank_profile(self) -> tuple[int, ...]:
        """The rank of each generation."""
        return tuple(g.rank for g in self.generations)

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
    """A reachable cloud: endpoints of random admissible words from a seed.

    ``certificate`` is the single-leg guard at the seed for legs of length
    ``d_max``, half its bound r/k.  Each cloud entry is a point, the
    :class:`FlowWord` of member indices that reached it, and whether it is
    the last valid point of a word that left the region.  ``region`` is the
    working region the words ran in, where :func:`replay_word` and
    :func:`spot_check_sample` replay them."""

    seed: np.ndarray
    cloud: tuple[tuple[np.ndarray, FlowWord, bool], ...]
    d_max: float
    certificate: ExistenceCertificate
    region: Ball

    def points(self) -> np.ndarray:
        return np.array([p for p, _, _ in self.cloud])


@dataclass(frozen=True)
class Verdict:
    """Controllability conclusion with the rank evidence that produced it.

    ``kind`` is ``exactly_controllable`` (with ``saturation_k``, the
    generation whose rank reaches ``dimension``), ``approximately_controllable``
    (with ``truncation_ranks``, the final ranks at the truncation levels) or
    ``rank_deficient`` (with ``final_rank``); the other two are ``None``.
    """

    kind: str
    rank_profile: tuple[int, ...]
    dimension: int
    saturation_k: int | None = None
    final_rank: int | None = None
    truncation_ranks: tuple[int, ...] | None = None


def distribution_at(family: FieldFamily, x: np.ndarray,
                    include_enlarged: Sequence[VectorField] = ()) -> DistributionBasis:
    """Evaluate the family (plus any enlarged fields) at x and build the basis."""
    x = np.asarray(x, dtype=float)
    fields_all = tuple(family.members) + tuple(include_enlarged)
    cols = []
    for f in fields_all:
        if not f.domain.contains(x):
            raise OutOfDomain(f"{f.label}: anchor outside domain")
        cols.append(f(x))
    vectors = np.stack(cols, axis=1) if cols else np.zeros((x.size, 0))
    return DistributionBasis(anchor=x.copy(), vectors=vectors, source_fields=fields_all,
                             source_labels=tuple(f.label for f in fields_all))


def trivialization_eval(basis: DistributionBasis, family: FieldFamily,
                        w: L1Coefficients, y: np.ndarray) -> np.ndarray:
    """Sum of w-weighted source fields evaluated at y (the lower
    trivialization; at the anchor it reproduces the basis combination)."""
    y = np.asarray(y, dtype=float)
    out = np.zeros(family.space.dimension)
    for idx, val in w.entries:
        if idx >= len(basis.source_fields):
            raise InvalidArgument(f"coefficient index {idx} beyond basis size")
        f = basis.source_fields[idx]
        if not f.domain.contains(y):
            raise OutOfDomain(f"{f.label}: evaluation point outside domain")
        out += val * f(y)
    return out


@dataclass(frozen=True)
class SliceGrid:
    """Image of a parameter grid under the composition chart map, with the
    per-axis smallness guard ``rho < r/k`` it enforced."""

    params: np.ndarray
    points: np.ndarray
    axes: tuple[int, ...]
    jacobian_rank_at_zero: int
    certificate: ExistenceCertificate


def slice_grid(family: FieldFamily, lb: LbRecord, x: np.ndarray, rho: float,
               grid_per_axis: int, axes: Sequence[int],
               tol: float = DEFAULT_TOL, unsafe: bool = False) -> SliceGrid:
    """Map the parameter box ``|w_axis| <= rho`` through the chart map.

    ``rho`` must be positive and finite and stay below the smallness radius
    r/k unless ``unsafe`` overrides the guard; ``grid_per_axis`` must be at
    least 1, and the axes must be distinct family members.  Grid point w is
    the composition along ``tau = sum w_axis e_axis``: its word flows each
    axis field for ``w_axis`` in index order, in the lb region, and all the
    words run as one stacked segment per axis (:func:`run_words`), with the
    guard overridden but the region confinement still active.  At the
    origin the differential sends the canonical directions to the field
    values, so the reported rank at zero should equal the number of axes
    wherever the slice is a genuine local parametrization.
    """
    x = np.asarray(x, dtype=float)
    family.check_members(axes)
    axes = tuple(int(a) for a in axes)
    if len(axes) > 3:
        raise InvalidArgument("at most 3 grid axes are supported")
    if len(set(axes)) < len(axes):
        raise InvalidArgument(f"slice axes must be distinct, not {axes}")
    rho, grid_per_axis = positive(rho, "rho"), integer(grid_per_axis, "grid_per_axis", 1)
    cert = guard(lb, x, 1.0, rho).enforce(unsafe)
    grids = np.meshgrid(*[np.linspace(-rho, rho, grid_per_axis)] * len(axes), indexing="ij")
    params = np.stack([g.ravel() for g in grids], axis=1)
    order = np.argsort(axes)
    words = [FlowWord(tuple((axes[i], w[i]) for i in order)) for w in params]
    paths, _ = _raise_first(run_words(family, words, x, tol, lb.region))
    base_vectors = np.stack([family.members[a](x) for a in axes], axis=1)
    rank0 = numerical_rank(base_vectors)
    return SliceGrid(params=params, points=np.array([p[-1] for p in paths]), axes=axes,
                     jacobian_rank_at_zero=rank0, certificate=cert)


def orbit_sample(family: FieldFamily, lb: LbRecord, x: np.ndarray, budget: int,
                 max_word_len: int, rng_seed: int, tol: float = 1e-6,
                 mode: str = "explore", exploration_radius: float | None = None) -> OrbitSample:
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
    words.  The steps run in rounds of ``EXPLORE_ROUND``: a step's parent
    is the nearest among the points stored before its round, and the
    round's extensions are one stacked run, stored in draw order.
    ``mode="independent"`` integrates ``budget`` unrelated words of
    ``max_word_len`` legs each, storing every leg endpoint in generation
    order.  ``budget`` and ``max_word_len`` must be at least 1.
    """
    budget, max_word_len = integer(budget, "budget", 1), integer(max_word_len, "max_word_len", 1)
    if exploration_radius is not None:
        exploration_radius = positive(exploration_radius, "exploration radius")
    x = np.asarray(x, dtype=float)
    d_max = 0.5 * guard(lb, x, 1.0, 0.0).margin
    cert = guard(lb, x, 1.0, d_max)
    if exploration_radius is None:
        exploration_radius = 0.2 * cert.r
    if mode == "explore":
        cloud = _sample_explore(family, lb, x, budget, max_word_len, rng_seed,
                                tol, d_max, exploration_radius)
    elif mode == "independent":
        cloud = _sample_independent(family, lb, x, budget, max_word_len, rng_seed,
                                    tol, d_max)
    else:
        raise InvalidArgument("mode must be 'explore' or 'independent'")
    return OrbitSample(seed=x.copy(), cloud=cloud, d_max=d_max, certificate=cert,
                       region=lb.region)


def _sample_explore(family, lb, x, budget, max_word_len, rng_seed, tol, d_max,
                    exploration_radius):
    rng = np.random.default_rng(rng_seed)
    m = len(family.members)
    dim = x.size
    pts = np.empty((budget + 1, dim))
    pts[0] = x
    words = [FlowWord(())]
    depth = np.zeros(budget + 1, dtype=int)
    flags: list[bool] = [False]
    n = 1
    for start in range(0, budget, EXPLORE_ROUND):
        draws = [(x + exploration_radius * rng.uniform(-1.0, 1.0, size=dim),
                  int(rng.integers(0, m)), float(rng.uniform(-d_max, d_max)))
                 for _ in range(min(EXPLORE_ROUND, budget - start))]
        full = depth[:n] >= max_word_len
        if full.all():
            break  # every stored word is at the depth cap
        # each target extends the nearest point stored before the round
        diff = pts[None, :n] - np.array([target for target, _, _ in draws])[:, None]
        d2 = np.einsum("bij,bij->bi", diff, diff)
        d2[:, full] = np.inf
        parents = np.argmin(d2, axis=1)
        letters = [(idx, dur) for _, idx, dur in draws]
        paths, stops, _ = run_words(family, [FlowWord((letter,)) for letter in letters],
                                 pts[parents], tol, lb.region)
        for pi, letter, path, stop in zip(parents, letters, paths, stops):
            if stop is not None:
                flags[pi] = True  # the last valid point of the attempted word
                continue
            pts[n] = path[-1]
            words.append(FlowWord(words[pi].letters + (letter,)))
            depth[n] = depth[pi] + 1
            flags.append(False)
            n += 1
    return tuple((pts[i].copy(), words[i], flags[i]) for i in range(n))


def _sample_independent(family, lb, x, budget, max_word_len, rng_seed, tol, d_max):
    rng = np.random.default_rng(rng_seed)
    m = len(family.members)
    words = [FlowWord([(int(rng.integers(0, m)), float(rng.uniform(-d_max, d_max)))
                       for _ in range(max_word_len)]) for _ in range(budget)]
    paths, stops, _ = run_words(family, words, x, tol, lb.region)
    cloud = [(x.copy(), FlowWord(()), False)]
    for word, path, stop in zip(words, paths, stops):
        prefixes = [FlowWord(word.letters[:j]) for j in range(len(path))]
        cloud += [(y, prefix, False) for y, prefix in zip(path[1:], prefixes[1:])]
        if stop is not None:
            # the last valid point of the attempted word
            cloud.append((path[-1].copy(), prefixes[-1], True))
    return tuple(cloud)


def replay_word(family: FieldFamily, sample: OrbitSample, word: FlowWord,
                tol: float = 1e-6) -> np.ndarray:
    """Re-integrate a stored word of ``sample`` from its seed, in the region
    the sample ran in."""
    return word.apply(family, sample.seed, tol=tol, region=sample.region)


def spot_check_sample(family: FieldFamily, sample: OrbitSample, tol: float = 1e-6) -> float:
    """Replay every 20th word of the cloud (5%, the first included) from
    the seed, in the region the sample ran in, as one stacked run
    (:func:`run_words`), and return the largest distance between a stored
    point and its replay."""
    checked = sample.cloud[::20]
    paths, _ = _raise_first(run_words(family, [word for _, word, _ in checked], sample.seed, tol,
                                      sample.region))
    return max((float(np.linalg.norm(path[-1] - point))
                for (point, _, _), path in zip(checked, paths)), default=0.0)


def accessibility_verdict(family: FieldFamily, x: np.ndarray, k_max: int) -> Verdict:
    """Run the bracket chain and classify reachability at x.

    Rank saturation at the chart dimension gives an exact verdict.  On charts
    flagged as truncations of a summable sequence space with an extendable
    family, strictly growing final ranks across the ``TRUNCATION_LEVELS`` are
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
        return Verdict("exactly_controllable", chain.rank_profile, n, saturation_k=sat)
    if family.space.truncation_of_l1 and family.truncation_factory is not None:
        base = len(family.members)
        # at the base count the factory would rebuild the family itself
        ranks = tuple(chain.final_rank if count == base else
                      bracket_chain(family.truncation_factory(count), x, k_max).final_rank
                      for count in (min(n, base + lvl) for lvl in TRUNCATION_LEVELS))
        if all(b > a for a, b in zip(ranks, ranks[1:])):
            return Verdict("approximately_controllable", chain.rank_profile, n,
                           truncation_ranks=ranks)
    return Verdict("rank_deficient", chain.rank_profile, n, final_rank=chain.final_rank)


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
    family.check_members((flow_index,))
    x = np.asarray(x, dtype=float)
    src = distribution_at(family, x, include_enlarged)
    # the flow's derivative carries the source vectors as tangent columns
    res = flow_single(family.members[flow_index], x, t, tol=tol,
                      tangents=src.vectors, region=lb.region)
    tgt = distribution_at(family, res.endpoint, include_enlarged)
    # residual of each pushed vector against the orthogonal projector onto
    # the target span (euclidean geometry is enough for a rank statement);
    # the leading left singular vectors span it even when the leading
    # columns are dependent
    U, _, _ = np.linalg.svd(tgt.vectors, full_matrices=False)
    Q = U[:, :tgt.rank]
    V = res.tangents
    nv = np.linalg.norm(V, axis=0)
    defect = np.linalg.norm(V - Q @ (Q.T @ V), axis=0)
    residuals = np.divide(defect, nv, out=np.zeros_like(nv), where=nv >= 1e-14)
    return InvarianceReport(residuals=residuals,
                            max_residual=float(residuals.max(initial=0.0)),
                            rank_source=src.rank, rank_target=tgt.rank)
