import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from orbitkit import orbit
from orbitkit.catalog import affine_l1, commuting_constants, grushin, heisenberg, operator_family
from orbitkit.algebra import FlowWord, bracket_chain, enlarge_field
from orbitkit.compose import compose_flows, extract_l1_curve
from orbitkit.errors import GuardViolated, InvalidArgument, LeftDomain, OutOfDomain, StepUnderflow
from orbitkit.flow import flow_single, guard
from orbitkit.fields import FieldFamily, LbRecord, VectorField, constant_field, estimate_lb_bound
from orbitkit.orbit import (MAX_SUPPORTS, DistributionBasis, accessibility_verdict,
                            distribution_at, invariance_residual, numerical_rank,
                            orbit_sample, rank_of_singular_values, replay_word, slice_grid,
                            spot_check_sample, trivialization_eval)
from orbitkit.space import ChartSpace, L1Coefficients, ball


class TestDistributionAt:
    def test_grushin_rank_drop(self, grush):
        basis = distribution_at(grush, np.array([0.0, 1.0]))
        assert basis.rank == 1
        assert np.allclose(basis.vectors[:, 1], 0.0)

    def test_grushin_full_rank(self, grush):
        basis = distribution_at(grush, np.array([1.0, 0.0]))
        assert basis.rank == 2

    def test_rank_monotone_under_enlargement(self, grush, grush_lb):
        x = np.array([0.0, 1.0])
        plain = distribution_at(grush, x)
        extra = enlarge_field(grush, FlowWord(((0, 0.5),)), 1, 1.0, grush_lb)
        bigger = distribution_at(grush, x, include_enlarged=[extra])
        assert bigger.rank >= plain.rank

    def test_out_of_domain(self, grush):
        with pytest.raises(OutOfDomain):
            distribution_at(grush, np.array([100.0, 0.0]))

    def test_coefficient_solver_reconstructs(self, heis, rng):
        x = np.array([0.3, -0.2, 0.5])
        basis = distribution_at(heis, x)
        for _ in range(5):
            c = rng.uniform(-1, 1, basis.vectors.shape[1])
            v = basis.vectors @ c
            coeff, residual = basis.coefficient_solver(v)
            assert residual <= 1e-8 * max(np.linalg.norm(v), 1e-12)
            assert np.abs(basis.vectors @ coeff - v).max() <= 1e-8 * (1 + np.abs(v).max())
            # the solver may find a sparser certificate, never a heavier one
            assert np.abs(coeff).sum() <= np.abs(c).sum() + 1e-8

    def test_solver_well_conditioned_on_independent_basis(self, heis):
        # the finite shadow of the basis hypothesis: independent vectors and
        # a usable conditioning of the representation
        basis = distribution_at(heis, np.array([0.3, -0.2, 0.5]))
        assert basis.rank == basis.vectors.shape[1]
        assert basis.condition < 1e6

    def test_out_of_span_residual_reported(self, grush):
        basis = distribution_at(grush, np.array([0.0, 1.0]))  # rank 1 span
        coeff, residual = basis.coefficient_solver(np.array([0.0, 1.0]))
        assert residual == pytest.approx(1.0)

    @pytest.mark.parametrize("target", [[np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0], [1.0, 2.0],
                                        [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_bad_target_is_an_invalid_argument(self, heis, target):
        basis = distribution_at(heis, np.array([0.3, -0.2, 0.5]))
        with pytest.raises(InvalidArgument, match="target must be 3 finite numbers"):
            basis.coefficient_solver(np.array(target))

    def test_rank_zero_basis(self):
        fam = operator_family(2, 2, [(1.0, (1, 0), 0, 0), (1.0, (0, 1), 1, 1)])
        basis = distribution_at(fam, np.zeros(2))  # every column vanishes at the origin
        assert basis.rank == 0
        coeff, residual = basis.coefficient_solver(np.array([1.0, 2.0]))
        assert np.array_equal(coeff, [0.0, 0.0])
        assert residual == pytest.approx(math.sqrt(5.0))

    def test_a_subnormal_singular_value_gives_an_infinite_condition(self):
        # a bracket chain at the point (2.2e-313, 0) of the poly family
        # (X1, X2) = (e0, x0 e1) builds this basis
        basis = DistributionBasis(np.zeros(2), np.diag([1.0, 2.2250738585e-313]), ("a", "b"))
        assert basis.rank == 1
        assert basis.condition == math.inf

    def test_rank_and_condition_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            DistributionBasis(np.zeros(2), np.eye(2), ("a", "b"), rank=5)
        with pytest.raises(TypeError):
            DistributionBasis(np.zeros(2), np.eye(2), ("a", "b"), condition=1.0)

    @pytest.mark.parametrize("vectors, target, l1", [
        ([[1.0, 1.0], [0.0, 0.0]], [2.0, 0.0], 2.0),  # duplicate columns
        ([[0.0, 2.0], [0.0, 1.0]], [4.0, 2.0], 2.0),  # a zero column beside a nonzero one
    ])
    def test_degenerate_columns(self, vectors, target, l1):
        basis = DistributionBasis(np.zeros(2), np.array(vectors), ("a", "b"))
        coeff, residual = basis.coefficient_solver(np.array(target))
        assert residual == pytest.approx(0.0, abs=1e-12)
        assert np.abs(basis.vectors @ coeff - target).max() <= 1e-12
        assert np.abs(coeff).sum() == pytest.approx(l1, rel=1e-12)

    def test_least_l1_matches_the_lp_optimum(self, monkeypatch):
        # random overcomplete bases, rank-deficient ones and repeated columns
        # included, against HiGHS on the same projection
        rng = np.random.default_rng(15)
        solve = orbit.linprog
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        def lp_optimum(A, proj):
            m = A.shape[1]
            res = solve(np.ones(2 * m), A_eq=np.hstack([A, -A]), b_eq=proj,
                        bounds=[(0, None)] * (2 * m), method="highs")
            assert res.status == 0
            return res.fun

        def check(A, target):
            calls.clear()
            coeff, _ = DistributionBasis(np.zeros(A.shape[0]), A, ()).coefficient_solver(target)
            ls, _, r, _ = np.linalg.lstsq(A, target, rcond=None)
            proj = A @ ls
            assert np.abs(A @ coeff - proj).max() <= 1e-9 * (1 + np.abs(proj).max())
            assert np.abs(coeff).sum() == pytest.approx(lp_optimum(A, proj), rel=1e-9, abs=1e-12)
            return math.comb(A.shape[1], r), len(calls)

        monkeypatch.setattr(orbit, "linprog", counted)
        for _ in range(200):
            d, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
            kind = rng.integers(3)
            if kind == 0:
                A = rng.standard_normal((d, m))
            elif kind == 1:  # rank below min(d, m)
                k = int(rng.integers(0, min(d, m)))
                A = rng.standard_normal((d, k)) @ rng.standard_normal((k, m))
            else:  # repeated and zero columns
                A = rng.standard_normal((d, int(rng.integers(1, m + 1))))
                A = np.hstack([A, np.zeros((d, 1))])[:, rng.integers(0, A.shape[1] + 1, m)]
            supports, lp_calls = check(A, rng.standard_normal(d))
            assert lp_calls == (supports > MAX_SUPPORTS)
        # the smallest number of columns whose supports of two exceed the cap
        m = next(m for m in range(3, 100) if math.comb(m, 2) > MAX_SUPPORTS)
        assert check(rng.standard_normal((2, m)), rng.standard_normal(2)) == (math.comb(m, 2), 1)


def _per_call_solver(A, target):
    """The least-l1 solver with its support table and pseudo-inverses
    computed on every call, for a basis of at most MAX_SUPPORTS supports."""
    ls, _, r, _ = np.linalg.lstsq(A, target, rcond=None)
    proj = A @ ls
    residual = float(np.linalg.norm(target - proj))
    m = A.shape[1]
    count = math.comb(m, r)
    supports = np.array(list(itertools.combinations(range(m), r)), dtype=int).reshape(count, r)
    candidates = np.zeros((count, m))
    candidates[np.arange(count)[:, None], supports] = (
        np.linalg.pinv(A[:, supports].transpose(1, 0, 2)) @ proj)
    candidates = np.vstack([candidates, ls])
    error = np.abs(candidates @ A.T - proj).max(axis=1, initial=0.0)
    l1 = np.abs(candidates).sum(axis=1)
    l1[error > 1e-9 * (1.0 + np.abs(proj).max(initial=0.0))] = np.inf
    return candidates[np.argmin(l1)], residual


def _random_basis_matrix(rng):
    """A (d, m) matrix with d = 1-5 and m = 1-8: generic, of lower rank, or
    with repeated and zero columns."""
    d, m = int(rng.integers(1, 6)), int(rng.integers(1, 9))
    kind = rng.integers(3)
    if kind == 0:
        return rng.standard_normal((d, m))
    if kind == 1:
        k = int(rng.integers(0, min(d, m)))
        return rng.standard_normal((d, k)) @ rng.standard_normal((k, m))
    A = rng.standard_normal((d, int(rng.integers(1, m + 1))))
    return np.hstack([A, np.zeros((d, 1))])[:, rng.integers(0, A.shape[1] + 1, m)]


class TestSolverCache:
    def test_repeated_solves_equal_the_per_call_solver_bit_for_bit(self):
        rng = np.random.default_rng(28)
        matrices = []
        while len(matrices) < 300:
            A = _random_basis_matrix(rng)
            if math.comb(A.shape[1], numerical_rank(A)) <= MAX_SUPPORTS:
                matrices.append(A)
        bases = [DistributionBasis(np.zeros(A.shape[0]), A, ()) for A in matrices]
        # each round sends one target to every basis, so the solves on one
        # basis are interleaved with the others'
        for _ in range(4):
            for A, basis in zip(matrices, bases):
                target = rng.standard_normal(A.shape[0])
                if rng.uniform() < 0.5:  # a target in the span
                    target = A @ rng.standard_normal(A.shape[1])
                coeff, residual = basis.coefficient_solver(target)
                want, want_residual = _per_call_solver(A, target)
                assert np.array_equal(coeff, want)
                assert residual == want_residual

    @pytest.mark.parametrize("vectors", [
        [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]],  # rank 2 of 3 columns
        [[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]],  # duplicate and zero columns, rank 1
        [[0.0, 0.0], [0.0, 0.0]],  # rank 0
    ])
    def test_twelve_solves_take_one_pseudo_inverse_per_rank(self, monkeypatch, rng, vectors):
        pinv, calls = np.linalg.pinv, []

        def counted(*args, **kwargs):
            calls.append(1)
            return pinv(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "pinv", counted)
        basis = DistributionBasis(np.zeros(len(vectors)), np.array(vectors), ("a", "b", "c"))
        assert calls == []  # nothing is factored before the first solve
        for _ in range(12):
            basis.coefficient_solver(rng.standard_normal(len(vectors)))
        assert len(calls) == 1

    def test_the_basis_keeps_a_read_only_copy_of_its_vectors(self):
        A = np.eye(2)
        basis = DistributionBasis(np.zeros(2), A, ("a", "b"))
        A[0, 0] = 5.0
        assert basis.vectors[0, 0] == 1.0
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 5.0


def _blowing_up(value):
    """X1 = e0 and X2 = (0, value if x0 > 0.5 else x0) on the plane, as
    callables."""
    dom = ball([0, 0], 4.0)
    members = (VectorField(dom, lambda x: np.array([1.0, 0.0]), label="X1"),
               VectorField(dom, lambda x: np.array([0.0, value if x[0] > 0.5 else x[0]]),
                           label="X2"))
    return FieldFamily(space=ChartSpace(2), members=members, common_domain=dom)


# calls whose basis at (1, 0) holds a column that is not finite: with inf,
# distribution_at returned rank 0 and the others raised numpy's LinAlgError
# (coefficient_solver after LAPACK errors on stderr); with NaN all of them
# raised LinAlgError
_NON_FINITE_AT = {
    "distribution_at": lambda f, x: distribution_at(f, x),
    "coefficient_solver": lambda f, x: distribution_at(f, x).coefficient_solver(np.ones(2)),
    "bracket_chain": lambda f, x: bracket_chain(f, x, 2),
    "accessibility_verdict": lambda f, x: accessibility_verdict(f, x, 2),
    "invariance_residual": lambda f, x: invariance_residual(
        f, x, 0, 0.1, LbRecord(0, 1.0, f.common_domain, "declared")),
}


@pytest.mark.parametrize("value", [math.inf, math.nan])
@pytest.mark.parametrize("call", list(_NON_FINITE_AT))
def test_a_basis_vector_that_is_not_finite_is_out_of_domain(call, value):
    with pytest.raises(OutOfDomain, match="X2: value is not finite"):
        _NON_FINITE_AT[call](_blowing_up(value), np.array([1.0, 0.0]))


def test_a_non_finite_column_without_a_label_is_named_by_its_index():
    with pytest.raises(OutOfDomain, match="column 1: value is not finite"):
        DistributionBasis(np.zeros(2), np.array([[1.0, 0.0], [0.0, math.nan]]), ())


class TestTrivialization:
    def test_basis_vector_at_anchor(self, heis):
        x = np.array([0.4, 0.0, 0.1])
        basis = distribution_at(heis, x)
        got = trivialization_eval(basis, heis, L1Coefficients(((1, 1.0),)), x)
        assert np.array_equal(got, heis.members[1](x))

    def test_zero_coefficients(self, heis):
        x = np.zeros(3)
        basis = distribution_at(heis, x)
        assert np.array_equal(trivialization_eval(basis, heis, L1Coefficients(()), x),
                              np.zeros(3))

    def test_constant_family_independent_of_point(self):
        fam = commuting_constants(3, 2)
        basis = distribution_at(fam, np.zeros(3))
        w = L1Coefficients(((0, 2.0), (1, -1.0)))
        a = trivialization_eval(basis, fam, w, np.zeros(3))
        b = trivialization_eval(basis, fam, w, np.array([0.5, -0.5, 1.0]))
        assert np.array_equal(a, b)

    def test_index_beyond_the_basis_is_an_invalid_argument(self, heis):
        basis = distribution_at(heis, np.zeros(3))
        w = L1Coefficients(((len(basis.source_fields), 1.0),))
        with pytest.raises(InvalidArgument, match="beyond basis size"):
            trivialization_eval(basis, heis, w, np.zeros(3))


class TestSliceGrid:
    def test_flat_slice_is_affine(self):
        fam = commuting_constants(3, 2)
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 20)
        res = slice_grid(fam, lb, np.zeros(3), rho=0.5, grid_per_axis=3, axes=[0, 1])
        assert res.jacobian_rank_at_zero == 2
        for w, p in zip(res.params, res.points):
            assert np.allclose(p, [w[0], w[1], 0.0], atol=1e-9)

    def test_heisenberg_surface(self, heis, heis_lb):
        res = slice_grid(heis, heis_lb, np.zeros(3), rho=0.3, grid_per_axis=3,
                         axes=[0, 1])
        assert res.jacobian_rank_at_zero == 2
        # closed form of the two-letter composition: (w0, w1, w0*w1)
        for w, p in zip(res.params, res.points):
            assert np.allclose(p, [w[0], w[1], w[0] * w[1]], atol=1e-7)

    def test_single_axis_is_integral_curve(self, heis, heis_lb):
        from orbitkit.flow import flow_single
        res = slice_grid(heis, heis_lb, np.zeros(3), rho=0.3, grid_per_axis=5, axes=[0])
        for w, p in zip(res.params, res.points):
            direct = flow_single(heis.members[0], np.zeros(3), float(w[0])).endpoint
            assert np.allclose(p, direct, atol=1e-9)

    def test_rho_guard(self, heis, heis_lb):
        with pytest.raises(GuardViolated):
            slice_grid(heis, heis_lb, np.zeros(3), rho=1.0, grid_per_axis=3, axes=[0, 1])

    @pytest.mark.parametrize("rho", [-0.5, 0.0, float("nan"), float("inf")])
    def test_rho_must_be_positive_and_finite(self, heis, heis_lb, rho):
        # a negative rho maps the same box as |rho| but passed the guard with
        # margin r/k + |rho|
        with pytest.raises(InvalidArgument):
            slice_grid(heis, heis_lb, np.zeros(3), rho=rho, grid_per_axis=3, axes=[0, 1])

    @pytest.mark.parametrize("grid", [0, -2])
    def test_grid_below_one_is_an_invalid_argument(self, heis, heis_lb, grid):
        with pytest.raises(InvalidArgument):
            slice_grid(heis, heis_lb, np.zeros(3), rho=0.3, grid_per_axis=grid, axes=[0, 1])

    def test_repeated_axes_are_an_invalid_argument(self, heis, heis_lb):
        # axes 0 0 used to add up: the points flowed X1 for up to 2 rho, past r/k
        with pytest.raises(InvalidArgument):
            slice_grid(heis, heis_lb, np.zeros(3), rho=0.3, grid_per_axis=3, axes=[0, 0])

    @pytest.mark.parametrize("axes", [[0, 1], [1, 0], [2, 0, 3]])
    def test_stacked_slice_matches_per_point_compositions(self, axes):
        fam = affine_l1(5, 4, 0.8, linear_part=True)
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 20)
        x = np.array([0.1, -0.05, 0.02, 0.03, -0.01])
        tol, rho = 1e-9, 0.1
        res = slice_grid(fam, lb, x, rho=rho, grid_per_axis=3, axes=axes, tol=tol)
        for w, p in zip(res.params, res.points):
            tau = L1Coefficients.from_pairs(zip(axes, w))
            ref = compose_flows(fam, lb, tau, x, tol=tol, unsafe=True).endpoint
            assert np.abs(p - ref).max() <= tol * (1 + rho * len(axes))

    def test_unsafe_overrides_the_rho_guard(self, heis, heis_lb):
        res = slice_grid(heis, heis_lb, np.zeros(3), rho=1.0, grid_per_axis=3, axes=[0, 1],
                         unsafe=True)
        assert res.certificate.unsafe and not res.certificate.satisfied
        assert res.certificate.T0 == 1.0
        for w, p in zip(res.params, res.points):
            assert np.allclose(p, [w[0], w[1], w[0] * w[1]], atol=1e-7)


# calls whose index or count is not an integer: the first two raised a bare
# TypeError or truncated the axis, the others raised a bare TypeError
_NOT_INTEGERS = {
    "invariance_residual index": lambda f, lb: invariance_residual(f, np.zeros(3), 1.5, 0.2, lb),
    "slice_grid axis": lambda f, lb: slice_grid(f, lb, np.zeros(3), 0.1, 2, (0, 1.5)),
    "orbit_sample budget": lambda f, lb: orbit_sample(f, lb, np.zeros(3), budget=2.5,
                                                      max_word_len=2, rng_seed=1),
    "slice_grid grid_per_axis": lambda f, lb: slice_grid(f, lb, np.zeros(3), 0.1, 2.5, (0, 1)),
    "extract_l1_curve samples_per_piece": lambda f, lb: extract_l1_curve(
        compose_flows(f, lb, L1Coefficients(((0, 0.1),)), np.zeros(3)), 2.5),
}


@pytest.mark.parametrize("call", list(_NOT_INTEGERS))
def test_an_index_or_count_that_is_not_an_integer_is_refused(heis, heis_lb, call):
    with pytest.raises(InvalidArgument, match="integer"):
        _NOT_INTEGERS[call](heis, heis_lb)


class TestOrbitSample:
    def test_budget_one_word_length_zero(self, grush, grush_lb):
        # a word length below 1 used to give the seed alone as the cloud,
        # whatever the budget asked for
        for mode in ("explore", "independent"):
            for max_word_len in (0, -1, math.nan):
                with pytest.raises(InvalidArgument, match="max_word_len"):
                    orbit_sample(grush, grush_lb, np.zeros(2), budget=1,
                                 max_word_len=max_word_len, rng_seed=1, mode=mode)
        # a NaN budget raised a bare TypeError
        with pytest.raises(InvalidArgument, match="budget"):
            orbit_sample(grush, grush_lb, np.zeros(2), budget=math.nan, max_word_len=1, rng_seed=1)

    @pytest.mark.parametrize("radius", [0.0, -0.5, float("nan"), float("inf")])
    def test_exploration_radius_must_be_positive_and_finite(self, grush, grush_lb, radius):
        # a NaN radius used to end with one cloud point where 21 were asked for
        with pytest.raises(InvalidArgument):
            orbit_sample(grush, grush_lb, np.zeros(2), budget=20, max_word_len=4,
                         rng_seed=1, exploration_radius=radius)

    def test_grushin_covers_both_half_planes(self):
        fam = grushin(radius=9.0)
        lb = estimate_lb_bound(fam, ball([0, 0], 9.0), 2, 50)
        samp = orbit_sample(fam, lb, np.zeros(2), budget=2000, max_word_len=4,
                            rng_seed=11, exploration_radius=1.0)
        pts = samp.points()
        assert (pts[:, 0] < -1e-9).sum() > 200
        assert (pts[:, 0] > 1e-9).sum() > 200
        # vertical spread: the degenerate direction still gets explored
        # (thresholds frozen from this sampler's fixed-seed run)
        assert float((np.abs(pts[:, 1]) > 0.03).mean()) > 0.2

    def test_commuting_invariant_plane(self):
        fam = commuting_constants(3, 2)
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 20)
        samp = orbit_sample(fam, lb, np.zeros(3), budget=300, max_word_len=6, rng_seed=4)
        pts = samp.points()
        assert np.abs(pts[:, 2]).max() <= 1e-9

    def test_replay_invariant(self, grush, grush_lb):
        samp = orbit_sample(grush, grush_lb, np.zeros(2), budget=200, max_word_len=6,
                            rng_seed=9)
        gap = spot_check_sample(grush, samp, tol=1e-6)
        assert gap <= 10 * 1e-6

    def test_independent_mode_deterministic(self, grush, grush_lb):
        a = orbit_sample(grush, grush_lb, np.zeros(2), budget=50, max_word_len=5,
                         rng_seed=3, mode="independent")
        b = orbit_sample(grush, grush_lb, np.zeros(2), budget=50, max_word_len=5,
                         rng_seed=3, mode="independent")
        assert all(np.array_equal(p1, p2) for (p1, _, _), (p2, _, _) in zip(a.cloud, b.cloud))

    def test_replay_word_matches(self, grush, grush_lb):
        samp = orbit_sample(grush, grush_lb, np.zeros(2), budget=50, max_word_len=5,
                            rng_seed=5)
        point, word, _ = samp.cloud[len(samp.cloud) // 2]
        rep = replay_word(grush, samp, word, tol=1e-6)
        assert np.abs(rep - point).max() <= 1e-5


def _per_word_sample(family, lb, x, budget, max_word_len, rng_seed, tol):
    """The independent cloud with every word run alone, letter by letter."""
    d_max = 0.5 * guard(lb, x, 1.0, 0.0).margin
    rng = np.random.default_rng(rng_seed)
    m = len(family)
    cloud = [(x.copy(), FlowWord(()), False)]
    for _ in range(budget):
        word = FlowWord([(int(rng.integers(0, m)), float(rng.uniform(-d_max, d_max)))
                         for _ in range(max_word_len)])
        y, executed = x, FlowWord(())
        try:
            for letter in word.letters:
                y = flow_single(family.members[letter[0]], y, letter[1], tol=tol,
                                region=lb.region).endpoint
                executed = executed.then(FlowWord((letter,)))
                cloud.append((y, executed, False))
        except (LeftDomain, StepUnderflow):
            cloud.append((y.copy(), executed, True))
    return cloud


class TestStackedSample:
    # lb records whose regions the words often leave
    CASES = {
        "heisenberg": (heisenberg(), LbRecord(2, 0.5, ball([0, 0, 0], 1.0), "declared"),
                       np.array([0.2, -0.1, 0.1])),
        "affine-l1": (affine_l1(6, 5, 0.8, linear_part=True),
                      LbRecord(2, 1.0, ball(np.zeros(6), 1.0, "l1"), "declared"), np.full(6, 0.05)),
        "grushin": (grushin(), LbRecord(2, 0.5, ball([0, 0], 0.8), "declared"), np.array([0.1, 0.1])),
    }

    @pytest.mark.parametrize("name", CASES)
    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_matches_per_word_runs(self, name, tol):
        fam, lb, x = self.CASES[name]
        truncated = 0
        for seed in range(4):
            got = orbit_sample(fam, lb, x, 30, 8, seed, tol=tol, mode="independent").cloud
            ref = _per_word_sample(fam, lb, x, 30, 8, seed, tol)
            assert [(w, f) for _, w, f in got] == [(w, f) for _, w, f in ref]
            for (p, _, _), (q, _, _) in zip(got, ref):
                assert np.abs(p - q).max() <= 10 * tol * (1 + np.abs(q).max())
            truncated += sum(f for _, _, f in ref)
        assert truncated > 0

    def test_replays_run_in_the_sampling_region(self):
        # the words ran in the lb region, a ball of radius 1 in a domain of
        # radius 8: a stored word that leaves it does not replay
        fam, lb, x = self.CASES["heisenberg"]
        samp = orbit_sample(fam, lb, x, 20, 4, 0, tol=1e-9, mode="independent")
        assert samp.region == lb.region
        away = FlowWord(((0, 0.5), (0, 0.5)))
        with pytest.raises(LeftDomain):
            replay_word(fam, samp, away, tol=1e-9)
        with pytest.raises(LeftDomain):
            spot_check_sample(fam, replace(samp, cloud=((x + [1.0, 0, 0], away, False),)), tol=1e-9)


def _sequential_explore(family, lb, x, budget, max_word_len, rng_seed, tol, radius):
    """The explore cloud grown one target at a time, each extending the
    nearest point stored before it, by one flow_single run."""
    d_max = 0.5 * guard(lb, x, 1.0, 0.0).margin
    rng = np.random.default_rng(rng_seed)
    cloud = [(x, FlowWord(()), False)]
    for _ in range(budget):
        target = x + radius * rng.uniform(-1.0, 1.0, size=x.size)
        letter = (int(rng.integers(0, len(family))), float(rng.uniform(-d_max, d_max)))
        open_ = [i for i, (_, w, _) in enumerate(cloud) if len(w.letters) < max_word_len]
        if not open_:
            continue
        pi = min(open_, key=lambda i: float(np.sum((cloud[i][0] - target) ** 2)))
        p, word, _ = cloud[pi]
        try:
            y = flow_single(family.members[letter[0]], p, letter[1], tol=tol,
                            region=lb.region).endpoint
        except (LeftDomain, StepUnderflow):
            cloud[pi] = (p, word, True)
            continue
        cloud.append((y, word.then(FlowWord((letter,))), False))
    return cloud


class TestExploreRounds:
    # targets across the whole lb region, so that some words leave it
    CASES = TestStackedSample.CASES

    @pytest.mark.parametrize("name", CASES)
    def test_one_target_per_round_is_the_sequential_sampler(self, name, monkeypatch):
        # every stored point also equals the replay of its word
        monkeypatch.setattr(orbit, "EXPLORE_ROUND", 1)
        fam, lb, x = self.CASES[name]
        tol = 1e-9
        truncated = 0
        for seed in range(3):
            samp = orbit_sample(fam, lb, x, 40, 5, seed, tol=tol,
                                exploration_radius=lb.region.radius)
            ref = _sequential_explore(fam, lb, x, 40, 5, seed, tol, lb.region.radius)
            assert [(w, f) for _, w, f in samp.cloud] == [(w, f) for _, w, f in ref]
            for (p, word, _), (q, _, _) in zip(samp.cloud, ref):
                assert np.array_equal(p, q)
                assert np.abs(replay_word(fam, samp, word, tol=tol) - p).max() <= 10 * tol
            truncated += sum(f for _, _, f in samp.cloud)
        assert truncated > 0

    @pytest.mark.parametrize("name", CASES)
    def test_rounds_store_replayable_points(self, name):
        fam, lb, x = self.CASES[name]
        tol = 1e-9
        truncated = 0
        for seed in range(4):
            samp = orbit_sample(fam, lb, x, 80, 8, seed, tol=tol,
                                exploration_radius=lb.region.radius)
            assert len(samp.cloud) > 1
            for p, word, _ in samp.cloud:
                assert np.abs(replay_word(fam, samp, word, tol=tol) - p).max() <= 10 * tol
            truncated += sum(f for _, _, f in samp.cloud)
        assert truncated > 0


@pytest.mark.parametrize("mode", ["explore", "independent"])
def test_members_that_share_a_label_replay_their_own_fields(heis, heis_lb, mode):
    # both Heisenberg members labelled "X", the VectorField default: a cloud
    # word names its members by index, so each replays its own field
    same = replace(heis, members=tuple(replace(m, label="X") for m in heis.members))
    samp = orbit_sample(same, heis_lb, np.array([0.3, -0.2, 0.1]), budget=40, max_word_len=5,
                        rng_seed=2, mode=mode, tol=1e-9)
    assert spot_check_sample(same, samp, tol=1e-9) <= 1e-7
    point, word, _ = samp.cloud[-1]
    assert {a for a, _ in word.letters} <= {0, 1}
    assert np.abs(replay_word(same, samp, word, tol=1e-9) - point).max() <= 1e-7


def test_rank_of_a_stack_of_singular_values(rng):
    stack = rng.standard_normal((6, 4, 3))
    stack[1, :, 2] = stack[1, :, 0] - 2.0 * stack[1, :, 1]
    stack[2] = 0.0
    stack[3, :, 1:] = 1e-10 * stack[3, :, 1:]
    ranks = rank_of_singular_values(np.linalg.svd(stack, compute_uv=False))
    assert ranks.tolist() == [numerical_rank(m) for m in stack] == [3, 2, 0, 1, 3, 3]


class TestVerdicts:
    def test_heisenberg_exact(self, heis):
        v = accessibility_verdict(heis, np.zeros(3), 3)
        assert v.kind == "exactly_controllable"
        assert v.rank_profile == (2, 3)
        assert v.saturation_k == 2

    def test_grushin_origin_exact(self, grush):
        v = accessibility_verdict(grush, np.zeros(2), 3)
        assert v.kind == "exactly_controllable"
        assert v.rank_profile == (1, 2)

    def test_commuting_rank_deficient(self):
        fam = commuting_constants(3, 2)
        v = accessibility_verdict(fam, np.zeros(3), 3)
        assert v.kind == "rank_deficient"
        assert v.final_rank == 2

    def test_affine_truncation_approximately_controllable(self):
        fam = affine_l1(30, 10, decay=0.5, radius=6.0)
        v = accessibility_verdict(fam, np.zeros(30), 2)
        assert v.kind == "approximately_controllable"
        assert v.truncation_ranks == (10, 15, 20)

    def test_evidence_a_kind_does_not_have_is_none(self, heis):
        exact = accessibility_verdict(heis, np.zeros(3), 3)
        deficient = accessibility_verdict(commuting_constants(3, 2), np.zeros(3), 3)
        approximate = accessibility_verdict(affine_l1(24, 5), np.zeros(24), 2)
        assert (exact.final_rank, exact.truncation_ranks) == (None, None)
        assert (deficient.saturation_k, deficient.truncation_ranks) == (None, None)
        assert (approximate.saturation_k, approximate.final_rank) == (None, None)
        assert (exact.dimension, deficient.dimension, approximate.dimension) == (3, 3, 24)

    def test_truncation_levels_reuse_the_base_chain(self, monkeypatch):
        import orbitkit.algebra as algebra
        fam = affine_l1(24, 5)
        inner, sizes = algebra.bracket_chain, []

        def spy(family, x, k_max):
            sizes.append(len(family.members))
            return inner(family, x, k_max)

        monkeypatch.setattr(algebra, "bracket_chain", spy)
        v = accessibility_verdict(fam, np.zeros(24), 2)
        assert sizes == [5, 10, 15]
        assert v.truncation_ranks == (5, 10, 15)

    @pytest.mark.parametrize("fam", [
        affine_l1(24, 5), affine_l1(12, 4, decay=0.7, linear_part=True),
        operator_family(3, 3, [(1.0, (0, 0, 0), 0, 0), (1.0, (0, 0, 0), 1, 1),
                               (1.0, (1, 0, 0), 2, 1)]),
    ], ids=["affine-l1", "affine-l1-linear", "operator-family"])
    def test_verdict_evidence_matches_a_chain_per_truncation_level(self, fam):
        from orbitkit.algebra import bracket_chain
        x = np.full(fam.space.dimension, 0.05)
        v = accessibility_verdict(fam, x, 2)
        chain = bracket_chain(fam, x, 2)
        assert v.rank_profile == chain.rank_profile
        n, base = fam.space.dimension, len(fam.members)
        if fam.space.truncation_of_l1:
            ranks = tuple(bracket_chain(fam.truncation_factory(min(n, base + lvl)), x, 2).final_rank
                          for lvl in (0, 5, 10))
            assert v.kind == "approximately_controllable"
            assert v.truncation_ranks == ranks
        else:
            assert v.kind == "exactly_controllable"
            assert v.saturation_k == chain.saturation_generation(n)


class TestInvariance:
    def test_commuting_distribution_invariant(self):
        fam = commuting_constants(3, 2)
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 20)
        rep = invariance_residual(fam, np.array([0.2, 0.1, 0.0]), 0, 0.5, lb)
        assert rep.max_residual <= 1e-5

    def test_grushin_two_field_distribution_not_invariant(self, grush, grush_lb):
        # push from a full-rank point back to the degenerate line: the shear
        # direction leaves the span exactly where the rank jumps
        rep = invariance_residual(grush, np.array([0.3, 0.0]), 0, -0.3, grush_lb)
        assert rep.max_residual > 0.1
        assert rep.rank_source == 2 and rep.rank_target == 1

    def test_dependent_leading_columns_keep_the_span(self):
        # the first two fields are parallel, so the first two columns of an
        # unpivoted QR miss the third field's direction
        dom = ball([0, 0, 0], 4.0)
        members = tuple(constant_field(dom, v, label=f"c{i}")
                        for i, v in enumerate([(1, 1, 0), (2, 2, 0), (0, 0, 1)]))
        fam = FieldFamily(space=ChartSpace(3), members=members, common_domain=dom)
        lb = LbRecord(order_s=2, bound_k=1.0, region=dom, method="declared")
        rep = invariance_residual(fam, np.zeros(3), 0, 0.5, lb)
        assert rep.rank_target == 2
        assert rep.max_residual <= 1e-12

    def test_heisenberg_enlarged_distribution_invariant(self, heis, heis_lb, rng):
        extras = [enlarge_field(heis, FlowWord(((0, 0.4),)), 1, 1.0, heis_lb),
                  enlarge_field(heis, FlowWord(((1, 0.4),)), 0, 1.0, heis_lb)]
        for _ in range(3):
            x = rng.uniform(-0.2, 0.2, 3)
            idx = int(rng.integers(0, 2))
            t = float(rng.uniform(-0.3, 0.3))
            rep = invariance_residual(heis, x, idx, t, heis_lb, include_enlarged=extras)
            assert rep.max_residual <= 1e-5


class TestSliceDensityProxy:
    def test_slice_points_near_orbit_cloud(self, heis, heis_lb):
        # every slice point sits close to a dense reachable cloud
        res = slice_grid(heis, heis_lb, np.zeros(3), rho=0.3, grid_per_axis=4,
                         axes=[0, 1])
        samp = orbit_sample(heis, heis_lb, np.zeros(3), budget=6000, max_word_len=60,
                            rng_seed=77, exploration_radius=0.45)
        pts = samp.points()
        for p in res.points:
            d = np.linalg.norm(pts - p, axis=1).min()
            assert d <= 0.05
