from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.algebra import FlowWord, bracket_field, enlarge_field, lie_bracket
from orbitkit.catalog import affine_l1, commuting_constants, grushin, heisenberg, heisenberg_full
from orbitkit.errors import InvalidArgument, OrderTooHigh, OutOfDomain
from orbitkit.fields import (FD_STEP_1, FD_STEP_2, FD_STEP_3, MIN_UNIT_TUPLES, FieldFamily,
                             VectorField, _unit_vectors, calculus, constant_field,
                             estimate_lb_bound, eval_jet_norm, finite_difference_jacobian,
                             finite_difference_jvp, polynomial_field)
from orbitkit.space import ChartSpace, ball, operator_norm, vector_norm


@pytest.fixture
def plane():
    return ChartSpace(2)


def ysq_field(domain):
    # X(x, y) = (y^2, 0)
    return polynomial_field(domain, [((1.0, (0, 2)),), ()], label="Ysq")


class TestEvalJetNorm:
    def test_constant_field(self, plane):
        dom = ball([0, 0], 5.0)
        X = constant_field(dom, [3.0, 4.0])
        assert eval_jet_norm(X, np.zeros(2), 2, plane) == pytest.approx(5.0)

    def test_linear_identity(self, plane):
        dom = ball([0, 0], 10.0)
        X = polynomial_field(dom, [((1.0, (1, 0)),), ((1.0, (0, 1)),)], label="Id")
        got = eval_jet_norm(X, np.array([3.0, 4.0]), 1, plane)
        assert got == pytest.approx(6.0, abs=1e-9)

    def test_second_order(self, plane):
        dom = ball([0, 2], 3.0)
        X = ysq_field(dom)
        got = eval_jet_norm(X, np.array([0.0, 2.0]), 2, plane)
        # value 4 + Jacobian norm 4 + second-derivative norm 2
        assert got == pytest.approx(10.0, abs=1e-3)

    def test_out_of_domain(self, plane):
        X = constant_field(ball([0, 0], 1.0), [1.0, 0.0])
        with pytest.raises(OutOfDomain):
            eval_jet_norm(X, np.array([5.0, 0.0]), 1, plane)

    def test_order_too_high(self, plane):
        X = constant_field(ball([0, 0], 1.0), [1.0, 0.0])
        with pytest.raises(OrderTooHigh):
            eval_jet_norm(X, np.zeros(2), 4, plane)


def reference_jet_norm(field, x, s, space, rng, tuple_samples=MIN_UNIT_TUPLES):
    """Per-direction nested differences: for every sampled direction v, the
    Jacobian difference along v (2|V| Jacobians at order 2), and for every
    pair (v, w) its difference along w (4|V||W| Jacobians at order 3)."""
    def diff(y, v, h):
        return (field.jacobian(y + h * v) - field.jacobian(y - h * v)) / (2.0 * h)

    vecs = [space.unit_vector(rng) for _ in range(tuple_samples)]
    for j in range(space.dimension):
        e = np.zeros(space.dimension)
        e[j] = 1.0
        vecs += [e, -e]
    total = vector_norm(field(x), space.norm_kind)
    if s >= 1:
        total += operator_norm(field.jacobian(x), space.norm_kind)
    scale = 1.0 + float(np.linalg.norm(x))
    h2, h3 = FD_STEP_2 * scale, FD_STEP_3 * scale
    if s >= 2:
        total += max(operator_norm(diff(x, v, h2), space.norm_kind) for v in vecs)
    if s >= 3:
        total += max(operator_norm((diff(x + h3 * w, v, h2) - diff(x - h3 * w, v, h2))
                                   / (2.0 * h3), space.norm_kind)
                     for v in vecs for w in vecs[: max(4, len(vecs) // 8)])
    return total


def chain_family(dim, rng):
    # X1 = e1, X2 = e2 + sum_k c_k x0^k e_{k+2}
    dom = ball(np.zeros(dim), 1.5)
    zero = (0,) * dim
    coeffs = rng.uniform(0.5, 1.5, dim - 2) * rng.choice([-1.0, 1.0], dim - 2)
    comps1 = [((1.0, zero),)] + [()] * (dim - 1)
    comps2 = [(), ((1.0, zero),)] + [((c, (k,) + zero[1:]),) for k, c in enumerate(coeffs, 1)]
    members = (polynomial_field(dom, comps1, "X1"), polynomial_field(dom, comps2, "X2"))
    return FieldFamily(space=ChartSpace(dim), members=members, common_domain=dom)


def _monomial_derivative(terms, axes):
    """Monomial table of the partial derivative along each axis in turn."""
    for j in axes:
        terms = [(c * e[j], e[:j] + (e[j] - 1,) + e[j + 1:]) for c, e in terms if e[j]]
    return terms


def _monomial_value(terms, x):
    return sum(c * float(np.prod(x ** np.array(e))) for c, e in terms)


class TestTensorJets:
    def _cases(self, rng):
        for dim in (4, 5, 6, 7):
            fam = chain_family(dim, rng)
            yield fam, [rng.uniform(-0.5, 0.5, dim) for _ in range(2)]
        fam = heisenberg_full(radius=2.0)
        yield fam, [rng.uniform(-1, 1, 3) for _ in range(2)]
        fam = grushin(radius=2.0)
        yield fam, [np.array([0.0, 0.4]), rng.uniform(-1, 1, 2)]
        fam = affine_l1(6, 4, decay=0.5, linear_part=True, radius=2.0)
        yield fam, [np.zeros(6), 0.1 * fam.space.unit_vector(rng)]

    @pytest.mark.parametrize("s, rel", [(0, 1e-12), (1, 1e-12), (2, 1e-5), (3, 1e-3)])
    def test_matches_nested_difference_reference(self, s, rel, rng):
        for fam, points in self._cases(rng):
            for x in points:
                for m in fam.members:
                    seed = int(rng.integers(0, 2 ** 31))
                    got = eval_jet_norm(m, x, s, fam.space, rng=np.random.default_rng(seed))
                    ref = reference_jet_norm(m, x, s, fam.space, np.random.default_rng(seed))
                    assert got == pytest.approx(ref, rel=rel), (m.label, x, s)

    @pytest.mark.parametrize("s, rel", [(2, 1e-5), (3, 1e-3)])
    def test_enlarged_field_matches_reference(self, heis, heis_lb, s, rel):
        Z = enlarge_field(heis, FlowWord(((0, 0.4), (1, -0.3))), 1, 1.5, heis_lb)
        x = np.array([0.2, -0.1, 0.3])
        got = eval_jet_norm(Z, x, s, heis.space, rng=np.random.default_rng(3), tuple_samples=8)
        ref = reference_jet_norm(Z, x, s, heis.space, np.random.default_rng(3), tuple_samples=8)
        assert got == pytest.approx(ref, rel=rel)

    @pytest.mark.parametrize("kind", ["euclidean", "l1", "sup"])
    def test_cubic_field_order_three_is_analytic(self, kind):
        dim = 3
        comps = [[(1.5, (3, 0, 0)), (-2.0, (1, 1, 1))],
                 [(0.7, (0, 2, 1)), (1.0, (1, 0, 0))],
                 [(-1.2, (0, 0, 3)), (0.5, (2, 1, 0))]]
        space = ChartSpace(dim, norm_kind=kind)
        X = polynomial_field(ball(np.zeros(dim), 4.0, kind), comps, label="cubic")
        x = np.array([0.3, -0.6, 0.2])
        axes = range(dim)
        d1 = np.array([[_monomial_value(_monomial_derivative(t, (j,)), x) for j in axes]
                       for t in comps])
        d2 = np.array([[[_monomial_value(_monomial_derivative(t, (j, k)), x) for k in axes]
                        for j in axes] for t in comps])
        d3 = np.array([[[[_monomial_value(_monomial_derivative(t, (j, k, l)), x) for l in axes]
                         for k in axes] for j in axes] for t in comps])
        dirs = _unit_vectors(space, np.random.default_rng(11), MIN_UNIT_TUPLES)
        expected = (vector_norm(X(x), kind) + operator_norm(d1, kind)
                    + max(operator_norm(d2 @ v, kind) for v in dirs)
                    + max(operator_norm(d3 @ w @ v, kind)
                          for v in dirs for w in dirs[: max(4, len(dirs) // 8)]))
        got = eval_jet_norm(X, x, 3, space, rng=np.random.default_rng(11))
        assert got == pytest.approx(expected, rel=1e-8)

    @pytest.mark.parametrize("kind", ["euclidean", "l1", "sup"])
    def test_unit_vectors_match_sequential_draws(self, kind):
        space = ChartSpace(5, norm_kind=kind)
        got = _unit_vectors(space, np.random.default_rng(4), 40)
        rng, normals = np.random.default_rng(4), np.random.default_rng(4)
        assert got.shape == (40 + 2 * 5, 5)
        for row in got[:40]:
            assert np.array_equal(row, space.unit_vector(rng))
            v = normals.standard_normal(5)
            assert np.array_equal(row, v / vector_norm(v, kind))
        assert np.array_equal(got[40:], np.repeat(np.eye(5), 2, axis=0) * np.tile([1, -1], 5)[:, None])


@st.composite
def tabled_fields(draw, count):
    """``count`` random polynomial fields on a common small chart, with their
    monomial terms, and a few points of the unit box."""
    dim = draw(st.integers(2, 3))
    coeff = st.floats(-2.0, 2.0, allow_nan=False).filter(lambda c: abs(c) > 1e-3)
    term = st.tuples(coeff, st.tuples(*[st.integers(0, 3)] * dim))
    comps = [[draw(st.lists(term, max_size=3)) for _ in range(dim)] for _ in range(count)]
    seed = draw(st.integers(0, 2 ** 31))
    points = np.random.default_rng(seed).uniform(-1.0, 1.0, (4, dim))
    dom = ball(np.zeros(dim), 4.0)
    fields = [polynomial_field(dom, c, label=f"F{i}") for i, c in enumerate(comps)]
    return fields, comps, points


def _close(got, ref, rel):
    return np.abs(got - ref).max() <= rel * (1.0 + np.abs(ref).max())


class TestMonomialTable:
    @settings(max_examples=60, deadline=None)
    @given(tabled_fields(1))
    def test_closure_matches_eval_many(self, case):
        (X,), _, points = case
        assert _close(X.eval_many(points), np.array([X(x) for x in points]), 1e-12)
        assert _close(X.table.derivative.eval_many(points),
                      np.array([X.jacobian(x) for x in points]), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(tabled_fields(1))
    def test_derivative_tensors_are_analytic(self, case):
        (X,), (comps,), points = case
        axes = range(len(comps))
        d2 = X.table.derivative.derivative
        for x in points:
            ref2 = np.array([[[_monomial_value(_monomial_derivative(t, (j, k)), x) for k in axes]
                              for j in axes] for t in comps])
            ref3 = np.array([[[[_monomial_value(_monomial_derivative(t, (j, k, l)), x)
                                for l in axes] for k in axes] for j in axes] for t in comps])
            assert _close(d2(x), ref2, 1e-12)
            assert _close(d2.derivative(x), ref3, 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(tabled_fields(2))
    def test_bracket_matches_analytic_jacobians(self, case):
        (X, Y), _, points = case
        Z = bracket_field(X, Y)
        assert Z.table is not None
        for x in points:
            assert _close(Z(x), lie_bracket(X, Y, x), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(tabled_fields(3))
    def test_bracket_antisymmetry_and_jacobi_identity(self, case):
        (X, Y, Z), _, points = case
        tX, tY, tZ = X.table, Y.table, Z.table
        terms = (tX.bracket(tY.bracket(tZ)), tY.bracket(tZ.bracket(tX)),
                 tZ.bracket(tX.bracket(tY)))
        for x in points:
            assert _close(tX.bracket(tY)(x), -tY.bracket(tX)(x), 1e-12)
            values = [t(x) for t in terms]
            scale = max(np.abs(v).max() for v in values)
            assert np.abs(sum(values)).max() <= 1e-12 * (1.0 + scale)

    def test_exact_zero_bracket_has_no_rows(self):
        X, Y = heisenberg_full().members[1:]
        assert X.table.bracket(Y.table).exponents.shape == (0, 3)

    @pytest.mark.parametrize("exps", [(0.5, 0), (-1, 0), (1,), (1, 0, 0), (float("nan"), 0)])
    def test_exponents_must_be_non_negative_integers(self, exps):
        with pytest.raises(InvalidArgument):
            polynomial_field(ball([0, 0], 1.0), [((1.0, exps),), ()])

    def test_calculus_names_the_derivatives_used(self, heis, heis_lb):
        assert calculus(heis.members) == "exact"
        Z = enlarge_field(heis, FlowWord(((0, 0.4),)), 1, 1.0, heis_lb)
        assert calculus(heis.members + (Z,)) == "finite-difference"


class TestJacobians:
    def test_a_jacobian_needs_a_table(self):
        # a tabled field's derivatives have one source: a Jacobian comes
        # with the table, and without one the table gives it
        X = polynomial_field(ball([0, 0], 4.0), [((1.0, (0, 2)),), ((-2.0, (1, 1)),)])
        with pytest.raises(InvalidArgument):
            replace(X, table=None)
        x = np.array([0.3, -0.7])
        assert np.array_equal(replace(X, jacobian_fn=None).jacobian(x), X.table.derivative(x))
        assert np.abs(X.jacobian(x) - X.table.derivative(x)).max() <= 1e-15

    @pytest.mark.parametrize("family_builder", [heisenberg, grushin])
    def test_analytic_matches_finite_differences(self, family_builder, rng):
        fam = family_builder()
        for _ in range(100):
            x = rng.uniform(-1, 1, fam.space.dimension)
            for m in fam.members:
                if m.jacobian_fn is None:
                    continue
                J = m.jacobian(x)
                J_fd = finite_difference_jacobian(m, x)
                scale = max(1.0, float(np.abs(J).max()))
                assert np.abs(J - J_fd).max() <= 1e-5 * scale


    @staticmethod
    def _untabled():
        # neither a table nor a Jacobian: differenced through eval_many
        return VectorField(ball([0, 0, 0], 4.0), label="S", eval_fn=lambda x: np.array(
            [np.sin(x[1]) * x[2], np.cos(x[0]), x[0] * x[1] ** 2]))

    def test_batched_jacobian_matches_the_axis_loop(self, rng):
        X = self._untabled()
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            h = FD_STEP_1 * (1.0 + float(np.linalg.norm(x)))
            ref = np.stack([X(x + e) - X(x - e) for e in h * np.eye(3)], axis=-1) / (2.0 * h)
            assert np.array_equal(finite_difference_jacobian(X, x), ref)

    def test_jvp_rows_match_single_points(self, rng):
        X = self._untabled()
        P = rng.uniform(-1, 1, (6, 3))
        V = rng.normal(size=(6, 3))
        V[2] = 0.0
        rows = finite_difference_jvp(X, P, V)
        assert np.array_equal(rows[2], np.zeros(3))
        for x, v, row in zip(P, V, rows):
            assert np.array_equal(row, finite_difference_jvp(X, x, v))
            nv = np.linalg.norm(v)
            if nv > 0:
                h = FD_STEP_1 * (1.0 + np.linalg.norm(x))
                u = h * (v / nv)
                assert np.array_equal(row, nv * (X(x + u) - X(x - u)) / (2.0 * h))
            ref = finite_difference_jacobian(X, x) @ v
            assert np.abs(row - ref).max() <= 1e-6 * (1 + np.abs(v).max())


class TestEstimateLbBound:
    def test_constants_safety_factor(self):
        fam = commuting_constants(2, 2)
        rec = estimate_lb_bound(fam, ball([0, 0], 1.0), 2, 50, force_sampled=True)
        assert rec.bound_k == pytest.approx(1.25)
        assert rec.method == "sampled"

    def test_affine_family_triangle_bound(self):
        # members x + a with |a| <= 1 on the unit ball: jets at most 3
        fam = affine_l1(4, 4, decay=0.5, linear_part=True, radius=2.0)
        region = ball(np.zeros(4), 1.0, fam.space.norm_kind)
        rec = estimate_lb_bound(fam, region, 2, 100, force_sampled=True)
        assert rec.bound_k <= 3.75
        assert rec.bound_k >= 1.25 * 2.0  # at least the center jet, inflated

    def test_declared_bound_passthrough(self):
        fam = commuting_constants(2, 2)
        rec = estimate_lb_bound(fam, ball([0, 0], 1.0), 2, 10)
        assert rec.method == "declared"
        assert rec.bound_k == 1.0

    def test_quadratic_field_near_boundary(self):
        dom = ball([0, 2], 1.0)
        fam = FieldFamily(space=ChartSpace(2), members=(ysq_field(dom),),
                          common_domain=dom)
        rec = estimate_lb_bound(fam, ball([0, 2], 0.1), 2, 200, rng_seed=3)
        # center jet is 10, boundary jet 10.61; the sampled sup times 1.25
        # lands between those envelopes
        assert 10.0 <= rec.bound_k <= 13.3

    def test_monotone_in_region(self):
        fam = heisenberg()
        inner = estimate_lb_bound(fam, ball([0, 0, 0], 1.0), 2, 100, rng_seed=5,
                                  force_sampled=True)
        outer = estimate_lb_bound(fam, ball([0, 0, 0], 2.0), 2, 100, rng_seed=5,
                                  force_sampled=True)
        assert inner.bound_k <= outer.bound_k

    def test_region_must_fit_domain(self):
        fam = commuting_constants(2, 2, radius=1.0)
        with pytest.raises(OutOfDomain):
            estimate_lb_bound(fam, ball([0, 0], 3.0), 2, 10)

    @pytest.mark.parametrize("family_builder", [heisenberg, grushin,
                                                lambda: commuting_constants(3, 2)])
    def test_finite_smooth_families_certifiable(self, family_builder):
        # finite families of globally smooth fields always get a finite record
        fam = family_builder()
        for s in (0, 1, 2, 3):
            rec = estimate_lb_bound(fam, ball(np.zeros(fam.space.dimension), 1.0),
                                    s, 25, force_sampled=True)
            assert np.isfinite(rec.bound_k) and rec.bound_k > 0

    def test_operator_family_bounded_jets(self):
        from orbitkit.catalog import operator_family
        # matrix map [[1, 0], [x0, 1]] applied to decaying directions
        fam = operator_family(2, 2, [(1.0, (0, 0), 0, 0), (1.0, (0, 0), 1, 1),
                                     (1.0, (1, 0), 1, 0)], decay=0.5, radius=4.0)
        for s in (1, 2):
            rec = estimate_lb_bound(fam, ball([0, 0], 1.0), s, 50)
            assert np.isfinite(rec.bound_k) and rec.bound_k > 0
            assert rec.method == "sampled"
