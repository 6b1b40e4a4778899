from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit import fields
from orbitkit.algebra import FlowWord, bracket_field, enlarge_field, lie_bracket
from orbitkit.catalog import (affine_l1, commuting_constants, grushin, heisenberg, heisenberg_full,
                              operator_family)
from orbitkit.errors import InvalidArgument, OrderTooHigh, OutOfDomain
from orbitkit.fields import (DEFAULT_SAFETY, FD_STEP_1, FD_STEP_2, FD_STEP_3, JET_STACK_ENTRIES,
                             MIN_UNIT_TUPLES, FieldFamily, MonomialTable, VectorField,
                             _central_differences, _directions, calculus, constant_field,
                             estimate_lb_bound, eval_jet_norm, finite_difference_jacobian,
                             finite_difference_jvp, polynomial_field, sample_in_ball)
from orbitkit.space import ChartSpace, ball, operator_norm, vector_norm


@pytest.fixture
def plane():
    return ChartSpace(2)


def ysq_field(domain):
    # X(x, y) = (y^2, 0)
    return polynomial_field(domain, [((1.0, (0, 2)),), ()], label="Ysq")


def _draws(space, seed, count=MIN_UNIT_TUPLES):
    """``count`` random unit directions, drawn from a stream seeded with ``seed``."""
    return space.unit_vectors(np.random.default_rng(seed), count)


class TestEvalJetNorm:
    def test_constant_field(self, plane):
        dom = ball([0, 0], 5.0)
        X = constant_field(dom, [3.0, 4.0])
        assert eval_jet_norm(X, np.zeros(2), 2, plane, directions=_draws(plane, 0)) == pytest.approx(5.0)

    def test_linear_identity(self, plane):
        dom = ball([0, 0], 10.0)
        X = polynomial_field(dom, [((1.0, (1, 0)),), ((1.0, (0, 1)),)], label="Id")
        got = eval_jet_norm(X, np.array([3.0, 4.0]), 1, plane)
        assert got == pytest.approx(6.0, abs=1e-9)

    def test_second_order(self, plane):
        dom = ball([0, 2], 3.0)
        X = ysq_field(dom)
        got = eval_jet_norm(X, np.array([0.0, 2.0]), 2, plane, directions=_draws(plane, 0))
        # value 4 + Jacobian norm 4 + second-derivative norm 2
        assert got == pytest.approx(10.0, abs=1e-3)

    def test_out_of_domain(self, plane):
        X = constant_field(ball([0, 0], 1.0), [1.0, 0.0])
        with pytest.raises(OutOfDomain):
            eval_jet_norm(X, np.array([5.0, 0.0]), 1, plane)

    def test_order_too_high(self, plane):
        X = constant_field(ball([0, 0], 1.0), [1.0, 0.0])
        with pytest.raises(OrderTooHigh) as info:
            eval_jet_norm(X, np.zeros(2), 4, plane)
        # a tabled field's jets are exact: no differences to blame
        assert "differences" not in str(info.value)

    @pytest.mark.parametrize("s", [-1, 2.0, True, "2", None])
    def test_order_must_be_an_integer_from_zero(self, plane, s):
        X = constant_field(ball([0, 0], 1.0), [1.0, 0.0])
        with pytest.raises(InvalidArgument):
            eval_jet_norm(X, np.zeros(2), s, plane)

    def test_orders_two_and_three_need_directions(self, plane):
        X = ysq_field(ball([0, 2], 3.0))
        x = np.array([0.0, 2.0])
        assert eval_jet_norm(X, x, 1, plane) == pytest.approx(8.0)  # value 4, Jacobian 4
        for s in (2, 3):
            with pytest.raises(InvalidArgument):
                eval_jet_norm(X, x, s, plane)

    def test_a_block_gives_one_norm_per_point(self, plane):
        X = ysq_field(ball([0, 2], 3.0))
        P = np.array([[0.0, 2.0], [0.5, 1.0], [-1.0, 3.0]])
        got = eval_jet_norm(X, P, 1, plane)
        # value y^2, Jacobian norm 2|y|
        assert got.shape == (3,)
        assert np.allclose(got, P[:, 1] ** 2 + 2 * np.abs(P[:, 1]), rtol=1e-15)
        with pytest.raises(OutOfDomain):
            eval_jet_norm(X, np.vstack([P, [[5.0, 0.0]]]), 1, plane)


def _unit_vectors(space, rng, count):
    """The directions of one point: ``count`` random unit directions, then
    +e_j and -e_j for every axis j."""
    return _directions(space, space.unit_vectors(rng, count))


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
                    got = eval_jet_norm(m, x, s, fam.space, directions=_draws(fam.space, seed))
                    ref = reference_jet_norm(m, x, s, fam.space, np.random.default_rng(seed))
                    assert got == pytest.approx(ref, rel=rel), (m.label, x, s)

    @pytest.mark.parametrize("s, rel", [(2, 1e-5), (3, 1e-3)])
    def test_enlarged_field_matches_reference(self, heis, heis_lb, s, rel):
        Z = enlarge_field(heis, FlowWord(((0, 0.4), (1, -0.3))), 1, 1.5, heis_lb)
        x = np.array([0.2, -0.1, 0.3])
        got = eval_jet_norm(Z, x, s, heis.space, directions=_draws(heis.space, 3, 8))
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
        got = eval_jet_norm(X, x, 3, space, directions=_draws(space, 11))
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


def _assert_one_point_matches_the_batch(table, points):
    """``table(x)`` at each point against the rows of ``eval_many``, for the
    value and the derivatives of orders 1-3."""
    for _ in range(4):
        one = np.array([table(x) for x in points])
        assert one.shape == (len(points),) + table.coefficients.shape[1:]
        assert _close(one, table.eval_many(points), 1e-12)
        table = table.derivative


class TestMonomialTable:
    @settings(max_examples=60, deadline=None)
    @given(tabled_fields(1))
    def test_closure_matches_eval_many(self, case):
        (X,), _, points = case
        assert X.eval_fn is X.table
        _assert_one_point_matches_the_batch(X.table, points)

    def test_closure_matches_eval_many_on_catalog_members(self, rng):
        # and on a table with no rows, the zero field
        empty = MonomialTable(np.zeros((0, 3), dtype=np.int64), np.zeros((0, 3)))
        _assert_one_point_matches_the_batch(empty, rng.uniform(-1.0, 1.0, (3, 3)))
        assert np.array_equal(empty(np.ones(3)), np.zeros(3))
        for family in CATALOG_FAMILIES:
            points = rng.uniform(-1.0, 1.0, (5, family.space.dimension))
            for X in family.members:
                _assert_one_point_matches_the_batch(X.table, points)
                assert _close(np.array([X(x) for x in points]), X.table.eval_many(points), 1e-12)

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

    @settings(max_examples=60, deadline=None)
    @given(tabled_fields(1))
    def test_gathered_monomials_equal_the_power_product(self, case):
        # the same factors in the same order; numpy's power may round a
        # strided and a contiguous array apart by an ulp
        (X,), _, points = case
        table = X.table
        ref = np.prod(points[:, None, :] ** table.exponents, axis=2)
        np.testing.assert_allclose(table.monomials(points), ref, rtol=1e-15, atol=0)
        np.testing.assert_allclose(table.monomials(points[:1])[0],
                                   np.prod(points[0] ** table.exponents, axis=1), rtol=1e-15, atol=0)

    def test_exact_zero_bracket_has_no_rows(self):
        X, Y = heisenberg_full().members[1:]
        assert X.table.bracket(Y.table).exponents.shape == (0, 3)

    @pytest.mark.parametrize("exps", [(0.5, 0), (-1, 0), (1,), (1, 0, 0), (float("nan"), 0)])
    def test_exponents_must_be_non_negative_integers(self, exps):
        with pytest.raises(InvalidArgument):
            polynomial_field(ball([0, 0], 1.0), [((1.0, exps),), ()])

    def test_calculus_names_the_derivatives_used(self, heis, heis_lb):
        assert calculus(heis.members) == "exact"
        # an enlarged field of tabled members carries its series as a table
        Z = enlarge_field(heis, FlowWord(((0, 0.4),)), 1, 1.0, heis_lb)
        assert calculus(heis.members + (Z,)) == "exact"
        # on members stripped of their tables it is evaluated by nested flows
        stripped = replace(heis, members=tuple(replace(m, table=None) for m in heis.members))
        Z = enlarge_field(stripped, FlowWord(((0, 0.4),)), 1, 1.0, heis_lb)
        assert calculus(heis.members + (Z,)) == "finite-difference"


CATALOG_FAMILIES = [
    heisenberg(), heisenberg_full(), grushin(), commuting_constants(4, 3),
    affine_l1(5, 4), affine_l1(6, 5, 0.7, linear_part=True),
    operator_family(3, 3, [(1.0, (1, 0, 0), 0, 1), (-0.5, (0, 2, 0), 2, 0), (2.0, (0, 0, 0), 1, 2),
                           (0.3, (1, 1, 0), 2, 2)]),
]


class TestFamilyTable:
    @pytest.mark.parametrize("family", CATALOG_FAMILIES,
                             ids=lambda f: "-".join(m.label for m in f.members))
    def test_weighted_table_is_the_weighted_sum_of_members(self, family, rng):
        table = family.table
        assert table.coefficients.shape[1:] == (len(family), family.space.dimension)
        points = rng.uniform(-1.0, 1.0, (6, family.space.dimension))
        weights = rng.normal(size=(6, len(family)))
        got = np.einsum("nm,nmd->nd", weights, table.eval_many(points))
        ref = np.array([sum(w * m(x) for w, m in zip(ws, family.members))
                        for ws, x in zip(weights, points)])
        assert _close(got, ref, 1e-13)

    @pytest.mark.parametrize("family", CATALOG_FAMILIES,
                             ids=lambda f: "-".join(m.label for m in f.members))
    def test_weighted_coefficients_sum_the_members(self, family, rng):
        # one set of weights, and one per row, for the values and the derivatives
        m, d = len(family), family.space.dimension
        points = rng.uniform(-1.0, 1.0, (5, d))
        weights = rng.normal(size=(5, m))
        for table, size in ((family.table, d), (family.table.derivative, d * d)):
            shared, per_row = table.weighted(weights[0]), table.weighted(weights)
            assert shared.shape == (len(table.exponents), size)
            assert per_row.shape == (5, len(table.exponents), size)
            values = table.eval_many(points).reshape(5, m, size)
            monomials = table.monomials(points)
            assert _close(monomials @ shared, np.einsum("m,nmk->nk", weights[0], values), 1e-13)
            assert _close(np.einsum("nt,ntk->nk", monomials, per_row),
                          np.einsum("nm,nmk->nk", weights, values), 1e-13)

    @pytest.mark.parametrize("family", CATALOG_FAMILIES,
                             ids=lambda f: "-".join(m.label for m in f.members))
    def test_derivative_table_merges_the_members_derivatives(self, family, rng):
        D = family.table.derivative
        m, d = len(family), family.space.dimension
        assert D.coefficients.shape[1:] == (m, d, d)
        points = rng.uniform(-1.0, 1.0, (5, d))
        values = D.eval_many(points)
        for a, member in enumerate(family.members):
            assert _close(values[:, a], member.table.derivative.eval_many(points), 1e-13)
        assert _close(values, family.table.derivative.eval_many(points), 1e-13)

    @pytest.mark.parametrize("family", CATALOG_FAMILIES + [affine_l1(16, 16, linear_part=True)],
                             ids=lambda f: "-".join(m.label for m in f.members))
    def test_derivative_table_is_the_merged_member_derivatives_bit_for_bit(self, family, rng):
        D = family.table.derivative
        ref = fields._merge_tables([m.table.derivative for m in family.members])
        assert np.array_equal(D.exponents, ref.exponents)
        assert D.coefficients.tobytes() == ref.coefficients.tobytes()
        weights = rng.normal(size=(4, len(family)))
        for w in (weights, weights[0]):
            assert D.weighted(w).tobytes() == ref.weighted(w).tobytes()

    def test_an_untabled_member_leaves_no_family_table(self, heis):
        members = (heis.members[0], replace(heis.members[1], table=None))
        fam = FieldFamily(space=heis.space, members=members, common_domain=heis.common_domain)
        # and with it no merged derivative, which is the table's
        assert fam.table is None


def test_affine_members_with_a_linear_part_are_x_plus_their_direction(rng):
    # the members evaluate by their table, which is x + decay^a e_a bit for bit
    fam = affine_l1(16, 10, 0.7, linear_part=True)
    points = rng.uniform(-0.25, 0.25, (200, 16))  # inside the l1 ball of radius 4
    for a, member in enumerate(fam.members):
        direction = np.zeros(16)
        direction[a] = 0.7 ** a
        assert member.eval_fn is member.table
        assert all(np.array_equal(member(x), x + direction) for x in points)
        assert np.array_equal(member.table.eval_many(points), points + direction)


def _dense_derivative(table):
    """The derivative built as it was before its rows were grouped: one
    dense coefficient block per (row, coordinate) pair, merged by
    from_rows."""
    d = table.exponents.shape[1]
    shape = table.coefficients.shape[1:]
    t, j = np.nonzero(table.exponents)
    coeffs = np.zeros((len(t),) + shape + (d,))
    coeffs[np.arange(len(t)), ..., j] = (table.coefficients[t] * table.exponents[t, j]
                                         .reshape((-1,) + (1,) * len(shape)))
    return MonomialTable.from_rows(table.exponents[t] - np.eye(d, dtype=np.int64)[j], coeffs)


DERIVATIVE_FAMILIES = {
    "heisenberg": heisenberg(),
    "grushin": grushin(),
    "chain": chain_family(7, np.random.default_rng(7)),
    "affine-l1": affine_l1(32, 30, 0.8, linear_part=True),
}


@pytest.mark.parametrize("name", DERIVATIVE_FAMILIES)
def test_grouped_derivative_equals_the_dense_construction(name):
    # orders 1-3 of every member table and of the merged family table
    family = DERIVATIVE_FAMILIES[name]
    for table in [m.table for m in family.members] + [family.table]:
        for _ in range(3):
            got, ref = table.derivative, _dense_derivative(table)
            assert np.array_equal(got.exponents, ref.exponents)
            assert np.array_equal(got.coefficients, ref.coefficients)
            table = got


class TestJacobians:
    @pytest.mark.parametrize("family_builder", [heisenberg, grushin])
    def test_analytic_matches_finite_differences(self, family_builder, rng):
        fam = family_builder()
        for _ in range(100):
            x = rng.uniform(-1, 1, fam.space.dimension)
            for m in fam.members:
                if m.table is None:
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


def per_point_jet_norm(field, x, s, space, rng, tuple_samples=MIN_UNIT_TUPLES):
    """The jet norm at one point with one operator norm per contraction
    matrix: the loop the block path of eval_jet_norm replaces."""
    kind = space.norm_kind
    if field.table is None:
        scale = 1.0 + float(np.linalg.norm(x))
        steps = (FD_STEP_1 * scale, FD_STEP_2 * scale, FD_STEP_3 * scale)
        jet = _central_differences(field.eval_many, x, [steps[:j] for j in range(s + 1)])
    else:
        table, jet = field.table, [field.table(x)]
        for _ in range(s):
            table = table.derivative
            jet.append(table(x))
    total = vector_norm(jet[0], kind)
    if s >= 1:
        total += operator_norm(jet[1], kind)
    if s >= 2:
        dirs = _unit_vectors(space, rng, tuple_samples)
        total += max(operator_norm(jet[2] @ v, kind) for v in dirs)
        if s >= 3:
            total += max(operator_norm(jet[3] @ w @ v, kind)
                         for w in dirs[: max(4, len(dirs) // 8)] for v in dirs)
    return total


def per_point_lb_bound(family, region, s, samples, rng_seed):
    """estimate_lb_bound as one per_point_jet_norm per point and member,
    point after point."""
    pts = sample_in_ball(region, family.space, np.random.default_rng(rng_seed), samples)
    jet_rng = np.random.default_rng(rng_seed + 1)
    best = max(per_point_jet_norm(m, y, s, family.space, jet_rng)
               for y in pts for m in family.members)
    return max(best, 1e-30) * DEFAULT_SAFETY


BLOCK_FAMILIES = {
    "heisenberg": heisenberg(),
    "heisenberg-full": heisenberg_full(),
    "grushin": grushin(),
    "commuting-constants": commuting_constants(3, 2),
    "affine-l1": affine_l1(6, 4, 0.7, linear_part=True),
    # quadratic entries of the operator: nonzero second derivatives
    "operator-family": operator_family(3, 3, [(1.0, (2, 0, 0), 0, 1), (0.5, (1, 1, 0), 2, 0),
                                              (1.0, (0, 0, 0), 1, 1), (-0.7, (0, 1, 1), 1, 2)],
                                       decay=0.5, radius=2.0),
    **{f"chain-{d}": chain_family(d, np.random.default_rng(d)) for d in (4, 5, 6, 7)},
}


class TestJetBlocks:
    """The block path against the per-point loop, within 1e-12 relative,
    also with a stack cap so small that every order-3 stack is split."""

    @pytest.mark.parametrize("cap", [JET_STACK_ENTRIES, 2 ** 10])
    @pytest.mark.parametrize("name", BLOCK_FAMILIES)
    def test_lb_bound_matches_the_per_point_loop(self, name, cap, monkeypatch):
        monkeypatch.setattr(fields, "JET_STACK_ENTRIES", cap)
        fam = BLOCK_FAMILIES[name]
        dom = fam.common_domain
        region = ball(dom.center, 0.8 * dom.radius, dom.norm_kind)
        for s, samples in ((0, 9), (1, 9), (2, 9), (3, 4)):
            got = estimate_lb_bound(fam, region, s, samples, rng_seed=s + 3, force_sampled=True)
            ref = per_point_lb_bound(fam, region, s, samples, s + 3)
            assert got.bound_k == pytest.approx(ref, rel=1e-12, abs=0.0), (name, s)

    @pytest.mark.parametrize("name", ["grushin", "operator-family", "chain-5"])
    def test_jet_norms_of_a_block_match_single_points(self, name, monkeypatch, rng):
        # untabled members too: their block is differenced point by point
        monkeypatch.setattr(fields, "JET_STACK_ENTRIES", 2 ** 10)
        fam = BLOCK_FAMILIES[name]
        d = fam.space.dimension
        P = np.array(sample_in_ball(ball(np.zeros(d), 0.5), fam.space, rng, 5))
        for m in fam.members + (replace(fam.members[-1], table=None),):
            for s in (0, 1, 2, 3):
                got = eval_jet_norm(m, P, s, fam.space, directions=_draws(
                    fam.space, s, len(P) * MIN_UNIT_TUPLES).reshape(len(P), -1, d))
                one = np.random.default_rng(s)
                ref = [per_point_jet_norm(m, x, s, fam.space, one) for x in P]
                assert got.shape == (len(P),)
                assert np.allclose(got, ref, rtol=1e-12, atol=0.0), (m.label, s)
                assert eval_jet_norm(m, P[0], s, fam.space, directions=_draws(fam.space, s)) == got[0]

    @pytest.mark.parametrize("cubic", [False, True])
    def test_grushin_order_three_stacks_stay_under_the_cap(self, cubic, monkeypatch):
        # 200 samples in blocks: no contraction stack above JET_STACK_ENTRIES.
        # Grushin's second derivatives vanish, so only its cubic variant
        # (0, x^3) builds contraction stacks at all.
        fam = grushin()
        if cubic:
            dom = fam.common_domain
            fam = FieldFamily(fam.space, (fam.members[0], polynomial_field(dom, [(), ((1.0, (3, 0)),)])),
                              dom)
        sizes, reduce = [], fields.max_operator_norm

        def spy(stack, kind, floor=0.0):
            sizes.append(stack.size)
            return reduce(stack, kind, floor)

        monkeypatch.setattr(fields, "max_operator_norm", spy)
        rec = estimate_lb_bound(fam, ball([0, 0], 4.0), 3, 200, force_sampled=True)
        assert rec.method == "sampled" and rec.bound_k > 0
        assert max(sizes, default=0) <= JET_STACK_ENTRIES
        # blocks of many points: far fewer stacks than points and members
        assert (len(sizes) > 0) == cubic and len(sizes) <= 2 * 200 / 10


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the arguments were checked")

    monkeypatch.setattr(fields, "sample_in_ball", refuse)


class TestEstimateLbBound:
    @pytest.mark.parametrize("s, samples", [(-1, 10), (2.0, 10), (2, 2.5), (2, "3"), (2, True),
                                            (2, 0), (2, None)])
    def test_order_and_samples_are_checked_before_sampling(self, s, samples, no_sampling):
        with pytest.raises(InvalidArgument):
            estimate_lb_bound(heisenberg(), ball([0, 0, 0], 1.0), s, samples, force_sampled=True)

    def test_order_above_three_is_refused_before_sampling(self, no_sampling):
        with pytest.raises(OrderTooHigh):
            estimate_lb_bound(heisenberg(), ball([0, 0, 0], 1.0), 4, 10, force_sampled=True)

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

    @pytest.mark.parametrize("s", [0, 1, 2])
    def test_a_field_undefined_on_part_of_the_region_gets_no_record(self, s):
        # (sqrt(x0), 1) is NaN where x0 < 0, about half of the samples: no
        # sampled bound holds there, at any order and in the euclidean norm
        dom = ball([0, 0], 1.0)
        X = VectorField(dom, lambda x: np.array([np.sqrt(x[0]), 1.0]), label="Sqrt")
        fam = FieldFamily(ChartSpace(2), (X,), dom)
        with pytest.raises(OutOfDomain, match="Sqrt"):
            estimate_lb_bound(fam, dom, s, 50, force_sampled=True)

    def test_a_jet_that_overflows_gets_no_record(self):
        # x0^400 overflows where |x0| > 5.9 or so, inside the domain
        dom = ball([0, 0], 10.0)
        fam = FieldFamily(ChartSpace(2), (polynomial_field(dom, [((1.0, (400, 0)),), ()], "P"),),
                          dom)
        with pytest.raises(OutOfDomain, match="P"):
            estimate_lb_bound(fam, dom, 1, 200)
        # a point where the jet is finite still gets its norm
        assert eval_jet_norm(fam.members[0], np.array([1.0, 0.0]), 1, fam.space) == pytest.approx(401.0)

    def test_operator_family_bounded_jets(self):
        from orbitkit.catalog import operator_family
        # matrix map [[1, 0], [x0, 1]] applied to decaying directions
        fam = operator_family(2, 2, [(1.0, (0, 0), 0, 0), (1.0, (0, 0), 1, 1),
                                     (1.0, (1, 0), 1, 0)], decay=0.5, radius=4.0)
        for s in (1, 2):
            rec = estimate_lb_bound(fam, ball([0, 0], 1.0), s, 50)
            assert np.isfinite(rec.bound_k) and rec.bound_k > 0
            assert rec.method == "sampled"
