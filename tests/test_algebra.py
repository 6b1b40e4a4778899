from dataclasses import replace

import numpy as np
import pytest

from orbitkit import flow as flow_module
from orbitkit.catalog import (affine_l1, commuting_constants, grushin, heisenberg,
                              heisenberg_full, operator_family)
from orbitkit.algebra import (FlowWord, _grid_in_region, bracket_chain, bracket_field,
                              certify_h_prime, enlarge_field, lie_bracket, lie_bracket_via_flows)
from orbitkit.algebra import SERIES_MAX_BRACKETS, _pushforward_table
from orbitkit.errors import InvalidArgument, OutOfDomain, WordNotIntegrable
from orbitkit.fields import (FieldFamily, LbRecord, MonomialTable, VectorField, calculus,
                             estimate_lb_bound, finite_difference_jvp, polynomial_field)
from orbitkit.flow import flow_single
from orbitkit.orbit import BracketChain, accessibility_verdict, distribution_at, numerical_rank
from orbitkit.space import ChartSpace, ball

TOL = 1e-9


def combo(a, X, b, Y, label="combo"):
    def ev(x):
        return a * X(x) + b * Y(x)

    table = MonomialTable.from_rows(np.concatenate([X.table.exponents, Y.table.exponents]),
                                    np.concatenate([a * X.table.coefficients,
                                                    b * Y.table.coefficients]))
    return VectorField(domain=X.domain, eval_fn=ev, table=table, label=label)


def wave_family(dim, rng):
    """Callable fields with neither a Jacobian nor a table on R^dim:
    X1 = e0 and X2 = sum_k a_k sin(k x0 + p_k) e_k, as in the benchmark's
    wave families."""
    amps = rng.uniform(0.5, 1.0, dim - 1)
    phases = rng.uniform(0.0, 2 * np.pi, dim - 1)
    k = np.arange(1, dim)
    dom = ball(np.zeros(dim), 3.0)
    e0 = np.eye(dim)[0]

    def x2(x):
        v = np.zeros(dim)
        v[1:] = amps * np.sin(k * x[0] + phases)
        return v

    members = (VectorField(dom, lambda x: e0.copy(), label="W1"), VectorField(dom, x2, label="W2"))
    return FieldFamily(space=ChartSpace(dim), members=members, common_domain=dom)


def _stripped(family):
    """The family with every member's table removed, whose enlarged fields
    take the nested path."""
    return replace(family, members=tuple(replace(m, table=None) for m in family.members))


def _translation_family(*members):
    """The fields named in ``members``, of X1 = (1, 0) and xdy = (0, x), as
    a family on the unit disc."""
    dom = ball([0, 0], 1.0)
    fields = {"X1": polynomial_field(dom, [((1.0, (0, 0)),), ()], label="X1"),
              "xdy": polynomial_field(dom, [(), ((1.0, (1, 0)),)], label="xdy")}
    return FieldFamily(space=ChartSpace(2), members=tuple(fields[m] for m in members),
                       common_domain=dom)


def _enlargement_cases(heis, heis_lb, rng):
    """Heisenberg (tabled, and stripped to the nested path) and wave
    families of dimensions 2 to 4, each with its lb."""
    yield heis, heis_lb
    yield _stripped(heis), heis_lb
    for dim in (2, 3, 4):
        fam = wave_family(dim, rng)
        yield fam, estimate_lb_bound(fam, fam.common_domain, 2, 5, force_sampled=True)


def _random_word(fam, rng):
    return FlowWord(tuple((int(rng.integers(0, len(fam))), float(rng.uniform(-0.4, 0.4)))
                          for _ in range(int(rng.integers(1, 4)))))


class TestLieBracket:
    def test_self_bracket_vanishes(self, heis):
        for m in heis.members:
            assert np.allclose(lie_bracket(m, m, np.array([0.3, 0.1, -0.2])), 0.0)

    def test_heisenberg(self, heis, rng):
        for _ in range(5):
            x = rng.uniform(-1, 1, 3)
            assert np.allclose(lie_bracket(heis.members[0], heis.members[1], x),
                               [0.0, 0.0, 1.0])

    def test_grushin(self, grush, rng):
        for _ in range(5):
            x = rng.uniform(-1, 1, 2)
            assert np.allclose(lie_bracket(grush.members[0], grush.members[1], x),
                               [0.0, 1.0])

    def test_flow_limit_cross_validation(self, heis, grush):
        x = np.array([0.2, -0.3, 0.4])
        an = lie_bracket(heis.members[0], heis.members[1], x)
        fl = lie_bracket_via_flows(heis.members[0], heis.members[1], x)
        assert np.abs(an - fl).max() <= 1e-6
        y = np.array([0.4, 0.1])
        an = lie_bracket(grush.members[0], grush.members[1], y)
        fl = lie_bracket_via_flows(grush.members[0], grush.members[1], y)
        assert np.abs(an - fl).max() <= 1e-6

    def test_bilinearity_and_antisymmetry(self, heis, rng):
        X1, X2 = heis.members
        for _ in range(10):
            a, b = rng.uniform(-2, 2, 2)
            x = rng.uniform(-0.5, 0.5, 3)
            Z = combo(1.0, X1, 0.5, X2, "Z")
            lhs = lie_bracket(combo(a, X1, b, X2), Z, x)
            rhs = a * lie_bracket(X1, Z, x) + b * lie_bracket(X2, Z, x)
            assert np.abs(lhs - rhs).max() <= 1e-6
            assert np.abs(lie_bracket(X1, X2, x) + lie_bracket(X2, X1, x)).max() <= 1e-12

    def test_jacobi_identity(self, rng):
        dom = ball([0, 0, 0], 8.0)
        # cubic-ish fields with analytic Jacobians
        A = polynomial_field(dom, [((1.0, (0, 1, 0)),), ((0.5, (1, 0, 1)),),
                                   ((1.0, (0, 0, 0)),)], label="A")
        B = polynomial_field(dom, [((1.0, (0, 0, 1)),), ((-1.0, (1, 0, 0)),), ()],
                             label="B")
        C = polynomial_field(dom, [((0.5, (2, 0, 0)),), (), ((1.0, (0, 1, 0)),)],
                             label="C")
        for _ in range(50):
            x = rng.uniform(-0.5, 0.5, 3)
            s = (lie_bracket(A, bracket_field(B, C), x)
                 + lie_bracket(B, bracket_field(C, A), x)
                 + lie_bracket(C, bracket_field(A, B), x))
            assert np.abs(s).max() <= 1e-5

    def test_a_tabled_side_takes_its_exact_jacobian_beside_an_untabled_one(self):
        # a tabled X beside an untabled Y was differenced too: here 3.9e-10
        # off the bracket with X's exact Jacobian
        dom = ball([0, 0, 0], 8.0)
        X = polynomial_field(dom, [((1.0, (5, 0, 0)),), ((2.0, (1, 3, 1)),), ((-1.0, (0, 2, 0)),)],
                             label="X")
        Y = replace(polynomial_field(dom, [((1.0, (0, 1, 0)),), ((1.0, (2, 0, 0)),), ()],
                                     label="Y"), table=None)
        x = np.array([1.1, 0.2, 0.3])
        exact = finite_difference_jvp(Y, x, X(x)) - X.jacobian(x) @ Y(x)
        assert lie_bracket(X, Y, x).tobytes() == exact.tobytes()
        assert lie_bracket(Y, X, x).tobytes() == (-exact).tobytes()


class TestEnlargement:
    def test_empty_word_is_base_field(self, heis, heis_lb):
        Y = enlarge_field(heis, FlowWord(()), 1, 1.0, heis_lb)
        x = np.array([0.3, 0.2, 0.1])
        assert np.allclose(Y(x), heis.members[1](x), atol=1e-12)
        assert Y.in_enlargement

    @pytest.mark.parametrize("stripped", [False, True], ids=["tabled", "nested"])
    def test_a_letter_or_base_outside_the_family_is_refused(self, heis, heis_lb, stripped):
        # an index past the family, or below it, used to push along another
        # member or raise a bare IndexError
        fam = replace(heis, members=tuple(replace(m, table=None) for m in heis.members)) \
            if stripped else heis
        for word, base in [(((2, 0.2),), 0), (((0, 0.2), (5, 0.1)), 1), (((0, 0.2),), -1),
                           (((0, 0.2),), 2), ((), 3)]:
            with pytest.raises(InvalidArgument):
                enlarge_field(fam, FlowWord(word), base, 1.0, heis_lb)
        with pytest.raises(InvalidArgument):
            enlarge_field(fam, FlowWord(((-1, 0.2),)), 0, 1.0, heis_lb)

    def test_translation_word_pushforward(self):
        # pushing the shear field through a unit translation shifts its
        # coefficient: eval(x, y) = (0, x - 1)
        dom = ball([0, 0], 8.0)
        from orbitkit.fields import FieldFamily
        from orbitkit.space import ChartSpace
        X1 = polynomial_field(dom, [((1.0, (0, 0)),), ()], label="X1")
        Y = polynomial_field(dom, [(), ((1.0, (1, 0)),)], label="xdy")
        fam = FieldFamily(space=ChartSpace(2), members=(X1, Y), common_domain=dom)
        lb = estimate_lb_bound(fam, ball([0, 0], 4.0), 2, 30)
        Z = enlarge_field(fam, FlowWord(((0, 1.0),)), 1, 1.0, lb)
        for x, y in [(0.0, 0.0), (0.5, -0.3), (2.0, 1.0)]:
            assert np.allclose(Z(np.array([x, y])), [0.0, x - 1.0], atol=1e-8)

    def test_heisenberg_word_closed_form(self, heis, heis_lb):
        # pushforward of the shear member through a unit flow of the first
        # member: closed form (0, 1, x - 1)
        Z = enlarge_field(heis, FlowWord(((0, 1.0),)), 1, 1.0, heis_lb)
        for x in ([0.5, 0.0, 0.0], [0.2, 0.3, -0.1]):
            got = Z(np.array(x))
            assert np.allclose(got, [0.0, 1.0, x[0] - 1.0], atol=1e-8)

    def test_conjugation_identity(self, heis, heis_lb, rng):
        # keystone: the flow of the enlarged field equals the conjugated flow
        ftol = 1e-8
        for _ in range(10):
            letters = tuple((int(rng.integers(0, 2)), float(rng.uniform(-0.4, 0.4)))
                            for _ in range(int(rng.integers(1, 3))))
            word = FlowWord(letters)
            base = int(rng.integers(0, 2))
            nu = float(rng.uniform(0.5, 2.0))
            Y = enlarge_field(heis, word, base, nu, heis_lb, tol=ftol)
            x = rng.uniform(-0.3, 0.3, 3)
            t = float(rng.uniform(-0.3, 0.3))
            lhs = flow_single(Y, x, t, tol=ftol).endpoint
            z = word.inverse().apply(heis, x, tol=ftol)
            mid = flow_single(heis.members[base], z, nu * t, tol=ftol).endpoint
            rhs = word.apply(heis, mid, tol=ftol)
            assert np.abs(lhs - rhs).max() <= 10 * ftol * (1 + np.abs(rhs).max())

    def test_conjugation_identity_without_jacobians(self, rng):
        # the tangent run differentiates the wave members by central
        # differences along the carried vector
        ftol = 1e-8
        for dim in (2, 3, 4):
            fam = wave_family(dim, rng)
            lb = estimate_lb_bound(fam, fam.common_domain, 2, 5, force_sampled=True)
            for _ in range(3):
                word = _random_word(fam, rng)
                base = int(rng.integers(0, 2))
                nu = float(rng.uniform(0.5, 2.0))
                Y = enlarge_field(fam, word, base, nu, lb, tol=ftol)
                x = rng.uniform(-0.3, 0.3, dim)
                t = float(rng.uniform(-0.3, 0.3))
                lhs = flow_single(Y, x, t, tol=ftol).endpoint
                z = word.inverse().apply(fam, x, tol=ftol)
                mid = flow_single(fam.members[base], z, nu * t, tol=ftol).endpoint
                rhs = word.apply(fam, mid, tol=ftol)
                assert np.abs(lhs - rhs).max() <= 10 * ftol * (1 + np.abs(rhs).max())

    def test_eval_many_matches_the_variational_formula(self, heis, heis_lb, rng):
        ftol = 1e-8
        for fam, lb in _enlargement_cases(heis, heis_lb, rng):
            dim = fam.space.dimension
            for _ in range(3):
                word = _random_word(fam, rng)
                base = int(rng.integers(0, len(fam)))
                nu = float(rng.uniform(0.5, 2.0))
                Y = enlarge_field(fam, word, base, nu, lb, tol=ftol)
                P = rng.uniform(-0.3, 0.3, (5, dim))
                got = Y.eval_many(P)
                assert got.shape == P.shape
                for x, v in zip(P, got):
                    z = word.inverse().apply(fam, x, tol=ftol)
                    _, M = word.apply_with_variational(fam, z, tol=ftol)
                    ref = M @ (nu * fam.members[base](z))
                    assert np.abs(v - ref).max() <= 10 * ftol * (1 + np.abs(v).max())
                    assert np.abs(Y(x) - ref).max() <= 10 * ftol * (1 + np.abs(v).max())

    def test_a_row_leaving_the_region_fails_the_stack(self):
        # the nested path, on members without tables
        fam = _stripped(_translation_family("X1", "xdy"))
        lb = LbRecord(order_s=2, bound_k=100.0, region=fam.common_domain)
        # the backward word moves every point by -0.9995 along the first axis
        Z = enlarge_field(fam, FlowWord(((0, 0.9995),)), 1, 1.0, lb)
        assert np.allclose(Z(np.zeros(2)), [0.0, -0.9995], atol=1e-8)
        P = np.array([[0.0, 0.0], [-0.01, 0.0], [0.0, 0.01]])
        assert np.allclose(Z.eval_many(P[[0, 2]]), [[0.0, -0.9995]] * 2, atol=1e-8)
        with pytest.raises(WordNotIntegrable):
            Z.eval_many(P)
        # the order-2 screen's shifted points at the center include such rows
        assert Z.screen_jet == float("inf")
        assert not Z.in_enlargement

    def test_a_tabled_field_is_exact_where_the_nested_word_leaves(self):
        # the same pushforward from tables is the series Y - t [X1, Y], the
        # closed form (0, x - 0.9995) at every point of the region, the rows
        # whose word leaves it included
        fam = _translation_family("X1", "xdy")
        lb = LbRecord(order_s=2, bound_k=100.0, region=fam.common_domain)
        Z = enlarge_field(fam, FlowWord(((0, 0.9995),)), 1, 1.0, lb)
        assert Z.table is not None
        P = np.array([[0.0, 0.0], [-0.01, 0.0], [0.0, 0.01], [-0.9, 0.3]])
        assert np.allclose(Z.eval_many(P), [[0.0, x - 0.9995] for x in P[:, 0]], atol=1e-15)
        assert np.allclose(Z(P[1]), [0.0, -1.0095], atol=1e-15)
        assert np.isfinite(Z.screen_jet) and Z.in_enlargement

    def test_idempotence_composes_words(self, heis, heis_lb):
        ftol = 1e-8
        w1 = FlowWord(((0, 0.5),))
        w2 = FlowWord(((1, 0.3),))
        inner = enlarge_field(heis, w1, 1, 2.0, heis_lb, tol=ftol)
        outer = enlarge_field(heis, w2, inner, 1.5, heis_lb, tol=ftol)
        assert outer.word.letters == w1.then(w2).letters
        assert outer.scale == pytest.approx(3.0)
        direct = enlarge_field(heis, w1.then(w2), 1, 3.0, heis_lb, tol=ftol)
        for _ in range(3):
            x = np.random.default_rng(3).uniform(-0.3, 0.3, 3)
            assert np.abs(outer(x) - direct(x)).max() <= 10 * ftol * (1 + np.abs(direct(x)).max())

    def test_screening_flags_oversized_fields(self, heis, heis_lb):
        # scaling far beyond the family bound must trip the membership screen
        Y = enlarge_field(heis, FlowWord(()), 0, 50.0, heis_lb)
        assert not Y.in_enlargement
        assert Y.screen_jet > heis_lb.bound_k

    @pytest.mark.parametrize("nu", [0.0, -1.0])
    def test_a_scale_that_is_not_positive_is_an_invalid_argument(self, heis, heis_lb, nu):
        with pytest.raises(InvalidArgument, match="scale must be positive"):
            enlarge_field(heis, FlowWord(()), 0, nu, heis_lb)

    def test_word_not_integrable(self):
        # the nested path, on a member without a table
        fam = _stripped(_translation_family("X1"))
        lb = LbRecord(order_s=2, bound_k=1.25, region=fam.common_domain)
        Z = enlarge_field(fam, FlowWord(((0, 0.2),)), 0, 1.0, lb)
        with pytest.raises(WordNotIntegrable):
            Z(np.array([-0.95, 0.0]))  # backward word exits the unit ball

    def test_a_stack_that_leaves_raises_at_the_first_stop(self, monkeypatch):
        # every row's inverse word leaves the unit ball at its second letter:
        # the stack raises there, with no row run again alone
        fam = _stripped(_translation_family("X1", "xdy"))
        lb = LbRecord(order_s=2, bound_k=1.25, region=fam.common_domain)
        Z = enlarge_field(fam, FlowWord(((0, 0.2), (1, 0.3))), 0, 1.0, lb)
        calls, original = [], flow_module.flow_single

        def counted(*args, **kwargs):
            calls.append(np.shape(args[1]))
            return original(*args, **kwargs)

        monkeypatch.setattr(flow_module, "flow_single", counted)
        with pytest.raises(WordNotIntegrable):
            Z.eval_many(np.column_stack([np.full(6, -0.95), np.linspace(-0.3, -0.2, 6)]))
        assert calls == [(6, 2), (6, 2)]


class TestLieSeries:
    """Enlarged fields of tabled families carry the pushforward series as a
    table; the nested flows of the stripped family are the reference."""

    @pytest.mark.parametrize("build", [heisenberg, heisenberg_full, grushin])
    def test_series_matches_the_nested_path(self, build, rng):
        fam = build()
        stripped = _stripped(fam)
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 8)
        ftol = 1e-10
        for _ in range(30):
            word = _random_word(fam, rng)
            base = int(rng.integers(0, len(fam)))
            nu = float(rng.uniform(0.5, 2.0))
            Y = enlarge_field(fam, word, base, nu, lb, tol=ftol)
            assert Y.table is not None
            P = rng.uniform(-0.3, 0.3, (20, fam.space.dimension))
            ref = enlarge_field(stripped, word, base, nu, lb, tol=ftol).eval_many(P)
            got = Y.eval_many(P)
            assert np.all(np.abs(got - ref) <= 10 * ftol * (1 + np.abs(ref)))

    def test_series_that_does_not_stop_runs_nested(self, rng, monkeypatch):
        fam = affine_l1(6, 5, 0.7, linear_part=True)
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 8)
        wave = wave_family(3, rng)
        wave_lb = estimate_lb_bound(wave, wave.common_domain, 2, 5, force_sampled=True)
        fields = [enlarge_field(fam, FlowWord(((0, 0.3), (1, -0.2))), 1, 1.0, lb),
                  enlarge_field(wave, FlowWord(((0, 0.3), (1, -0.2))), 1, 1.0, wave_lb)]
        runs, single = [], flow_module.flow_single

        def counted(*args, **kwargs):
            runs.append(1)
            return single(*args, **kwargs)

        monkeypatch.setattr(flow_module, "flow_single", counted)
        for Y in fields:
            assert Y.table is None
            runs.clear()
            Y.eval_many(np.zeros((2, Y.domain.center.size)))
            assert len(runs) == 4  # the inverse word and the word, two letters each

    @pytest.mark.parametrize("n", [SERIES_MAX_BRACKETS - 1, SERIES_MAX_BRACKETS])
    def test_the_cap_bounds_the_brackets_per_letter(self, n):
        # ad_X^k of Y = x^n e1 along X = e0 is nonzero for k <= n, so the
        # series stops at bracket n + 1; pushed along X for t = -0.5 it is
        # (x + 0.5)^n e1
        dom = ball([0, 0], 2.0)
        X = polynomial_field(dom, [((1.0, (0, 0)),), ()], label="X")
        Y = polynomial_field(dom, [(), ((1.0, (n, 0)),)], label="Y")
        table = _pushforward_table((X, Y), FlowWord(((0, -0.5),)), Y.table)
        if n == SERIES_MAX_BRACKETS:
            assert table is None
        else:
            x = np.array([0.7, -0.4])
            assert np.allclose(table(x), [0.0, (x[0] + 0.5) ** n], rtol=1e-13, atol=0.0)

    def test_an_enlarged_base_gives_the_direct_table(self, heis, heis_lb, rng):
        w1, w2 = FlowWord(((0, 0.5), (1, -0.2))), FlowWord(((1, 0.3),))
        inner = enlarge_field(heis, w1, 1, 2.0, heis_lb)
        outer = enlarge_field(heis, w2, inner, 1.5, heis_lb)
        direct = enlarge_field(heis, w1.then(w2), 1, 3.0, heis_lb)
        assert outer.table is not None and outer.word == direct.word
        P = rng.uniform(-1.0, 1.0, (10, 3))
        assert np.allclose(outer.eval_many(P), direct.eval_many(P), rtol=0.0, atol=1e-14)

    def test_brackets_and_distributions_of_a_tabled_field_are_exact(self, heis, heis_lb):
        Y = enlarge_field(heis, FlowWord(((0, 0.4),)), 1, 1.0, heis_lb)
        fam = FieldFamily(space=heis.space, members=(heis.members[0], Y),
                          common_domain=heis.common_domain)
        x = np.array([0.2, -0.1, 0.3])
        assert calculus(fam.members) == "exact"
        chain = bracket_chain(fam, x, 2)
        assert chain.rank_profile == (2, 3)
        assert calculus(chain.generations[-1].source_fields) == "exact"
        basis = distribution_at(heis, x, [Y])
        assert calculus(basis.source_fields) == "exact"
        # X2 pushed along X1 for 0.4 is (0, 1, x - 0.4), and [X1, Y] = (0, 0, 1)
        assert np.allclose(basis.vectors[:, 2], [0.0, 1.0, x[0] - 0.4], atol=1e-15)
        assert np.allclose(lie_bracket(heis.members[0], Y, x), [0.0, 0.0, 1.0], atol=1e-15)


class TestBracketChain:
    def test_heisenberg_ranks(self, heis):
        chain = bracket_chain(heis, np.zeros(3), 2)
        assert chain.rank_profile == (2, 3)
        assert chain.saturation_generation(3) == 2

    def test_commuting_ranks(self):
        fam = commuting_constants(3, 2)
        chain = bracket_chain(fam, np.zeros(3), 3)
        assert chain.rank_profile == (2, 2, 2)

    def test_grushin_origin(self, grush):
        chain = bracket_chain(grush, np.zeros(2), 2)
        assert chain.rank_profile == (1, 2)

    def test_generations_nest(self, heis):
        chain = bracket_chain(heis, np.zeros(3), 2)
        g1, g2 = chain.generations
        assert g2.source_labels[:len(g1.source_labels)] == g1.source_labels

    def test_the_rank_profile_is_read_from_the_generations(self, heis):
        chain = bracket_chain(heis, np.zeros(3), 3)
        assert chain.rank_profile == tuple(g.rank for g in chain.generations) == (2, 3)
        with pytest.raises(TypeError):
            BracketChain(chain.anchor, chain.generations, rank_profile=(2, 3))


def chain_family(dim, coeffs=None):
    """X1 = e1, X2 = e2 + sum_k c_k x0^k e_{k+2}: generation k of the bracket
    chain adds exactly one direction, so the exact profile is (2, 3, ..., dim)."""
    dom = ball(np.zeros(dim), 1.5)
    zero = (0,) * dim
    if coeffs is None:
        coeffs = [(-1.0) ** k * (0.5 + 0.2 * k) for k in range(dim - 2)]
    comps1 = [((1.0, zero),)] + [()] * (dim - 1)
    comps2 = [(), ((1.0, zero),)] + [((c, (k,) + zero[1:]),) for k, c in enumerate(coeffs, 1)]
    members = (polynomial_field(dom, comps1, "X1"), polynomial_field(dom, comps2, "X2"))
    return FieldFamily(space=ChartSpace(dim), members=members, common_domain=dom)


def reference_chain(family, x, k_max):
    """The bracket chain with no bracket dropped: every member against every
    new field of the previous generation."""
    fields_acc, new_fields = list(family.members), list(family.members)
    profile = [numerical_rank(np.stack([f(x) for f in fields_acc], axis=1))]
    for _ in range(2, k_max + 1):
        if profile[-1] >= family.space.dimension:
            break
        new_fields = [bracket_field(X, Y) for X in family.members for Y in new_fields
                      if X is not Y]
        fields_acc += new_fields
        profile.append(numerical_rank(np.stack([f(x) for f in fields_acc], axis=1)))
        if not new_fields:
            break
    return tuple(profile)


def catalog_cases():
    """(family, points, k_max) for every catalog family, as pytest params."""
    rng = np.random.default_rng(7)
    affine = affine_l1(8, 4, decay=0.7, linear_part=True)
    cases = {
        "heisenberg": (heisenberg(), [np.zeros(3), rng.uniform(-1, 1, 3)], 3),
        "heisenberg-full": (heisenberg_full(), [rng.uniform(-1, 1, 3)], 3),
        "grushin": (grushin(), [np.zeros(2), np.array([0.0, 0.7]), rng.uniform(-1, 1, 2)], 3),
        "commuting-constants": (commuting_constants(4, 3), [rng.uniform(-1, 1, 4)], 3),
        "commuting-constants-one": (commuting_constants(3, 1), [np.zeros(3)], 3),
        "affine-l1": (affine_l1(8, 4, decay=0.7), [np.zeros(8)], 3),
        "affine-l1-linear": (affine, [np.zeros(8), 0.5 * affine.space.unit_vector(rng)], 3),
        "operator-family": (operator_family(3, 3, [(1.0, (0, 0, 0), 0, 0), (1.0, (0, 0, 0), 1, 1),
                                                   (1.0, (1, 0, 0), 1, 0), (0.5, (0, 2, 0), 2, 1),
                                                   (1.0, (0, 0, 0), 2, 2)]),
                            [rng.uniform(-1, 1, 3)], 3),
    }
    for dim in (4, 5, 6, 7):
        cases[f"chain-{dim}"] = (chain_family(dim), [rng.uniform(-0.5, 0.5, dim)], dim - 1)
    return [pytest.param(*case, id=name) for name, case in cases.items()]


class TestExactBrackets:
    def test_vanishing_brackets_keep_the_rank(self):
        # X2 = (0, 1, x^4 y^2): every bracket up to generation 3 vanishes at
        # (0, 3, 0); nested finite differences reported (2, 2, 3)
        dom = ball([0, 0, 0], 8.0)
        X1 = polynomial_field(dom, [((1.0, (0, 0, 0)),), (), ()], "X1")
        X2 = polynomial_field(dom, [(), ((1.0, (0, 0, 0)),), ((1.0, (4, 2, 0)),)], "X2")
        fam = FieldFamily(space=ChartSpace(3), members=(X1, X2), common_domain=dom)
        x = np.array([0.0, 3.0, 0.0])
        assert bracket_chain(fam, x, 3).rank_profile == (2, 2, 2)
        verdict = accessibility_verdict(fam, x, 3)
        assert verdict.kind == "rank_deficient"

    def test_dimension_seven_chain_profile(self):
        fam = chain_family(7, [0.9, -1.3, 0.7, 1.1, -0.6])
        for x in np.random.default_rng(11).uniform(-0.5, 0.5, (5, 7)):
            chain = bracket_chain(fam, x, 6)
            assert chain.rank_profile == (2, 3, 4, 5, 6, 7)

    @pytest.mark.parametrize("fam, points, k_max", catalog_cases())
    def test_dropping_brackets_in_the_span_keeps_the_profile(self, fam, points, k_max):
        for x in points:
            chain = bracket_chain(fam, x, k_max)
            ref = reference_chain(fam, x, k_max)
            assert chain.rank_profile == ref
            assert len(chain.generations) == len(ref)

    def test_affine_brackets_are_dropped(self):
        # [x + a, x + b] = a - b lies in the span of the members
        fam = affine_l1(8, 4, linear_part=True)
        chain = bracket_chain(fam, np.zeros(8), 3)
        assert chain.rank_profile == (4, 4, 4)
        assert all(len(g.source_fields) == 4 for g in chain.generations)

    def test_point_outside_the_domain(self, heis):
        with pytest.raises(OutOfDomain):
            bracket_chain(heis, np.array([9.0, 0.0, 0.0]), 2)


def reference_certify(family, region, grid_size, tol):
    """Per-point dictionary, bracket, rank and ``np.linalg.lstsq``."""
    grid = _grid_in_region(region, family.space.dimension, grid_size)
    members = family.members
    pairs = [(i, j) for i in range(len(members)) for j in range(i + 1, len(members))]
    coeffs, residuals, flags = [], [], []
    for p, y in enumerate(grid):
        A = np.stack([f(y) for f in members], axis=1)
        if numerical_rank(A) < min(A.shape):
            flags.append(p)
        row_c, row_r = [], []
        for i, j in pairs:
            b = lie_bracket(members[i], members[j], y)
            c = np.linalg.lstsq(A, b, rcond=None)[0]
            row_c.append(c)
            row_r.append(float(np.linalg.norm(A @ c - b)))
        coeffs.append(row_c)
        residuals.append(row_r)
    return np.array(coeffs), np.array(residuals), tuple(flags)


class TestCertifyHPrime:
    @pytest.mark.parametrize("build, grid", [(heisenberg_full, 4), (grushin, 5),
                                             (lambda: chain_family(4), 3),
                                             (lambda: commuting_constants(3, 2), 3)])
    def test_batched_matches_per_point_reference(self, build, grid):
        fam = build()
        region = ball(fam.common_domain.center, 0.5)
        rep = certify_h_prime(fam, region, grid_size=grid, tol=1e-8)
        coeffs, residuals, flags = reference_certify(fam, region, grid, 1e-8)
        assert np.abs(rep.coefficients - coeffs).max(initial=0.0) <= 1e-12
        assert np.abs(rep.residuals - residuals).max(initial=0.0) <= 1e-12
        assert rep.rank_deficient_points == flags

    def test_fields_without_tables(self, heis):
        # the same fields behind plain callables take the finite-difference path
        plain = FieldFamily(space=heis.space, common_domain=heis.common_domain,
                            members=tuple(VectorField(m.domain, m.eval_fn, label=m.label)
                                          for m in heisenberg_full().members))
        rep = certify_h_prime(plain, ball([0, 0, 0], 0.5), grid_size=3, tol=1e-6)
        assert rep.certified
        assert rep.bound_C == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("grid", [0, -1])
    def test_grid_below_one_is_an_invalid_argument(self, heis, grid):
        # an empty grid used to certify over zero points
        with pytest.raises(InvalidArgument):
            certify_h_prime(heis, ball([0, 0, 0], 0.5), grid_size=grid)

    def test_commuting_certified_zero(self):
        fam = commuting_constants(3, 2)
        rep = certify_h_prime(fam, fam.common_domain, grid_size=3, tol=1e-8)
        assert rep.certified
        assert rep.bound_C == 0.0

    def test_heisenberg_pair_refused(self, heis):
        rep = certify_h_prime(heis, ball([0, 0, 0], 0.5), grid_size=3, tol=1e-8)
        assert not rep.certified
        # the bracket is orthogonal to the span at the center and stays
        # order-one nearby
        assert rep.residuals.max() == pytest.approx(1.0, abs=1e-12)
        assert rep.residuals.min() >= 0.5

    def test_heisenberg_with_vertical_certified(self):
        fam = heisenberg_full()
        rep = certify_h_prime(fam, ball([0, 0, 0], 0.5), grid_size=3, tol=1e-8)
        assert rep.certified
        assert rep.bound_C == pytest.approx(1.0, abs=1e-8)
        pair_idx = rep.pairs.index((0, 1))
        assert np.allclose(rep.coefficients[:, pair_idx, 2], 1.0, atol=1e-8)

    def test_rank_deficiency_flagged_not_fatal(self, grush):
        region = ball([0, 0], 0.5)
        rep = certify_h_prime(grush, region, grid_size=3, tol=1e-8)
        # the x=0 line makes the dictionary rank-deficient there
        assert len(rep.rank_deficient_points) > 0
