import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitkit.catalog import affine_l1, grushin, heisenberg
from orbitkit.errors import GuardViolated, InvalidArgument, TailNotSummable
from orbitkit.compose import (compose_flows, compose_inverse, d_psi, extract_l1_curve,
                              gamma_control, psi_chart)
from orbitkit.fields import LbRecord, estimate_lb_bound
from orbitkit.flow import FlowWord, flow_control, guard
from orbitkit.space import L1Coefficients

TOL = 1e-9


@pytest.fixture(scope="module")
def commuting():
    # unit canonical directions on a truncated summable-sequence chart
    return affine_l1(24, 24, decay=1.0, radius=6.0)


@pytest.fixture(scope="module")
def commuting_lb(commuting):
    return estimate_lb_bound(commuting, commuting.common_domain, 2, 50)


def geometric_tau(n=24, ratio=0.5, tail=0.0):
    return L1Coefficients(tuple((i, ratio ** i) for i in range(n)), tail)


class TestGammaControl:
    def test_forward_pieces(self):
        g = gamma_control(L1Coefficients(((0, 1.0), (1, -2.0))))
        assert g.pieces[0][:2] == (0.0, 1.0)
        assert g.pieces[0][2].entries == ((0, 1.0),)
        assert g.pieces[1][:2] == (1.0, 3.0)
        assert g.pieces[1][2].entries == ((1, -1.0),)
        assert g.sup_norm == 1.0
        assert g.l1_norm == 3.0

    def test_empty(self):
        g = gamma_control(L1Coefficients(()))
        assert g.pieces == ()
        assert g.l1_norm == 0.0

    def test_backward_flow_runs_the_inverse_word(self, heis, heis_lb):
        # flowing gamma_control(tau) back over its whole time reverses the
        # pieces, which is the inverse word's forward control
        tau = L1Coefficients(((0, 0.15), (1, -0.2)))
        x = np.array([0.1, -0.2, 0.3])
        y = compose_flows(heis, heis_lb, tau, x, tol=TOL).endpoint
        g = gamma_control(tau)
        back = flow_control(heis, g, y, g.l1_norm, -g.l1_norm, tol=TOL)
        inv = compose_inverse(heis, heis_lb, tau, y, tol=TOL)
        assert np.abs(back.endpoint - inv.endpoint).max() <= 10 * TOL
        assert np.abs(back.endpoint - x).max() <= 10 * TOL


class TestComposeFlows:
    def test_identity_for_empty_tau(self, heis, heis_lb):
        res = compose_flows(heis, heis_lb, L1Coefficients(()), np.array([0.1, 0.2, 0.3]))
        assert np.array_equal(res.endpoint, [0.1, 0.2, 0.3])
        assert res.word == ()
        assert res.tail_error_bound == 0.0

    def test_heisenberg_two_letters(self, heis, heis_lb):
        res = compose_flows(heis, heis_lb, L1Coefficients(((0, 1.0), (1, 1.0))),
                            np.zeros(3), unsafe=True)
        assert np.allclose(res.endpoint, [1.0, 1.0, 1.0], atol=1e-6)

    def test_commuting_constants_closed_form(self, commuting, commuting_lb):
        tau = geometric_tau()
        x = np.zeros(24)
        res = compose_flows(commuting, commuting_lb, tau, x, tol=TOL)
        expected = np.array([0.5 ** i for i in range(24)])
        assert np.abs(res.endpoint - expected).max() <= 1e-9

    def test_tail_bound_with_declared_tail(self, commuting, commuting_lb):
        n = 12
        tau = L1Coefficients(tuple((i, 0.5 ** i) for i in range(n)), tail_bound=0.5 ** n)
        res = compose_flows(commuting, commuting_lb, tau, np.zeros(24), tol=TOL,
                            truncation_n=n)
        k = commuting_lb.bound_k
        factor = k * np.exp(k * tau.norm1)
        assert res.tail_error_bound == pytest.approx(factor * 0.5 ** n)
        # the auto rule keeps enough entries to drive the bound under tol
        auto = compose_flows(commuting, commuting_lb, tau, np.zeros(24), tol=1e-2)
        assert auto.tail_error_bound <= 1e-2

    def test_tail_not_summable(self, commuting, commuting_lb):
        tau = L1Coefficients(((0, 0.5),), tail_bound=0.3)
        with pytest.raises(TailNotSummable):
            compose_flows(commuting, commuting_lb, tau, np.zeros(24), tol=1e-9)

    @pytest.mark.parametrize("compose", [compose_flows, compose_inverse])
    def test_tail_factor_saturates(self, commuting, compose):
        # k * |tau|_1 = 800 overflows exp: the factor is inf, so a composition
        # that drops nothing is exact, one that drops mass has an infinite
        # bound, and a declared tail is refused
        lb = LbRecord(order_s=2, bound_k=1000.0, region=commuting.common_domain)
        tau = L1Coefficients(((0, 0.5), (3, -0.3)))
        res = compose(commuting, lb, tau, np.zeros(24), tol=TOL, unsafe=True)
        assert res.truncation_n == 2 and res.tail_error_bound == 0.0
        expected = np.zeros(24)
        expected[[0, 3]] = [0.5, -0.3] if compose is compose_flows else [-0.5, 0.3]
        assert np.abs(res.endpoint - expected).max() <= 1e-9
        cut = compose(commuting, lb, tau, np.zeros(24), tol=TOL, truncation_n=1, unsafe=True)
        assert cut.tail_error_bound == np.inf
        with pytest.raises(TailNotSummable):
            compose(commuting, lb, L1Coefficients(tau.entries, 0.1), np.zeros(24), tol=TOL,
                    unsafe=True)

    def test_guard_strict(self, commuting, commuting_lb):
        # smallness limit is r/k = 3.0 here; exactly hitting it must refuse
        tau = L1Coefficients(((0, 3.0),))
        with pytest.raises(GuardViolated):
            compose_flows(commuting, commuting_lb, tau, np.zeros(24))
        compose_flows(commuting, commuting_lb, tau, np.zeros(24), unsafe=True)

    def test_word_durations_sum_to_kept_mass(self, heis, heis_lb):
        tau = L1Coefficients(((0, 0.1), (1, -0.2)))
        res = compose_flows(heis, heis_lb, tau, np.zeros(3))
        assert sum(abs(d) for _, d in res.word) == pytest.approx(0.3)


class TestTailBoundHonesty:
    def test_truncation_error_dominated(self, commuting, commuting_lb):
        tau = geometric_tau()
        x = np.zeros(24)
        exact = np.array([0.5 ** i for i in range(24)])
        for n in (4, 8, 12, 16, 20):
            res = compose_flows(commuting, commuting_lb, tau, x, tol=TOL, truncation_n=n)
            err = float(np.sum(np.abs(res.endpoint - exact)))  # chart norm is l1
            assert err <= res.tail_error_bound
            assert res.truncation_n == n

    def test_truncation_cauchy(self, commuting, commuting_lb):
        tau = geometric_tau()
        x = np.zeros(24)
        prev = None
        for n in (4, 9, 14, 19):
            res = compose_flows(commuting, commuting_lb, tau, x, tol=TOL, truncation_n=n)
            nxt = compose_flows(commuting, commuting_lb, tau, x, tol=TOL, truncation_n=n + 5)
            gap = float(np.sum(np.abs(nxt.endpoint - res.endpoint)))
            assert gap <= res.tail_error_bound
            if prev is not None:
                assert res.tail_error_bound < prev
            prev = res.tail_error_bound


class TestComposeInverse:
    def test_singleton_is_plain_backward_flow(self, heis, heis_lb):
        from orbitkit.flow import flow_single
        y = np.array([0.2, -0.1, 0.05])
        res = compose_inverse(heis, heis_lb, L1Coefficients(((0, 0.3),)), y)
        direct = flow_single(heis.members[0], y, -0.3, tol=TOL).endpoint
        assert np.abs(res.endpoint - direct).max() <= 10 * TOL

    def test_heisenberg_inverse(self, heis, heis_lb):
        res = compose_inverse(heis, heis_lb, L1Coefficients(((0, 1.0), (1, 1.0))),
                              np.array([1.0, 1.0, 1.0]), unsafe=True)
        assert np.abs(res.endpoint).max() <= 1e-6

    @pytest.mark.parametrize("family_builder,dim", [(heisenberg, 3), (grushin, 2)])
    def test_round_trip_catalog(self, family_builder, dim, rng):
        fam = family_builder()
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 30)
        for _ in range(8):
            pairs = [(i, float(rng.uniform(-0.15, 0.15))) for i in range(len(fam.members))]
            tau = L1Coefficients.from_pairs(pairs)
            x = rng.uniform(-0.3, 0.3, dim)
            fwd = compose_flows(fam, lb, tau, x, tol=TOL)
            back = compose_inverse(fam, lb, tau, fwd.endpoint, tol=TOL)
            assert np.abs(back.endpoint - x).max() <= 10 * TOL * (1 + np.abs(x).max())


class TestPathEquivalence:
    @pytest.mark.parametrize("family_builder,dim", [(heisenberg, 3), (grushin, 2)])
    def test_control_vs_sequential(self, family_builder, dim, rng):
        fam = family_builder()
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 30)
        for _ in range(10):
            pairs = [(i, float(rng.uniform(-0.15, 0.15))) for i in range(len(fam.members))]
            tau = L1Coefficients.from_pairs(pairs)
            x = rng.uniform(-0.3, 0.3, dim)
            a = compose_flows(fam, lb, tau, x, tol=TOL, path="control").endpoint
            b = compose_flows(fam, lb, tau, x, tol=TOL, path="sequential").endpoint
            assert np.abs(a - b).max() <= 10 * TOL * (1 + np.abs(a).max())

    def test_order_dependence_detected(self, heis, heis_lb):
        # swapping the two letters must shift the vertical coordinate by the
        # commutator effect; this guards against silently sorting the word
        from orbitkit.catalog import heisenberg as build_h
        from orbitkit.fields import FieldFamily
        fam = build_h()
        swapped = FieldFamily(space=fam.space, members=(fam.members[1], fam.members[0]),
                              common_domain=fam.common_domain,
                              declared_lb=fam.declared_lb)
        tau = L1Coefficients(((0, 1.0), (1, 1.0)))
        a = compose_flows(fam, heis_lb, tau, np.zeros(3), unsafe=True).endpoint
        b = compose_flows(swapped, heis_lb, tau, np.zeros(3), unsafe=True).endpoint
        assert abs((a[2] - b[2]) - 1.0) <= 1e-5


class TestLettersBelowTheFloatSpacing:
    """A letter shorter than the float spacing at its start time must not
    become a zero-length control piece: the control path runs the word and
    agrees with the sequential one."""

    CASES = [
        (lambda: heisenberg(), L1Coefficients(((0, 0.1), (1, 1e-18))), 2),
        (lambda: affine_l1(8, 4, linear_part=True),
         L1Coefficients(((0, 0.1), (1, 1e-18), (2, 0.05))), None),
    ]

    @pytest.mark.parametrize("build, tau, truncation_n", CASES)
    @pytest.mark.parametrize("compose", [compose_flows, compose_inverse])
    def test_control_agrees_with_sequential(self, build, tau, truncation_n, compose):
        fam = build()
        lb = estimate_lb_bound(fam, fam.common_domain, 2, 30)
        x = np.full(fam.space.dimension, 0.05)
        a = compose(fam, lb, tau, x, tol=TOL, truncation_n=truncation_n, path="control")
        b = compose(fam, lb, tau, x, tol=TOL, truncation_n=truncation_n, path="sequential")
        assert a.word == b.word and any(abs(d) == 1e-18 for _, d in a.word)
        assert np.abs(a.endpoint - b.endpoint).max() <= TOL * (1 + np.abs(b.endpoint).max())

    def test_gamma_control_drops_only_the_empty_piece(self):
        u = gamma_control(L1Coefficients(((0, 0.1), (1, 1e-18), (2, 0.05))))
        assert [c.support for _, _, c in u.pieces] == [(0,), (2,)]
        assert u.pieces[0][1] == u.pieces[1][0]


class TestIndicesWithoutMembers:
    @pytest.mark.parametrize("path", ["control", "sequential"])
    @pytest.mark.parametrize("compose", [compose_flows, compose_inverse])
    def test_invalid_argument(self, heis, heis_lb, compose, path):
        tau = L1Coefficients(((0, 0.1), (5, 0.05)))
        with pytest.raises(InvalidArgument, match="index 5 has no family member"):
            compose(heis, heis_lb, tau, np.zeros(3), tol=TOL, path=path)

    def test_dropped_tail_may_lie_beyond_the_family(self, heis, heis_lb):
        tau = L1Coefficients(((0, 0.1), (5, 0.05)))
        res = compose_flows(heis, heis_lb, tau, np.zeros(3), tol=TOL, truncation_n=1)
        assert res.word == ((0, 0.1),)

    def test_sigma_of_the_differential(self, heis, heis_lb):
        with pytest.raises(InvalidArgument):
            d_psi(heis, heis_lb, np.zeros(3), L1Coefficients(((0, 0.1),)),
                  L1Coefficients(((4, 1.0),)))


class TestChartDifferential:
    def test_dpsi_at_zero_is_field_combination(self, heis, heis_lb):
        x = np.array([0.2, -0.1, 0.3])
        for alpha in (0, 1):
            sigma = L1Coefficients(((alpha, 1.0),))
            got = d_psi(heis, heis_lb, x, L1Coefficients(()), sigma)
            expected = heis.members[alpha](x)
            assert np.array_equal(got, expected)

    def test_commuting_flat_case(self, commuting, commuting_lb, rng):
        x = np.zeros(24)
        dirs = np.array([1.0] * 24)
        for _ in range(5):
            tau = L1Coefficients.from_pairs(
                [(int(i), float(rng.uniform(-0.05, 0.05))) for i in range(0, 24, 3)])
            sigma = L1Coefficients.from_pairs(
                [(int(i), float(rng.uniform(-1, 1))) for i in range(0, 24, 5)])
            got = d_psi(commuting, commuting_lb, x, tau, sigma)
            expected = np.zeros(24)
            for i, v in sigma.entries:
                expected[i] += v * dirs[i]
            assert np.abs(got - expected).max() <= 1e-9

    def test_directional_finite_difference(self, heis, heis_lb, rng):
        x = np.array([0.05, -0.05, 0.1])
        h = 1e-5
        for _ in range(10):
            tau = L1Coefficients.from_pairs([(0, float(rng.uniform(-0.1, 0.1))),
                                             (1, float(rng.uniform(-0.1, 0.1)))])
            sigma = L1Coefficients.from_pairs([(0, float(rng.uniform(-1, 1))),
                                               (1, float(rng.uniform(-1, 1)))])
            base = psi_chart(heis, heis_lb, x, tau, tol=TOL)
            bumped = psi_chart(heis, heis_lb, x, tau.combine(sigma, 1.0, h), tol=TOL)
            fd = (bumped - base) / h
            an = d_psi(heis, heis_lb, x, tau, sigma, tol=TOL)
            scale = max(1.0, float(np.abs(an).max()))
            assert np.abs(fd - an).max() <= 1e-4 * scale


def frame_and_solve_d_psi(family, lb, x, tau, sigma, tol=TOL):
    """The chart differential from the prefix variational matrices P_p of
    the word: ``P_n sum_p sigma_p P_p^{-1} X_p(x_p)``, one identity frame
    carried through the word and one solve per sigma letter."""
    tau_map = dict(tau.entries)
    word = FlowWord(tuple((i, tau_map.get(i, 0.0))
                          for i in sorted(set(tau_map) | set(sigma.support))))
    P, acc = np.eye(x.size), np.zeros(x.size)
    legs = word.legs(family.members, x, tol, lb.region, tangents=P)
    for (idx, _), (y, P) in zip(word.letters, legs):
        if sigma.get(idx):
            acc += sigma.get(idx) * np.linalg.solve(P, family.members[idx](y))
    return P @ acc


class TestForwardSweep:
    @pytest.mark.parametrize("name", ["heisenberg", "grushin", "affine-l1"])
    def test_matches_the_frame_and_solve_reference(self, name, rng):
        family = {"heisenberg": heisenberg(), "grushin": grushin(),
                  "affine-l1": affine_l1(8, 8, 0.5, linear_part=True)}[name]
        lb = estimate_lb_bound(family, family.common_domain, 1, 20, force_sampled=True)
        m, d = len(family), family.space.dimension
        for _ in range(10):
            x = rng.uniform(-0.1, 0.1, d)
            tau = L1Coefficients.from_pairs((int(i), float(rng.uniform(-0.3, 0.3)) / lb.bound_k)
                                            for i in rng.choice(m, min(m, 3), replace=False))
            sigma = L1Coefficients.from_pairs((int(i), float(rng.normal()))
                                              for i in rng.choice(m, min(m, 2), replace=False))
            got = d_psi(family, lb, x, tau, sigma)
            ref = frame_and_solve_d_psi(family, lb, x, tau, sigma)
            assert np.abs(got - ref).max() <= 1e-10 * np.abs(ref).max(), (name, tau, sigma)

    def test_heisenberg_closed_form(self, heis, heis_lb, rng):
        # psi(tau) = (a + t0, b + t1, c + t1 (a + t0)) from (a, b, c)
        for _ in range(10):
            a, b, c = x = rng.uniform(-0.1, 0.1, 3)
            t0, t1, s0, s1 = rng.uniform(-0.2, 0.2, 4)
            tau = L1Coefficients(((0, t0), (1, t1)))
            got = d_psi(heis, heis_lb, x, tau, L1Coefficients(((0, s0), (1, s1))))
            expected = np.array([s0, s1, s1 * (a + t0) + t1 * s0])
            assert np.abs(got - expected).max() <= 1e-14


class TestL1Curve:
    def test_singleton_word_single_segment(self, heis, heis_lb):
        res = compose_flows(heis, heis_lb, L1Coefficients(((0, 0.4),)), np.zeros(3))
        curve = extract_l1_curve(res, 5)
        assert len(curve.knot_times) == 2
        assert curve.knot_times[-1] == pytest.approx(0.4)

    def test_heisenberg_knot(self, heis, heis_lb):
        res = compose_flows(heis, heis_lb, L1Coefficients(((0, 1.0), (1, 1.0))),
                            np.zeros(3), unsafe=True)
        knots = extract_l1_curve(res, 4).knot_points
        assert np.allclose(knots[1], [1.0, 0.0, 0.0], atol=1e-8)

    def test_curve_endpoint_matches_result(self, heis, heis_lb):
        res = compose_flows(heis, heis_lb, L1Coefficients(((0, 0.2), (1, -0.2))),
                            np.zeros(3))
        assert np.abs(extract_l1_curve(res, 7).points[-1] - res.endpoint).max() <= 10 * TOL
        curve = extract_l1_curve(res, 3)
        assert np.abs(curve.points[-1] - res.endpoint).max() <= 10 * TOL
        # knots are the cumulative absolute durations
        assert curve.knot_times[1] == pytest.approx(0.2)
        assert curve.knot_times[2] == pytest.approx(0.4)


# compose then inverse: small words with a tail, scaled to a quarter of the
# smallness bound r/k at the start so that the inverse's guard holds too
ROUND_TRIP_FAMILIES = {
    "heisenberg": heisenberg(),
    "affine-l1-linear": affine_l1(6, 4, decay=0.5, linear_part=True),
}


@st.composite
def round_trip_case(draw):
    name = draw(st.sampled_from(sorted(ROUND_TRIP_FAMILIES)))
    fam = ROUND_TRIP_FAMILIES[name]
    m, d = len(fam.members), fam.space.dimension
    values = draw(st.dictionaries(st.integers(0, m - 2),
                                  st.floats(-1.0, 1.0).filter(lambda v: abs(v) > 1e-3),
                                  min_size=1, max_size=m - 1))
    mass = draw(st.floats(0.05, 0.25))
    x = np.array(draw(st.lists(st.floats(-0.2, 0.2), min_size=d, max_size=d)))
    # a last entry small enough for the truncation to drop it, and a tail
    last = draw(st.sampled_from([0.0, 1e-12]))
    tail = draw(st.sampled_from([0.0, 1e-13]))
    path = draw(st.sampled_from(["control", "sequential"]))
    return fam, values, mass, x, last, tail, path


@settings(max_examples=30, deadline=None)
@given(round_trip_case())
def test_compose_then_inverse_returns_within_tail_bound_and_tol(case):
    fam, values, mass, x, last, tail, path = case
    lb = LbRecord(order_s=2, bound_k=fam.declared_lb[2], region=fam.common_domain,
                  method="declared")
    limit = mass * guard(lb, x, 1.0, 0.0).margin
    scale = limit / sum(abs(v) for v in values.values())
    pairs = [(i, v * scale) for i, v in values.items()] + [(len(fam.members) - 1, last)]
    tau = L1Coefficients.from_pairs(pairs, tail)
    fwd = compose_flows(fam, lb, tau, x, tol=TOL, path=path)
    assert fwd.truncation_n == len(tau.entries) - (last != 0.0)
    back = compose_inverse(fam, lb, tau, fwd.endpoint, tol=TOL, path=path)
    gap = fam.space.norm(back.endpoint - x)
    assert gap <= fwd.tail_error_bound + back.tail_error_bound + TOL * (1 + tau.norm1)
