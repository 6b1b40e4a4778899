import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from orbitkit import flow as flow_module
from orbitkit.algebra import bracket_field, enlarge_field
from orbitkit.catalog import affine_l1, commuting_constants, grushin, heisenberg, operator_family
from orbitkit.compose import compose_flows, compose_inverse, d_psi
from orbitkit.errors import (DomainTooSmall, GuardViolated, InvalidArgument, LeftDomain,
                             OutOfDomain, StepUnderflow, WordNotIntegrable)
from orbitkit.fields import (FieldFamily, LbRecord, MonomialTable, VectorField, constant_field,
                             polynomial_field)
from orbitkit.flow import (Control, FlowWord, _raise_first, flow_control, flow_single, guard,
                           run_words)
from orbitkit.orbit import invariance_residual, orbit_sample, slice_grid
from orbitkit.space import ChartSpace, L1Coefficients, ball

TOL = 1e-9


def one_piece(coefficients, t_start, t_end):
    return Control(pieces=((t_start, t_end, coefficients),))


def heisenberg_rectangle_control():
    return Control(pieces=(
        (0.0, 1.0, L1Coefficients(((0, 1.0),))),
        (1.0, 2.0, L1Coefficients(((1, 1.0),))),
        (2.0, 3.0, L1Coefficients(((0, -1.0),))),
        (3.0, 4.0, L1Coefficients(((1, -1.0),))),
    ))


def quadratic_heisenberg(c=0.1, radius=8.0):
    """X1 = e0 + c x1^2 e2 and X2 = e1 + (x0 + c x0^2) e2: a tabled pair that
    is not affine, so its flows run on the stepper, and whose flows are
    cubic in time, so that the whole-segment first trial integrates each
    piece in one step, as it did Heisenberg's quadratic flows."""
    dom = ball([0.0, 0.0, 0.0], radius)
    x1 = polynomial_field(dom, [((1.0, (0, 0, 0)),), (), ((c, (0, 2, 0)),)], label="X1")
    x2 = polynomial_field(dom, [(), ((1.0, (0, 0, 0)),), ((1.0, (1, 0, 0)), (c, (2, 0, 0)))],
                          label="X2")
    return FieldFamily(space=ChartSpace(3), members=(x1, x2), common_domain=dom)


def quadratic_plane():
    """Two quadratic fields on the plane."""
    dom = ball([0.0, 0.0], 8.0)
    swirl = polynomial_field(dom, [((-1.0, (0, 1)), (0.3, (2, 0))),
                                   ((1.0, (1, 0)), (-0.2, (1, 1)))], label="swirl")
    sink = polynomial_field(dom, [((-0.5, (1, 0)), (0.2, (0, 2))),
                                  ((-1.0, (0, 1)), (0.1, (1, 1)))], label="sink")
    return FieldFamily(space=ChartSpace(2), members=(swirl, sink), common_domain=dom)


def quadratic_operator_family():
    return operator_family(3, 3, [(1.0, (1, 0, 0), 0, 1), (-0.5, (0, 2, 0), 2, 0),
                                  (2.0, (0, 0, 0), 1, 2), (0.3, (1, 1, 0), 2, 2)])


def chain_family(dim):
    """X1 = e1, X2 = e2 + sum_k c_k x0^k e_{k+2}, a tabled family of degree dim - 2."""
    dom = ball(np.zeros(dim), 1.5)
    zero = (0,) * dim
    comps2 = [(), ((1.0, zero),)] + [(((-1.0) ** k * (0.5 + 0.2 * k), (k,) + zero[1:]),)
                                     for k in range(1, dim - 1)]
    members = (polynomial_field(dom, [((1.0, zero),)] + [()] * (dim - 1), "X1"),
               polynomial_field(dom, comps2, "X2"))
    return FieldFamily(space=ChartSpace(dim), members=members, common_domain=dom)


class TestGuard:
    def test_margin_arithmetic(self):
        lb = LbRecord(order_s=2, bound_k=1.25, region=ball([0, 0], 4.0))
        cert = guard(lb, np.zeros(2), 1.0, 1.0)
        assert cert.r == pytest.approx(2.0)
        assert cert.c == 1.0
        assert cert.margin == pytest.approx(2.0 / 1.25 - 1.0)
        assert cert.satisfied

    def test_boundary_time_not_satisfied(self):
        # the time bound is strict
        lb = LbRecord(order_s=2, bound_k=1.25, region=ball([0, 0], 4.0))
        cert = guard(lb, np.zeros(2), 1.0, 2.0 / 1.25)
        assert not cert.satisfied
        assert cert.margin == pytest.approx(0.0)

    def test_zero_control_always_satisfied(self):
        lb = LbRecord(order_s=2, bound_k=1.25, region=ball([0, 0], 4.0))
        cert = guard(lb, np.zeros(2), Control(pieces=()).sup_norm, 1e6)
        assert cert.satisfied
        assert cert.margin == np.inf

    def test_satisfied_is_read_from_the_margin(self):
        lb = LbRecord(order_s=2, bound_k=1.25, region=ball([0, 0], 4.0))
        late = replace(guard(lb, np.zeros(2), 1.0, 1.0), margin=-0.5)
        assert not late.satisfied
        with pytest.raises(GuardViolated):
            late.enforce()
        assert late.enforce(unsafe=True).unsafe

    def test_domain_too_small(self):
        lb = LbRecord(order_s=2, bound_k=1.25, region=ball([0, 0], 1.0))
        with pytest.raises(DomainTooSmall):
            guard(lb, np.array([1.0, 0.0]), 0.0, 1.0)

    def test_flow_control_enforces_the_guard_of_its_control(self, heis, heis_lb):
        # the certificate is guard(lb, x0, u.sup_norm, |T0|), backwards too
        u = Control(pieces=((0.0, 0.1, L1Coefficients(((0, 0.5),))),
                            (0.1, 0.3, L1Coefficients(((0, -0.25), (1, 0.5))))))
        x0 = np.array([0.1, -0.2, 0.3])
        for T0 in (0.3, -0.3):
            cert = flow_control(heis, u, x0, 0.3 if T0 < 0 else 0.0, T0, lb=heis_lb).certificate
            assert cert == guard(heis_lb, x0, 0.75, 0.3)


class TestControl:
    @pytest.mark.parametrize("pieces", [
        ((0.0, 1.0), (0.5, 2.0)),  # overlap
        ((0.0, 0.0),),  # zero length
        ((1.0, 0.5),),  # negative length
    ])
    def test_bad_pieces_are_invalid_arguments(self, pieces):
        coeffs = L1Coefficients(((0, 1.0),))
        with pytest.raises(InvalidArgument):
            Control(pieces=tuple((a, b, coeffs) for a, b in pieces))


class TestFlowControl:
    def test_constant_straight_line(self):
        fam = commuting_constants(2, 2)
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 1.0)
        res = flow_control(fam, u, np.zeros(2), 0.0, 1.0, tangents=np.eye(2), tol=TOL)
        assert np.allclose(res.endpoint, [1.0, 0.0], atol=1e-12)
        assert np.allclose(res.tangents, np.eye(2), atol=1e-12)

    def test_exponential_growth_with_variational(self):
        space = ChartSpace(1)
        dom = ball([0.0], 10.0)
        X = polynomial_field(dom, [((1.0, (1,)),)], label="lin")
        fam = FieldFamily(space=space, members=(X,), common_domain=dom)
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 1.0)
        res = flow_control(fam, u, np.array([1.0]), 0.0, 1.0, tangents=np.eye(1), tol=TOL)
        assert res.endpoint[0] == pytest.approx(np.e, abs=1e-8)
        assert res.tangents[0, 0] == pytest.approx(np.e, abs=1e-8)

    def test_heisenberg_rectangle(self, heis):
        res = flow_control(heis, heisenberg_rectangle_control(), np.zeros(3), 0.0, 4.0,
                           tol=TOL)
        # closed form: the first two legs shear z up by the commutator area,
        # the return legs at x=0 leave z alone
        assert np.allclose(res.endpoint, [0.0, 0.0, 1.0], atol=1e-6)

    def test_guard_enforced(self, heis, heis_lb):
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 100.0)
        with pytest.raises(GuardViolated):
            flow_control(heis, u, np.zeros(3), 0.0, 100.0, lb=heis_lb)
        res = flow_control(heis, u, np.zeros(3), 0.0, 0.1, lb=heis_lb, unsafe=True)
        assert res.certificate.unsafe

    @pytest.mark.parametrize("tol", [-1.0, 0.0, float("nan"), float("inf")])
    def test_tolerance_must_be_positive_and_finite(self, heis, tol):
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 0.1)
        with pytest.raises(InvalidArgument):
            flow_control(heis, u, np.zeros(3), 0.0, 0.1, tol=tol)
        with pytest.raises(InvalidArgument):
            flow_single(heis.members[0], np.zeros(3), 0.1, tol=tol)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_times_must_be_finite(self, heis, bad):
        # a NaN t0 used to clip nothing and fly the whole piece
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 1.0)
        for t0, T0 in ((bad, 0.1), (0.0, bad)):
            with pytest.raises(InvalidArgument):
                flow_control(heis, u, np.zeros(3), t0, T0)
        with pytest.raises(InvalidArgument):
            flow_single(heis.members[0], np.zeros(3), bad)

    def test_left_domain(self):
        fam = commuting_constants(2, 2, radius=1.0)
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 5.0)
        with pytest.raises(LeftDomain):
            flow_control(fam, u, np.zeros(2), 0.0, 5.0)

    def test_a_start_point_of_another_dimension_is_an_invalid_argument(self, heis):
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 0.1)
        with pytest.raises(InvalidArgument, match="start point dimension"):
            flow_control(heis, u, np.zeros(2), 0.0, 0.1)

    @pytest.mark.parametrize("shape", [(2,), (2, 3), (3, 3, 1)])
    def test_tangents_of_another_shape_are_an_invalid_argument(self, heis, shape):
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 0.1)
        with pytest.raises(InvalidArgument, match="tangents"):
            flow_control(heis, u, np.zeros(3), 0.0, 0.1, tangents=np.zeros(shape))
        with pytest.raises(InvalidArgument, match="tangents"):
            flow_single(heis.members[0], np.zeros(3), 0.1, tangents=np.zeros(shape))

    def test_a_start_point_outside_the_region_is_refused(self, heis):
        x = np.array([9.0, 0.0, 0.0])  # heis lives on the radius-8 ball
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 0.1)
        for run in (lambda: flow_control(heis, u, x, 0.0, 0.1),
                    lambda: flow_single(heis.members[0], x, 0.1)):
            with pytest.raises(LeftDomain, match="start point outside the working region") as info:
                run()
            assert np.array_equal(info.value.last_point, x)

    def test_gap_means_zero_control(self):
        fam = commuting_constants(2, 2)
        u = Control(pieces=((0.0, 1.0, L1Coefficients(((0, 1.0),))),
                            (2.0, 3.0, L1Coefficients(((1, 1.0),)))))
        res = flow_control(fam, u, np.zeros(2), 0.0, 3.0, tol=TOL)
        assert np.allclose(res.endpoint, [1.0, 1.0], atol=1e-12)

    def test_backward_integration_inverts_forward(self, heis):
        u = Control(pieces=((0.0, 0.15, L1Coefficients(((0, 1.0),))),
                            (0.15, 0.3, L1Coefficients(((1, 1.0),)))))
        fwd = flow_control(heis, u, np.zeros(3), 0.0, 0.3, tol=TOL)
        back = flow_control(heis, u, fwd.endpoint, 0.3, -0.3, tol=TOL)
        assert np.abs(back.endpoint).max() <= 10 * TOL

    def test_control_norms(self):
        u = Control(pieces=((0.0, 1.0, L1Coefficients(((0, 1.0),))),
                            (1.0, 2.0, L1Coefficients(((0, 0.25), (1, -0.5))))))
        assert u.sup_norm == 1.0
        assert u.l1_norm == pytest.approx(1.75)


class TestFlowSingle:
    def test_zero_time(self, heis):
        res = flow_single(heis.members[0], np.array([0.3, 0.1, 0.2]), 0.0,
                          tangents=np.eye(3))
        assert np.array_equal(res.endpoint, [0.3, 0.1, 0.2])
        assert np.array_equal(res.tangents, np.eye(3))

    def test_translation(self):
        fam = commuting_constants(2, 2)
        res = flow_single(fam.members[0], np.array([1.0, 1.0]), 2.5, tol=TOL)
        assert np.allclose(res.endpoint, [3.5, 1.0], atol=1e-12)

    def test_decay_closed_form(self):
        dom = ball([0.0], 10.0)
        X = polynomial_field(dom, [((-1.0, (1,)),)], label="decay")
        res = flow_single(X, np.array([4.0]), np.log(2.0), tol=TOL)
        assert res.endpoint[0] == pytest.approx(2.0, abs=1e-8)

    def test_constant_field_lands_exactly(self):
        # each stage moves by exactly h*C_i*c, so the step ends at x + t*c
        # although the float sum of the B5 row is 0.9999999999999998
        X = constant_field(ball([0.0, 0.0, 0.0], 8.0), [0.3, -1.0, 0.1])
        x = np.array([0.0, 0.7, -0.2])
        for t in (0.25, 1.0, -1.3, 3.0):
            res = flow_single(X, x, t, tol=TOL)
            assert res.steps_taken == 1
            assert np.array_equal(res.endpoint, x + t * np.array([0.3, -1.0, 0.1]))

    def test_blowup_raises(self):
        from orbitkit.errors import LeftDomain, StepUnderflow
        # x' = x^2 from 1 blows up at t=1; the stepper must fail loudly,
        # either by leaving the region or by step underflow at the pole
        dom = ball([0.0], 1e6)
        X = polynomial_field(dom, [((1.0, (2,)),)], label="sq")
        with pytest.raises((StepUnderflow, LeftDomain)):
            flow_single(X, np.array([1.0]), 1.5, tol=1e-9)


def _law_catalog():
    heis_f = heisenberg()
    grush_f = grushin()
    rot_dom = ball([0, 0], 8.0)
    rot = polynomial_field(rot_dom, [((-1.0, (0, 1)),), ((1.0, (1, 0)),)], label="rot")
    decay = polynomial_field(ball([0.0, 0.0], 8.0),
                             [((-1.0, (1, 0)),), ((-0.5, (0, 1)),)], label="decay2")
    return [heis_f.members[0], heis_f.members[1], grush_f.members[1], rot, decay]


class TestFlowLaws:
    def test_group_and_inverse_laws(self, rng):
        fields = _law_catalog()
        for _ in range(50):
            X = fields[int(rng.integers(0, len(fields)))]
            dim = X.domain.center.size
            x = rng.uniform(-0.5, 0.5, dim)
            s, t = rng.uniform(-0.4, 0.4, 2)
            a = flow_single(X, flow_single(X, x, s, tol=TOL).endpoint, t, tol=TOL).endpoint
            b = flow_single(X, x, s + t, tol=TOL).endpoint
            assert np.abs(a - b).max() <= 10 * TOL * (1 + np.abs(b).max())
            back = flow_single(X, flow_single(X, x, t, tol=TOL).endpoint, -t, tol=TOL).endpoint
            assert np.abs(back - x).max() <= 10 * TOL * (1 + np.abs(x).max())

    def test_variational_matches_finite_differences(self, rng):
        fields = _law_catalog()
        for _ in range(20):
            X = fields[int(rng.integers(0, len(fields)))]
            dim = X.domain.center.size
            x = rng.uniform(-0.5, 0.5, dim)
            t = float(rng.uniform(0.1, 0.6))
            V = flow_single(X, x, t, tol=TOL, tangents=np.eye(dim)).tangents
            h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
            for j in range(dim):
                e = np.zeros(dim)
                e[j] = h
                plus = flow_single(X, x + e, t, tol=TOL).endpoint
                minus = flow_single(X, x - e, t, tol=TOL).endpoint
                col = (plus - minus) / (2 * h)
                scale = max(1.0, float(np.abs(V[:, j]).max()))
                assert np.abs(col - V[:, j]).max() <= 1e-4 * scale

    def test_rescaling(self, rng):
        # flowing the scaled-down field for proportionally longer time
        # reproduces the original flow
        fields = _law_catalog()
        for _ in range(10):
            X = fields[int(rng.integers(0, len(fields)))]
            dim = X.domain.center.size
            nu = float(rng.uniform(0.5, 3.0))
            scaled = polynomial_like_scale(X, 1.0 / nu)
            x = rng.uniform(-0.5, 0.5, dim)
            t = float(rng.uniform(0.05, 0.4))
            a = flow_single(scaled, x, nu * t, tol=TOL).endpoint
            b = flow_single(X, x, t, tol=TOL).endpoint
            assert np.abs(a - b).max() <= 10 * TOL * (1 + np.abs(b).max())

    def test_guard_honesty(self, rng, heis, heis_lb):
        # whenever the certificate is satisfied, integration stays in region
        for _ in range(15):
            coeff = L1Coefficients.from_pairs([(0, float(rng.uniform(-1, 1))),
                                               (1, float(rng.uniform(-1, 1)))])
            if not coeff.entries:
                continue
            u = one_piece(coeff, 0.0, 10.0)
            x0 = rng.uniform(-0.5, 0.5, 3)
            cert = guard(heis_lb, x0, u.sup_norm, 10.0)
            T0 = float(rng.uniform(0.0, 0.9)) * min(cert.r / (cert.k * max(cert.c, 1e-12)), 10.0)
            cert2 = guard(heis_lb, x0, u.sup_norm, T0)
            assert cert2.satisfied
            flow_control(heis, u, x0, 0.0, T0, lb=heis_lb, tol=1e-7)  # must not raise


# Dormand-Prince 5(4) as scalar loops over the tableau: the reference the
# stacked-stage stepper must reproduce up to summation order.
_REF_A = ((), (1 / 5,), (3 / 40, 9 / 40), (44 / 45, -56 / 15, 32 / 9),
          (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
          (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
          (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
_REF_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def _reference_flow(X, x0, t, tol):
    """Flow of X for signed time t with its variational matrix, integrating
    the sign-flipped field forward; returns (endpoint, matrix, steps)."""
    d = x0.size
    sign = 1.0 if t > 0 else -1.0

    def rhs(y):
        V = y[d:].reshape(d, d)
        return np.concatenate([sign * X(y[:d]), (sign * X.jacobian(y[:d]) @ V).ravel()])

    y = np.concatenate([x0, np.eye(d).ravel()])
    s, end, steps = 0.0, abs(t), 0
    h = end  # the first trial step is the whole segment
    k1 = rhs(y)
    while end - s > 1e-15 * max(1.0, end):
        h = min(h, end - s)
        ks = [k1]
        for row in _REF_A[1:]:
            ks.append(rhs(y + sum(h * a * k for a, k in zip(row, ks) if a)))
        scale = tol * h * (1.0 + np.abs(y).max())
        err = np.abs(sum(h * e * k for e, k in zip(_REF_E, ks) if e)).max()
        if err <= scale:
            y = y + sum(h * b * k for b, k in zip(_REF_A[6], ks) if b)
            s, k1, steps = s + h, ks[6], steps + 1
            h *= 5.0 if err == 0.0 else min(5.0, 0.9 * (scale / err) ** 0.2)
        else:
            h *= max(0.2, 0.9 * (scale / err) ** 0.2)
    return y[:d], y[d:].reshape(d, d), steps


def _stepper_catalog():
    """Tabled fields that are not affine, which flow on the stepper."""
    riccati = polynomial_field(ball([0.0], 10.0), [((-1.0, (1,)), (-0.5, (2,)))], label="riccati")
    fields = [*quadratic_heisenberg(c=0.5).members, riccati, *quadratic_plane().members,
              *quadratic_operator_family().members, *chain_family(5).members]
    return [X for X in fields if X.table.degree > 1]


class TestStepperReference:
    def test_matches_scalar_tableau_loops(self, rng):
        fields = _stepper_catalog()
        for _ in range(20):
            X = fields[int(rng.integers(0, len(fields)))]
            x = rng.uniform(-0.5, 0.5, X.domain.center.size)
            t = float(rng.uniform(-0.8, 0.8))
            tol = float(10.0 ** rng.uniform(-12, -6))
            res = flow_single(X, x, t, tol=tol, tangents=np.eye(x.size))
            ref_x, ref_M, ref_steps = _reference_flow(X, x, t, tol)
            assert res.steps_taken == ref_steps
            assert np.abs(res.endpoint - ref_x).max() <= 1e-13 * (1 + np.abs(ref_x).max())
            assert np.abs(res.tangents - ref_M).max() <= 1e-13 * (1 + np.abs(ref_M).max())

    @pytest.mark.parametrize("t", [0.05, 0.3, 1.0, 3.0])
    def test_a_quadratic_flow_takes_one_step(self, heis, t):
        # X2 = (0, 1, x) moves (x, y, z) to (x, y + t, z + x t), which the
        # whole-segment first trial integrates exactly; without its table
        # the field flows on the stepper
        res = flow_single(replace(heis.members[1], table=None), np.array([0.1, 0.2, 0.3]), t,
                          tol=TOL)
        assert res.steps_taken == 1
        assert np.abs(res.endpoint - [0.1, 0.2 + t, 0.3 + 0.1 * t]).max() <= 1e-15 * (1 + t)

    @pytest.mark.parametrize("failure", [LeftDomain, WordNotIntegrable, OutOfDomain, None])
    def test_a_failing_trial_stage_rejects_the_step(self, failure):
        # x' = -x from 1 stays in (0, 1]; a long trial step probes far below
        # 0, where this field raises the failure or, for None, overflows in exp
        probes = []

        def decay(x):
            if x[0] < -0.1:
                probes.append(x[0])
                if failure is not None:
                    raise failure("probe far below the trajectory")
            return -x + (0.0 if failure else np.exp(-1e4 * (x + 0.03)))

        X = VectorField(domain=ball([0.0], 8.0), eval_fn=decay, label="decay")
        tol = 1e-3
        res = flow_single(X, np.array([1.0]), 10.0, tol=tol)
        assert probes
        assert abs(res.endpoint[0] - np.exp(-10.0)) <= tol

    def test_a_bracket_field_probed_off_its_domain(self):
        # [X, Y] = -x is defined on [-0.1, 1.1] only; the first trial step
        # from 1 over t = 10 probes x = -1, where it raises OutOfDomain
        dom = ball([0.5], 0.6)
        X = polynomial_field(dom, [[(1.0, (0,))]], label="X")
        Y = polynomial_field(dom, [[(-0.5, (2,))]], label="Y")
        res = flow_single(bracket_field(X, Y), np.array([1.0]), 10.0, tol=TOL)
        assert abs(res.endpoint[0] - np.exp(-10.0)) <= 1e-6

    def test_an_exit_and_return_inside_one_step_leaves_the_domain(self, heis):
        # u = X1 + X2 from (-4, -4, -5) runs along x = y = t - 4 with
        # z = (t - 4)^2 / 2 - 13: it leaves the radius-8 domain at
        # t = 4 - sqrt(14) and is back inside at the end, t = 8, where the
        # one whole-segment step lands exactly on (4, 4, -5)
        u = one_piece(L1Coefficients(((0, 1.0), (1, 1.0))), 0.0, 8.0)
        with pytest.raises(LeftDomain) as info:
            flow_control(heis, u, np.array([-4.0, -4.0, -5.0]), 0.0, 8.0, tol=TOL)
        assert 4 - np.sqrt(14.0) < info.value.last_time < 1.0
        assert np.linalg.norm(info.value.last_point) > 8.0

    def test_a_stage_error_outlasting_the_step_is_raised(self):
        # every stage away from the start raises, so the step underflows and
        # the caller sees the stage's LeftDomain, not StepUnderflow
        def nowhere(x):
            if x[0] != 0.0:
                raise LeftDomain("no trial step survives")
            return np.ones(1)

        X = VectorField(domain=ball([0.0], 8.0), eval_fn=nowhere, label="nowhere")
        with pytest.raises(LeftDomain, match="no trial step survives"):
            flow_single(X, np.zeros(1), 1.0, tol=TOL)


@pytest.fixture
def stepper_counts(monkeypatch):
    """Accepted steps and right-hand-side evaluations of every flow run
    while the test holds it, nested flows included."""
    counts = {"steps": 0, "rhs": 0}
    run, call = flow_module._flow, flow_module._Rhs.__call__

    def counted_flow(*args, **kwargs):
        res = run(*args, **kwargs)
        counts["steps"] += res.steps_taken
        return res

    def counted_call(self, y):
        counts["rhs"] += 1
        return call(self, y)

    monkeypatch.setattr(flow_module, "_flow", counted_flow)
    monkeypatch.setattr(flow_module._Rhs, "__call__", counted_call)
    return counts


class TestStepBudget:
    """Step and evaluation counts of fixed flows stay at most those of the
    whole-segment first trial step, one step of seven evaluations per
    segment of these cubic flows of the quadratic Heisenberg pair, which
    flow on the stepper.  The counts are exact, so a regression in the
    start rule fails here without a timing run."""

    STACK = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.2], [1.0, 1.0, -1.0], [-0.3, 0.4, 0.1]])
    PAIR = quadratic_heisenberg()

    def test_switching_rectangle(self, heis_lb, stepper_counts):
        res = flow_control(self.PAIR, heisenberg_rectangle_control(), np.zeros(3), 0.0, 4.0,
                           tangents=np.eye(3), lb=heis_lb, unsafe=True)
        assert np.allclose(res.endpoint, [0.0, 0.0, 1.0], atol=1e-12)
        assert stepper_counts["steps"] <= 4 and stepper_counts["rhs"] <= 28

    @pytest.mark.parametrize("path", ["control", "sequential"])
    def test_twelve_letter_composition(self, heis_lb, stepper_counts, path):
        # the quadratic pair six times over: twelve members, one letter each
        pair = self.PAIR
        fam = FieldFamily(space=pair.space, members=pair.members * 6,
                          common_domain=pair.common_domain)
        tau = L1Coefficients(tuple((i, (-1) ** i * 0.015 * (1 + i % 3)) for i in range(12)))
        res = compose_flows(fam, heis_lb, tau, np.array([0.2, -0.1, 0.3]), tol=TOL,
                            truncation_n=12, path=path)
        assert len(res.word) == 12
        assert stepper_counts["steps"] <= 12 and stepper_counts["rhs"] <= 84

    def test_enlarged_field_over_a_stack(self, heis, heis_lb, stepper_counts):
        # a tabled enlarged field is its pushforward table: no word runs
        Y = enlarge_field(heis, FlowWord(((0, 0.3), (1, -0.2), (0, 0.25))), 1, 1.0, heis_lb)
        stepper_counts.update(steps=0, rhs=0)  # count the evaluation, not the screening
        values = Y.eval_many(self.STACK)
        assert np.allclose(values, [[0.0, 1.0, x - 0.55] for x in self.STACK[:, 0]], atol=1e-12)
        assert stepper_counts["steps"] == 0 and stepper_counts["rhs"] == 0

    def test_nested_enlarged_field_over_a_stack(self, heis, heis_lb, stepper_counts):
        Y = enlarge_field(_stripped(heis), FlowWord(((0, 0.3), (1, -0.2), (0, 0.25))), 1, 1.0,
                          heis_lb)
        stepper_counts.update(steps=0, rhs=0)  # count the evaluation, not the screening
        values = Y.eval_many(self.STACK)
        # X2 pushed through the word is (0, 1, x - 0.55): two word runs of
        # three letters
        assert np.allclose(values, [[0.0, 1.0, x - 0.55] for x in self.STACK[:, 0]], atol=1e-12)
        assert stepper_counts["steps"] <= 6 and stepper_counts["rhs"] <= 42

    def test_stacked_independent_sample(self, heis_lb, stepper_counts):
        # every letter position of the twelve words is one stacked segment,
        # integrated exactly in one step of seven evaluations
        samp = orbit_sample(self.PAIR, heis_lb, np.array([0.2, -0.1, 0.3]), budget=12,
                            max_word_len=5, rng_seed=3, mode="independent", tol=TOL)
        assert len(samp.cloud) == 1 + 12 * 5
        assert stepper_counts["steps"] == 5 and stepper_counts["rhs"] == 35

    def test_explore_sample_takes_one_step_per_round(self, heis_lb, stepper_counts):
        # two rounds of sixteen targets, each round one stacked letter; one
        # run per target took 32 steps and 224 evaluations
        samp = orbit_sample(self.PAIR, heis_lb, np.array([0.2, -0.1, 0.3]), budget=32, max_word_len=5,
                            rng_seed=3, mode="explore", tol=TOL)
        assert len(samp.cloud) == 1 + 32
        assert stepper_counts["steps"] == 2 and stepper_counts["rhs"] == 14

    def test_an_exit_reruns_only_the_row_that_left(self, stepper_counts, monkeypatch):
        # the explore cloud of TestStackedSample (lb region radius 1), on
        # the quadratic pair, three of whose words leave the region in three
        # rounds: the row that left runs alone and the others are stacked
        # again.  On Heisenberg, rerunning every row of those rounds alone
        # took 43 steps, 371 evaluations and 48 single-row runs.
        fam, lb = self.PAIR, LbRecord(2, 0.5, ball([0, 0, 0], 1.0), "declared")
        x = np.array([0.2, -0.1, 0.1])
        singles, single = [], flow_module.flow_single

        def counted_single(*args, **kwargs):
            singles.append(1)
            return single(*args, **kwargs)

        monkeypatch.setattr(flow_module, "flow_single", counted_single)
        got = orbit_sample(fam, lb, x, 80, 8, 0, tol=TOL, exploration_radius=1.0).cloud
        assert stepper_counts["steps"] == 5 and stepper_counts["rhs"] == 133 and len(singles) == 7

        def fail(*args, **kwargs):
            raise flow_module.StepUnderflow("every row alone")

        monkeypatch.setattr(flow_module, "_stacked_letter", fail)
        ref = orbit_sample(fam, lb, x, 80, 8, 0, tol=TOL, exploration_radius=1.0).cloud
        assert [(w, f) for _, w, f in got] == [(w, f) for _, w, f in ref]
        assert sum(f for _, _, f in got) == 3
        for (p, _, _), (q, _, _) in zip(got, ref):
            assert np.abs(p - q).max() <= 10 * TOL * (1 + np.abs(q).max())

    def test_slice_takes_one_step_per_axis_letter(self, heis_lb, stepper_counts):
        res = slice_grid(self.PAIR, heis_lb, np.array([0.2, -0.1, 0.3]), rho=0.3, grid_per_axis=4,
                         axes=[1, 0], tol=TOL)
        assert res.points.shape == (16, 3)
        assert stepper_counts["steps"] == 2 and stepper_counts["rhs"] == 14


class TestStackedRuns:
    def test_rows_match_separate_one_row_runs(self, rng):
        # the last two are differenced: one row in scalars, a stack through
        # finite_difference_jvp
        fields = _law_catalog()
        fields += [replace(X, table=None) for X in fields[-2:]]
        for X in fields:
            dim = X.domain.center.size
            for shape in (None, (dim,), (dim, 2)):  # nothing, a vector, two columns
                rows = int(rng.integers(2, 6))
                P = rng.uniform(-0.5, 0.5, (rows, dim))
                V = None if shape is None else rng.uniform(-0.5, 0.5, (rows,) + shape)
                t = float(rng.uniform(-0.8, 0.8))
                got = flow_single(X, P, t, tol=TOL, tangents=V)
                assert got.endpoint.shape == P.shape
                for i in range(rows):
                    one = flow_single(X, P[i], t, tol=TOL, tangents=None if V is None else V[i])
                    row, ref = got.endpoint[i], one.endpoint
                    if V is not None:
                        assert got.tangents[i].shape == V[i].shape
                        row = np.concatenate([row, got.tangents[i].ravel()])
                        ref = np.concatenate([ref, one.tangents.ravel()])
                    assert np.abs(row - ref).max() <= TOL * (1 + np.abs(ref).max())
                # rows share the step sequence of the hardest one
                assert got.steps_taken >= 1

    def test_tangents_are_the_product_of_letter_variationals(self, heis, rng):
        for _ in range(5):
            word = FlowWord(tuple((int(rng.integers(0, 2)), float(rng.uniform(-0.5, 0.5)))
                                  for _ in range(3)))
            P = rng.uniform(-0.5, 0.5, (4, 3))
            V = rng.normal(size=(4, 3))
            paths, stops, W = run_words(heis, [word] * len(P), P, TOL, tangents=V)
            assert stops == [None] * len(P)
            ends = [path[-1] for path in paths]
            for x, v, end, w in zip(P, V, ends, W):
                ref_end, M = x, np.eye(3)
                for idx, t in word.letters:
                    res = flow_single(heis.members[idx], ref_end, t, tol=TOL, tangents=np.eye(3))
                    ref_end, M = res.endpoint, res.tangents @ M
                assert np.abs(end - ref_end).max() <= 10 * TOL * (1 + np.abs(ref_end).max())
                assert np.abs(w - M @ v).max() <= 10 * TOL * (1 + np.abs(w).max())

    def test_untabled_field_carries_an_identity_block(self, rng):
        # no table: each column moves by one central difference, against a
        # variational flow on finite_difference_jacobian
        for X in _law_catalog():
            X = replace(X, table=None)
            dim = X.domain.center.size
            P = rng.uniform(-0.5, 0.5, (3, dim))
            t = float(rng.uniform(-0.8, 0.8))
            stacked = flow_single(X, P, t, tol=TOL, tangents=np.repeat(np.eye(dim)[None], 3, axis=0))
            for x, end, M in zip(P, stacked.endpoint, stacked.tangents):
                ref_x, ref_M, _ = _reference_flow(X, x, t, TOL)
                one = flow_single(X, x, t, tol=TOL, tangents=np.eye(dim))
                for got_x, got_M in ((one.endpoint, one.tangents), (end, M)):
                    assert np.abs(got_x - ref_x).max() <= 10 * TOL * (1 + np.abs(ref_x).max())
                    assert np.abs(got_M - ref_M).max() <= 1e-6 * (1 + np.abs(ref_M).max())

    def test_a_row_leaving_the_region_raises(self):
        fam = commuting_constants(2, 2)
        P = np.array([[0.0, 0.0], [7.5, 0.0]])
        with pytest.raises(LeftDomain) as info:
            _raise_first(run_words(fam, [FlowWord(((0, 1.0),))] * 2, P, TOL, ball([0, 0], 8.0)))
        assert info.value.last_point[0] > 8.0

    def test_one_word_from_every_row_runs_on_after_a_row_leaves(self):
        # every row runs one word, a letter per stacked run, until row 1
        # leaves at the second letter: from there the exit rule stops row 1
        # at its own exit, and the other rows end the word
        fam = commuting_constants(2, 2)
        P = np.array([[0.0, 0.0], [6.5, 0.0], [0.0, 1.0]])
        word = FlowWord(((1, 0.5), (0, 2.0), (1, -0.5)))
        V = np.repeat(np.eye(2)[None], 3, axis=0)
        paths, stops, W = run_words(fam, [word] * 3, P, TOL, ball([0, 0], 8.0), tangents=V)
        assert stops[0] is None and stops[2] is None and isinstance(stops[1], LeftDomain)
        assert np.allclose(paths[1], [[6.5, 0.0], [6.5, 0.5]], rtol=0.0, atol=1e-12)
        for i in (0, 2):
            assert np.allclose(paths[i], _chained(fam, word, P[i]), rtol=0.0, atol=1e-12)
        assert np.allclose(W, V, rtol=0.0, atol=1e-12)


def _chained(family, word, x, tol=TOL):
    """The start point and the endpoint after each letter of ``word``, one
    flow_single call per letter."""
    path = [x]
    for idx, t in word.letters:
        path.append(flow_single(family.members[idx], path[-1], t, tol=tol).endpoint)
    return path


class TestStackedWords:
    def test_a_row_of_a_stack_takes_the_steps_of_flow_single(self, rng, stepper_counts):
        # a row beside a resting row (a letter of time 0): each flows t X
        # over unit time with its error scale times |t|, which is the flow of
        # X over time t step for step, and the resting row does not limit
        # the step
        families = [quadratic_heisenberg(c=0.5), quadratic_plane()]
        for _ in range(60):
            fam = families[int(rng.integers(0, len(families)))]
            a = int(rng.integers(0, len(fam)))
            dim = fam.space.dimension
            x = rng.uniform(-0.2, 0.2, dim)
            t = float(rng.uniform(-0.8, 0.8))
            tol = float(10.0 ** rng.uniform(-12, -6))
            one = flow_single(fam.members[a], x, t, tol=tol)
            stepper_counts.update(steps=0)
            (path, rest), stops, _ = run_words(fam, [FlowWord(((a, t),)), FlowWord(((a, 0.0),))],
                                               x, tol)
            assert stops == [None, None]
            assert stepper_counts["steps"] == one.steps_taken
            assert np.array_equal(rest, [x, x])
            assert np.abs(path[-1] - one.endpoint).max() <= 1e-13 * (1 + np.abs(x).max())

    def test_words_of_several_lengths_and_members(self, rng):
        fam = affine_l1(5, 4, 0.8, linear_part=True)
        x = rng.uniform(-0.2, 0.2, 5)
        words = [FlowWord(tuple((int(rng.integers(0, 4)), float(rng.uniform(-0.3, 0.3)))
                                for _ in range(n))) for n in (0, 3, 1, 4, 2, 4)]
        paths, stops, _ = run_words(fam, words, x, TOL)
        assert stops == [None] * len(words)
        for word, path in zip(words, paths):
            assert path.shape == (1 + len(word.letters), 5)
            ref = _chained(fam, word, x)
            assert np.abs(path - ref).max() <= 10 * TOL

    def test_untabled_words_run_row_by_row(self, rng, monkeypatch):
        # no family table: every letter of every word is its own one-point
        # flow_single run, as the chained reference runs the word
        base = affine_l1(4, 3, 0.8, linear_part=True)
        fam = FieldFamily(space=base.space,
                          members=tuple(replace(m, table=None) for m in base.members),
                          common_domain=base.common_domain)
        assert fam.table is None
        starts = []
        run = flow_module.flow_single

        def one_run(X, x0, t, **kwargs):
            starts.append(np.shape(x0))
            return run(X, x0, t, **kwargs)

        monkeypatch.setattr(flow_module, "flow_single", one_run)
        words = [FlowWord(((0, 0.2), (1, 0.1))), FlowWord(((2, -0.1),)), FlowWord(((0, 0.05),))]
        x = rng.uniform(-0.2, 0.2, 4)
        paths, stops, _ = run_words(fam, words, x, TOL)
        assert stops == [None] * 3 and starts == [(4,)] * 4
        for word, path in zip(words, paths):
            assert np.array_equal(path, _chained(fam, word, x))
            assert np.abs(path[-1] - word.apply(base, x, TOL)).max() <= 10 * TOL

    def test_a_word_stops_at_its_own_exit(self):
        # the stacked letter leaves the region on row 1; each row runs again
        # alone, so only word 1 stops, at its last valid point
        fam = commuting_constants(2, 2)
        region = ball([0, 0], 1.0)
        words = [FlowWord(((0, 0.5), (1, 0.2))), FlowWord(((0, 0.3), (0, 0.9))),
                 FlowWord(((1, -0.4), (0, 0.1)))]
        paths, stops, _ = run_words(fam, words, np.zeros(2), TOL, region)
        assert stops[0] is None and stops[2] is None
        assert isinstance(stops[1], LeftDomain)
        assert paths[1].shape == (2, 2) and np.allclose(paths[1][-1], [0.3, 0.0])
        assert np.allclose(paths[0][-1], [0.5, 0.2]) and np.allclose(paths[2][-1], [0.1, -0.4])


class TestStackedTangents:
    @pytest.mark.parametrize("family", [heisenberg(), affine_l1(6, 5, 0.8, linear_part=True),
                                        grushin()], ids=["heisenberg", "affine-l1", "grushin"])
    def test_a_mixed_letter_stack_carries_tangents(self, family, rng, monkeypatch):
        # rows with different letters of a tabled family run as one merged
        # table segment per position, their tangent columns moved by the
        # merged derivative table weighted per row
        d, m = family.space.dimension, len(family)
        stacked, run = [], flow_module._stacked_letter

        def counted(*args, **kwargs):
            stacked.append(1)
            return run(*args, **kwargs)

        monkeypatch.setattr(flow_module, "_stacked_letter", counted)
        words = [FlowWord(tuple((int(rng.integers(0, m)), float(rng.uniform(-0.3, 0.3)))
                                for _ in range(n))) for n in (3, 2, 3, 0, 1)]
        starts = rng.uniform(-0.2, 0.2, (len(words), d))
        V = rng.normal(size=(len(words), d, 2))
        paths, stops, W = run_words(family, words, starts, TOL, tangents=V)
        assert stops == [None] * len(words) and stacked and W.shape == V.shape
        for word, start, v, path, w in zip(words, starts, V, paths, W):
            end, M = start, np.eye(d)
            for idx, t in word.letters:
                res = flow_single(family.members[idx], end, t, tol=TOL, tangents=np.eye(d))
                end, M = res.endpoint, res.tangents @ M
            assert np.abs(path[-1] - end).max() <= 10 * TOL * (1 + np.abs(end).max())
            assert np.abs(w - M @ v).max() <= 10 * TOL * (1 + np.abs(w).max())

    def test_one_start_point_gives_every_word_its_tangents(self, heis):
        words = [FlowWord(((0, 0.3), (1, -0.2))), FlowWord(((1, 0.1),)), FlowWord(())]
        x = np.array([0.2, -0.1, 0.3])
        paths, stops, W = run_words(heis, words, x, TOL, tangents=np.eye(3))
        assert stops == [None] * 3 and W.shape == (3, 3, 3)
        for word, path, M in zip(words, paths, W):
            end, ref = word.apply_with_variational(heis, x, TOL)
            assert np.abs(path[-1] - end).max() <= 10 * TOL
            assert np.abs(M - ref).max() <= 10 * TOL
        assert np.array_equal(W[2], np.eye(3))

    @pytest.mark.parametrize("carried", [False, True], ids=["plain", "tangents"])
    def test_a_stacked_letter_that_underflows_runs_each_row_alone(self, carried, monkeypatch):
        # x0' = x0^2 from x0 = 1 blows up at t = 1, inside a region too wide
        # to leave: the stacked letter underflows, and then so does word 0
        # alone, while word 1 runs alone to its end
        dom = ball([0, 0], 1e30)
        fam = FieldFamily(space=ChartSpace(2), common_domain=dom,
                          members=(polynomial_field(dom, [((1.0, (2, 0)),), ()], label="X0"),
                                   constant_field(dom, [0.0, 1.0], label="X1")))
        raised, run = [], flow_module._stacked_letter

        def recorded(*args, **kwargs):
            try:
                return run(*args, **kwargs)
            except Exception as exc:
                raised.append(type(exc))
                raise

        monkeypatch.setattr(flow_module, "_stacked_letter", recorded)
        x = np.array([1.0, 0.0])
        words = [FlowWord(((0, 2.0),)), FlowWord(((1, 0.5),))]
        paths, stops, W = run_words(fam, words, x, 1e-9, tangents=np.eye(2) if carried else None)
        assert raised == [StepUnderflow]
        assert isinstance(stops[0], StepUnderflow) and stops[1] is None
        assert np.array_equal(paths[0], [x])
        assert np.allclose(paths[1], [x, [1.0, 0.5]], rtol=0.0, atol=1e-12)
        if carried:
            assert np.array_equal(W[0], np.eye(2)) and np.allclose(W[1], np.eye(2))
        else:
            assert W is None


def _one(index, value=0.1):
    return L1Coefficients(((index, value),))


# every entry point that takes a member index, called with index i
_INDEXED = {
    "flow_control": lambda f, lb, i: flow_control(f, one_piece(_one(i), 0.0, 0.5), np.zeros(3),
                                                  0.0, 0.5, tangents=np.eye(3)),
    "run_words": lambda f, lb, i: run_words(f, [FlowWord(((0, 0.1),)), FlowWord(((i, 0.1),))],
                                            np.zeros(3)),
    "apply": lambda f, lb, i: FlowWord(((0, 0.1), (i, 0.1))).apply(f, np.zeros(3)),
    "apply_with_variational": lambda f, lb, i: FlowWord(((i, 0.1),)).apply_with_variational(
        f, np.zeros(3)),
    "compose_flows": lambda f, lb, i: compose_flows(f, lb, _one(i), np.zeros(3)),
    "compose_inverse": lambda f, lb, i: compose_inverse(f, lb, _one(i), np.zeros(3),
                                                        path="sequential"),
    "d_psi_tau": lambda f, lb, i: d_psi(f, lb, np.zeros(3), _one(i), _one(0)),
    "d_psi_sigma": lambda f, lb, i: d_psi(f, lb, np.zeros(3), _one(0), _one(i)),
    "enlarge_field_letter": lambda f, lb, i: enlarge_field(f, FlowWord(((i, 0.1),)), 0, 1.0, lb),
    "enlarge_field_base": lambda f, lb, i: enlarge_field(f, FlowWord(((0, 0.1),)), i, 1.0, lb),
    "slice_grid": lambda f, lb, i: slice_grid(f, lb, np.zeros(3), 0.1, 2, (0, i)),
    "invariance_residual": lambda f, lb, i: invariance_residual(f, np.zeros(3), i, 0.2, lb),
}
# the entry points that take the index as a plain int, where -1 gets as far as them
_RAW_INDEX = ("enlarge_field_base", "slice_grid", "invariance_residual")


class TestBadLetters:
    @pytest.mark.parametrize("letter", [(-1, 0.1), (0, math.inf), (1, -math.inf), (0, math.nan)])
    def test_a_word_refuses_a_negative_index_or_a_time_that_is_not_finite(self, letter):
        with pytest.raises(InvalidArgument):
            FlowWord(((0, 0.1), letter))

    @pytest.mark.parametrize("index", [1.5, 1.0, False])
    def test_a_word_refuses_an_index_that_is_not_an_integer(self, index):
        # int() truncated it: FlowWord(((1.5, 0.1),)) flowed member 1
        with pytest.raises(InvalidArgument, match="is not an integer"):
            FlowWord(((0, 0.1), (index, 0.1)))
        assert FlowWord(((np.int64(1), 0.1),)).letters == ((1, 0.1),)

    def test_run_words_refuses_an_index_beyond_the_family(self, heis):
        with pytest.raises(InvalidArgument):
            run_words(heis, [FlowWord(((5, 0.1),)), FlowWord(((0, 0.1),))], np.zeros(3))
        with pytest.raises(InvalidArgument):
            FlowWord(((2, 0.1),)).apply(heis, np.zeros(3))

    @pytest.mark.parametrize("stripped", [False, True], ids=["tabled", "untabled"])
    @pytest.mark.parametrize("entry", list(_INDEXED))
    def test_every_entry_point_refuses_an_index_with_no_member(self, heis, heis_lb, entry,
                                                               stripped):
        # flow_control raised a bare IndexError, and invariance_residual
        # flowed the last member for -1
        family = _stripped(heis) if stripped else heis
        for index in (len(family), -1) if entry in _RAW_INDEX else (len(family),):
            with pytest.raises(InvalidArgument, match=f"index {index} has no family member"):
                _INDEXED[entry](family, heis_lb, index)



def _stripped(family):
    """The family with every member's table removed: the member loop, with
    tangents moved by central differences."""
    return replace(family, members=tuple(replace(m, table=None) for m in family.members))


@pytest.fixture
def rhs_terms(monkeypatch):
    """The terms of every right-hand side built while the test holds it: the
    member pairs, or the right-hand side itself for a tabled run."""
    terms, init = [], flow_module._Rhs.__init__

    def recorded(self, t, dim, k):
        init(self, t, dim, k)
        terms.append(self if type(t) is flow_module._Tables else t)

    monkeypatch.setattr(flow_module._Rhs, "__init__", recorded)
    return terms


def _random_control(rng, members, pieces, width):
    """``pieces`` equal pieces over [0, 1.5], each with ``width`` members."""
    edges = np.linspace(0.0, 1.5, pieces + 1)
    return Control(pieces=tuple(
        (a, b, L1Coefficients(tuple((int(i), float(rng.uniform(0.2, 0.6) * rng.choice([-1, 1])))
                                    for i in sorted(rng.choice(members, width, replace=False)))))
        for a, b in zip(edges, edges[1:])))


class TestTablePath:
    @pytest.mark.parametrize("family", [quadratic_heisenberg(c=0.5), chain_family(6),
                                        quadratic_operator_family()],
                             ids=["quadratic-heisenberg", "chain", "operator-family"])
    def test_weighted_table_matches_the_member_loop(self, family, rng, rhs_terms):
        d = family.space.dimension
        loop = _stripped(family)
        for t0, T0 in ((0.0, 1.0), (1.5, -1.2), (0.2, 1.3)):
            u = _random_control(rng, len(family), 4, 2)
            x = rng.uniform(-0.3, 0.3, d)
            rhs_terms.clear()
            got = flow_control(family, u, x, t0, T0, tangents=np.eye(d), tol=TOL)
            assert rhs_terms and all(type(t) is flow_module._Rhs for t in rhs_terms)
            rhs_terms.clear()
            ref = flow_control(loop, u, x, t0, T0, tangents=np.eye(d), tol=TOL)
            assert rhs_terms and all(type(t) is tuple for t in rhs_terms)
            assert np.abs(got.endpoint - ref.endpoint).max() <= 10 * TOL * (1 + np.abs(x).max())
            assert np.abs(got.tangents - ref.tangents).max() <= 1e-9

    def test_a_family_with_an_untabled_member_runs_the_member_loop(self, heis, rng, rhs_terms):
        mixed = replace(heis, members=(heis.members[0], replace(heis.members[1], table=None)))
        u = _random_control(rng, 2, 3, 2)
        x = np.array([0.2, -0.1, 0.3])
        got = flow_control(mixed, u, x, 0.0, 1.0, tangents=np.eye(3), tol=TOL)
        assert rhs_terms and all(type(t) is tuple for t in rhs_terms)
        ref = flow_control(heis, u, x, 0.0, 1.0, tangents=np.eye(3), tol=TOL)
        assert np.abs(got.endpoint - ref.endpoint).max() <= 10 * TOL
        assert np.abs(got.tangents - ref.tangents).max() <= 1e-9

    def test_a_tabled_field_flows_on_its_own_tables(self, rhs_terms):
        X = quadratic_heisenberg().members[1]
        flow_single(X, np.zeros(3), 0.5, tangents=np.eye(3))
        flow_single(X, np.zeros(3), 0.5)
        (with_tangents, plain) = rhs_terms
        assert [t for t, _ in with_tangents.tables] == [X.table, X.table.derivative]
        assert [t for t, _ in plain.tables] == [X.table]


def _random_affine_family(rng, dim, members, radius=100.0):
    """Members X_a(x) = A_a x + b_a with entries in [-1, 1], as tables."""
    dom = ball(np.zeros(dim), radius)
    exponents = np.vstack([np.zeros(dim, dtype=int), np.eye(dim, dtype=int)])
    fields = []
    for a in range(members):
        A, b = rng.uniform(-1.0, 1.0, (dim, dim)), rng.uniform(-1.0, 1.0, dim)
        table = MonomialTable(exponents, np.vstack([b, A.T]))  # row 1 + j holds column j
        fields.append(VectorField(domain=dom, eval_fn=table, label=f"A{a}", table=table))
    return FieldFamily(space=ChartSpace(dim), members=tuple(fields), common_domain=dom)


class TestExactFlows:
    """A tabled family of degree at most 1 flows exactly: one matrix
    exponential per segment, its rows and tangents carried by products."""

    def test_the_heisenberg_rectangle_and_its_variational_matrix(self, heis, rhs_terms):
        x = np.array([0.3, -0.2, 0.1])
        res = flow_control(heis, heisenberg_rectangle_control(), x, 0.0, 4.0, tangents=np.eye(3))
        # the rectangle is the translation by its commutator area
        assert np.abs(res.endpoint - (x + [0.0, 0.0, 1.0])).max() <= 1e-15
        assert np.abs(res.tangents - np.eye(3)).max() <= 1e-15
        assert res.steps_taken == 4 and rhs_terms == []  # nilpotent: one exact step per piece

    def test_heisenberg_pieces_match_the_closed_form(self, heis, rng):
        # a X1 + b X2 over time t moves (x, y, z) to (x + a t, y + b t,
        # z + b (x t + a t^2 / 2)), with derivative [[1, 0, 0], [0, 1, 0], [b t, 0, 1]]
        edges = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.4, 9))])
        weights = rng.uniform(-1.0, 1.0, (9, 2))
        x = rng.uniform(-0.5, 0.5, 3)
        end, M = x.copy(), np.eye(3)
        for (a, b), t in zip(weights, np.diff(edges)):
            end = end + [a * t, b * t, b * (end[0] * t + a * t * t / 2)]
            M = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [b * t, 0.0, 1.0]]) @ M
        u = Control(tuple((s, e, L1Coefficients(((0, a), (1, b)))) for s, e, (a, b)
                          in zip(edges, edges[1:], weights)))
        res = flow_control(heis, u, x, 0.0, edges[-1], tangents=np.eye(3))
        assert res.steps_taken == 9
        assert np.abs(res.endpoint - end).max() <= 1e-14 * (1 + np.abs(end).max())
        assert np.abs(res.tangents - M).max() <= 1e-14 * (1 + np.abs(M).max())

    @pytest.mark.parametrize("entries", [((0, 0.7), (2, -0.4)), ((1, 0.3), (3, -0.3))],
                             ids=["growth", "balanced"])
    def test_affine_l1_matches_the_closed_form(self, entries, rhs_terms):
        # sum_a w_a (x + d_a) = sigma x + b flows x to e^(sigma t) x +
        # (e^(sigma t) - 1)/sigma b, with derivative e^(sigma t) I; a balanced
        # piece (sigma = 0) is the translation by t b
        fam = affine_l1(8, 4, 0.7, linear_part=True)
        x = np.linspace(-0.05, 0.08, 8)
        sigma = sum(w for _, w in entries)
        b = sum(w * 0.7 ** a * np.eye(8)[a] for a, w in entries)
        for t in (0.4, -1.3, 2.0):
            grow = math.exp(sigma * t)
            end = grow * x + (math.expm1(sigma * t) / sigma if sigma else t) * b
            res = flow_control(fam, one_piece(L1Coefficients(entries), 0.0, abs(t)), x,
                               0.0 if t > 0 else abs(t), t, tangents=np.eye(8))
            assert np.abs(res.endpoint - end).max() <= 1e-14 * (1 + np.abs(end).max())
            assert np.abs(res.tangents - grow * np.eye(8)).max() <= 1e-14 * grow
            # without tangents, a piece with ||hM||_1 <= 1 sums its series on the point
            res = flow_control(fam, one_piece(L1Coefficients(entries), 0.0, abs(t)), x,
                               0.0 if t > 0 else abs(t), t)
            assert np.abs(res.endpoint - end).max() <= 1e-14 * (1 + np.abs(end).max())
        assert rhs_terms == []

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_exact_flows_agree_with_the_stepper(self, seed):
        rng = np.random.default_rng(seed)
        fam = _random_affine_family(rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)))
        u = _random_control(rng, len(fam), int(rng.integers(1, 4)), min(2, len(fam)))
        x = rng.uniform(-1.0, 1.0, fam.space.dimension)
        tol = float(10.0 ** rng.uniform(-11, -7))
        exact = flow_control(fam, u, x, 0.0, 1.5, tol=tol)
        stepped = flow_control(_stripped(fam), u, x, 0.0, 1.5, tol=tol)
        scale = 1 + np.abs(exact.endpoint).max()
        assert np.abs(exact.endpoint - stepped.endpoint).max() <= 10 * tol * scale

    def test_stacked_rows_equal_one_row_runs(self, heis, rng):
        for family in (heis, affine_l1(6, 5, 0.8, linear_part=True)):
            d, m = family.space.dimension, len(family)
            P = rng.uniform(-0.3, 0.3, (5, d))
            V = rng.normal(size=(5, d, 2))
            letters = [(int(rng.integers(0, m)), float(rng.uniform(-1.5, 1.5))) for _ in P]
            # rows with different letters are one merged-table segment
            paths, stops, W = run_words(family, [FlowWord((letter,)) for letter in letters], P,
                                        TOL, tangents=V)
            assert stops == [None] * len(P)
            shared = flow_single(family.members[0], P, 0.9, tangents=V)
            for i, (a, t) in enumerate(letters):
                one = flow_single(family.members[a], P[i], t, tangents=V[i])
                scale = 1 + np.abs(one.tangents).max()
                assert np.abs(paths[i][-1] - one.endpoint).max() <= 1e-14 * scale
                assert np.abs(W[i] - one.tangents).max() <= 1e-14 * scale
                alone = flow_single(family.members[0], P[i], 0.9, tangents=V[i])
                assert np.array_equal(shared.endpoint[i], alone.endpoint)
                assert np.array_equal(shared.tangents[i], alone.tangents)

    def test_a_quarter_point_outside_hands_the_piece_to_the_stepper(self, heis):
        # X1 + X2 from (-4, -4, -5) leaves the radius-8 domain at t = 4 -
        # sqrt(14) and is back at t = 8, where its exact step ends; its
        # quarter point (0, 0, -13) is outside, so the piece runs on the
        # stepper and raises what the stepper raises, naming row 1
        V = polynomial_field(heis.common_domain, [((1.0, (0, 0, 0)),), ((1.0, (0, 0, 0)),),
                                                  ((1.0, (1, 0, 0)),)], label="X1+X2")
        P = np.array([[-4.0, -4.0, 3.0], [-4.0, -4.0, -5.0]])
        with pytest.raises(LeftDomain) as got:
            flow_single(V, P, 8.0, tol=TOL)
        rhs = flow_module._Rhs(flow_module._Tables(V.table, None), 3, 0)
        with pytest.raises(LeftDomain) as ref:
            flow_module._integrate_segment(rhs, 0.0, 8.0, P.ravel().copy(), 2, 3, TOL, V.domain,
                                           {"steps": 0})
        assert got.value.row == ref.value.row == 1
        assert got.value.last_time == ref.value.last_time
        assert np.array_equal(got.value.last_point, ref.value.last_point)

    def test_a_quarter_point_outside_a_one_step_segment_hands_it_to_the_stepper(self):
        # the rotation (-y, x) over t = 1 (||hM||_1 = 1: one step, its series
        # summed on the rows) carries the angle from -1/2 to 1/2; the ball of
        # radius 1.95 about (-1, 0) holds both ends but not the quarter points
        region = ball(np.array([-1.0, 0.0]), 1.95)
        V = polynomial_field(region, [((-1.0, (0, 1)),), ((1.0, (1, 0)),)], label="rotation")
        P = np.array([[-0.5, 0.0], [math.cos(0.5), -math.sin(0.5)]])
        with pytest.raises(LeftDomain) as got:
            flow_single(V, P, 1.0, tol=TOL)
        rhs = flow_module._Rhs(flow_module._Tables(V.table, None), 2, 0)
        with pytest.raises(LeftDomain) as ref:
            flow_module._integrate_segment(rhs, 0.0, 1.0, P.ravel().copy(), 2, 2, TOL, region,
                                           {"steps": 0})
        assert got.value.row == ref.value.row == 1
        assert got.value.last_time == ref.value.last_time
        assert np.array_equal(got.value.last_point, ref.value.last_point)

    def test_the_row_series_matches_the_quarter_powers(self, rng):
        # one segment of one step: the series summed on the rows and the
        # kernel's quarter powers applied to them give the same four points
        for n, rows, columns in ((1, 1, 1), (1, 4, 3), (5, 5, 1), (5, 5, 4)):
            A = np.zeros((1, n, 6, 6))
            A[:, :, :5] = rng.uniform(-1.0, 1.0, (1, n, 5, 6))
            norms = np.abs(A).sum(axis=2).max(axis=2)
            A /= norms.max()
            Z = rng.normal(size=(rows, 6, columns))
            Z[:, 5] = np.eye(columns)[0]
            points = flow_module._quarter_points(A[0], Z, 1.0)
            powers, halvings = flow_module._quarter_powers(A.copy(), norms / norms.max())
            assert halvings[0] == 0
            assert np.abs(points - powers[:, 0] @ Z).max() <= 1e-14 * np.abs(Z).max()

    def test_a_segment_too_long_for_the_kernel_runs_on_the_stepper(self, rhs_terms):
        # x' = -x from 1: 2^6 exact steps cover t = 60, and t = 70 would need 2^7
        X = polynomial_field(ball([0.0], 10.0), [((-1.0, (1,)),)], label="decay")
        res = flow_single(X, np.ones(1), 60.0, tol=TOL)
        assert res.steps_taken == 64 and rhs_terms == []
        assert res.endpoint[0] == pytest.approx(math.exp(-60.0), rel=1e-12)
        res = flow_single(X, np.ones(1), 70.0, tol=TOL)
        assert rhs_terms and abs(res.endpoint[0] - math.exp(-70.0)) <= 10 * TOL


def _random_triangular_family(rng, radius=100.0):
    """d = 2-4 and 2-3 polynomial members of degree at most 3 whose
    component i depends on x_0..x_{i-1} only, so that they generate a
    nilpotent algebra; one member has a term of degree 2 or 3, so that the
    family's table is not affine and its flows run on the stepper."""
    d, m = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    dom = ball(np.zeros(d), radius)
    members = [[[(float(rng.uniform(-1.0, 1.0)), (0,) * d)] for _ in range(d)] for _ in range(m)]
    for components in members:
        for i in range(1, d):
            for _ in range(int(rng.integers(0, 3))):
                exps = np.zeros(d, dtype=int)
                exps[:i] = rng.multinomial(int(rng.integers(1, 4)), np.full(i, 1.0 / i))
                components[i].append((float(rng.uniform(-1.0, 1.0)), tuple(exps)))
    exps = np.zeros(d, dtype=int)
    exps[0] = rng.integers(2, 4)
    members[int(rng.integers(0, m))][d - 1].append((float(rng.uniform(0.5, 1.0)), tuple(exps)))
    fields = tuple(polynomial_field(dom, components, label=f"T{a}")
                   for a, components in enumerate(members))
    return FieldFamily(space=ChartSpace(d), members=fields, common_domain=dom)


class TestTablePathProperties:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_a_stack_of_mixed_letters_equals_each_letter_alone(self, seed):
        # per-row weights, per-row error scales (span) and resting rows of
        # time 0, on the stepper's merged-table path
        rng = np.random.default_rng(seed)
        fam = _random_triangular_family(rng)
        assert fam.table.degree > 1
        n, d = int(rng.integers(3, 7)), fam.space.dimension
        P = rng.uniform(-0.5, 0.5, (n, d))
        V = rng.normal(size=(n, d, 2))
        letters = [(int(rng.integers(0, len(fam))),
                    0.0 if rng.uniform() < 0.3 else float(rng.uniform(-1.0, 1.0))) for _ in P]
        tol = float(10.0 ** rng.uniform(-10, -7))
        paths, stops, W = run_words(fam, [FlowWord((letter,)) for letter in letters], P, tol,
                                    tangents=V)
        assert stops == [None] * n
        for i, (a, t) in enumerate(letters):
            one = flow_single(fam.members[a], P[i], t, tol=tol, tangents=V[i])
            scale = 1 + max(np.abs(one.endpoint).max(), np.abs(one.tangents).max())
            assert np.abs(paths[i][-1] - one.endpoint).max() <= 10 * tol * scale
            assert np.abs(W[i] - one.tangents).max() <= 10 * tol * scale

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_a_series_enlarged_field_equals_the_nested_one(self, seed):
        rng = np.random.default_rng(seed)
        fam = _random_triangular_family(rng)
        d = fam.space.dimension
        word = FlowWord(tuple((int(rng.integers(0, len(fam))), float(rng.uniform(-0.5, 0.5)))
                              for _ in range(int(rng.integers(1, 4)))))
        base, nu = int(rng.integers(0, len(fam))), float(rng.uniform(0.5, 2.0))
        lb = LbRecord(order_s=0, bound_k=1e6, region=fam.common_domain)
        tol = float(10.0 ** rng.uniform(-11, -8))
        series = enlarge_field(fam, word, base, nu, lb, tol=tol)
        # a series with terms left after SERIES_MAX_BRACKETS is nested too
        assume(series.table is not None)
        nested = enlarge_field(_stripped(fam), word, base, nu, lb, tol=tol)
        assert nested.table is None
        P = rng.uniform(-0.5, 0.5, (5, d))
        want = nested.eval_many(P)
        assert np.abs(series.eval_many(P) - want).max() <= 10 * tol * (1 + np.abs(want).max())


class TestStartPointPerWord:
    @pytest.mark.parametrize("family", [heisenberg(), affine_l1(6, 5, 0.8, linear_part=True)],
                             ids=["heisenberg", "affine-l1"])
    def test_each_word_runs_from_its_own_start_point(self, family, rng):
        d, m = family.space.dimension, len(family)
        words = [FlowWord(tuple((int(rng.integers(0, m)), float(rng.uniform(-0.3, 0.3)))
                                for _ in range(n))) for n in (3, 1, 0, 2, 3)]
        starts = rng.uniform(-0.2, 0.2, (len(words), d))
        paths, stops, _ = run_words(family, words, starts, TOL)
        assert stops == [None] * len(words)
        for word, start, path in zip(words, starts, paths):
            ref = [start]
            for idx, t in word.letters:
                ref.append(flow_single(family.members[idx], ref[-1], t, tol=TOL).endpoint)
            assert path.shape == (1 + len(word.letters), d)
            assert np.abs(path - ref).max() <= 10 * TOL * (1 + np.abs(start).max())

    def test_a_row_leaving_the_region_stops_alone(self):
        fam = commuting_constants(2, 2)
        starts = np.array([[0.0, 0.0], [0.8, 0.0], [0.0, -0.5]])
        words = [FlowWord(((0, 0.5), (1, 0.2))), FlowWord(((0, 0.5), (1, 0.1))),
                 FlowWord(((1, 0.3),))]
        paths, stops, _ = run_words(fam, words, starts, TOL, ball([0, 0], 1.0))
        assert stops[0] is None and stops[2] is None and isinstance(stops[1], LeftDomain)
        assert np.array_equal(paths[1], starts[1:2])
        assert np.allclose(paths[0][-1], [0.5, 0.2]) and np.allclose(paths[2][-1], [0.0, -0.2])

    def test_one_start_point_per_word(self, heis):
        with pytest.raises(InvalidArgument):
            run_words(heis, [FlowWord(((0, 0.1),))] * 3, np.zeros((2, 3)), TOL)


def polynomial_like_scale(X, factor):
    from orbitkit.fields import MonomialTable, VectorField

    def ev(x):
        return factor * X(x)

    return VectorField(domain=X.domain, eval_fn=ev,
                       table=MonomialTable(X.table.exponents, factor * X.table.coefficients),
                       label=f"{factor:g}*{X.label}")
