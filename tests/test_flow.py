import math
from dataclasses import replace

import numpy as np
import pytest

from orbitkit import flow as flow_module
from orbitkit.algebra import bracket_field, enlarge_field
from orbitkit.catalog import affine_l1, commuting_constants, grushin, heisenberg, operator_family
from orbitkit.compose import compose_flows
from orbitkit.errors import (DomainTooSmall, GuardViolated, InvalidArgument, LeftDomain,
                             OutOfDomain, StepUnderflow, WordNotIntegrable)
from orbitkit.fields import FieldFamily, LbRecord, VectorField, constant_field, polynomial_field
from orbitkit.flow import (Control, FlowWord, _raise_first, flow_control, flow_single, guard,
                           run_words)
from orbitkit.orbit import orbit_sample, slice_grid
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


class TestStepperReference:
    def test_matches_scalar_tableau_loops(self, rng):
        fields = _law_catalog()
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
        # whole-segment first trial integrates exactly
        res = flow_single(heis.members[1], np.array([0.1, 0.2, 0.3]), t, tol=TOL)
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
    segment of these quadratic flows.  The counts are exact, so a regression
    in the start rule fails here without a timing run."""

    STACK = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.2], [1.0, 1.0, -1.0], [-0.3, 0.4, 0.1]])

    def test_switching_rectangle(self, heis, heis_lb, stepper_counts):
        res = flow_control(heis, heisenberg_rectangle_control(), np.zeros(3), 0.0, 4.0,
                           tangents=np.eye(3), lb=heis_lb, unsafe=True)
        assert np.allclose(res.endpoint, [0.0, 0.0, 1.0], atol=1e-12)
        assert stepper_counts["steps"] <= 4 and stepper_counts["rhs"] <= 28

    @pytest.mark.parametrize("path", ["control", "sequential"])
    def test_twelve_letter_composition(self, heis, heis_lb, stepper_counts, path):
        # the Heisenberg pair six times over: twelve members, one letter each
        fam = FieldFamily(space=heis.space, members=heis.members * 6,
                          common_domain=heis.common_domain)
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

    def test_stacked_independent_sample(self, heis, heis_lb, stepper_counts):
        # every letter position of the twelve words is one stacked segment,
        # integrated exactly in one step of seven evaluations
        samp = orbit_sample(heis, heis_lb, np.array([0.2, -0.1, 0.3]), budget=12, max_word_len=5,
                            rng_seed=3, mode="independent", tol=TOL)
        assert len(samp.cloud) == 1 + 12 * 5
        assert stepper_counts["steps"] == 5 and stepper_counts["rhs"] == 35

    def test_explore_sample_takes_one_step_per_round(self, heis, heis_lb, stepper_counts):
        # two rounds of sixteen targets, each round one stacked letter; one
        # run per target took 32 steps and 224 evaluations
        samp = orbit_sample(heis, heis_lb, np.array([0.2, -0.1, 0.3]), budget=32, max_word_len=5,
                            rng_seed=3, mode="explore", tol=TOL)
        assert len(samp.cloud) == 1 + 32
        assert stepper_counts["steps"] == 2 and stepper_counts["rhs"] == 14

    def test_an_exit_reruns_only_the_row_that_left(self, stepper_counts, monkeypatch):
        # the heisenberg explore cloud of TestStackedSample (lb region radius
        # 1), three of whose words leave the region in three rounds: the row
        # that left runs alone and the others are stacked again.  Rerunning
        # every row of those rounds alone took 43 steps, 371 evaluations and
        # 48 single-row runs.
        fam, lb = heisenberg(), LbRecord(2, 0.5, ball([0, 0, 0], 1.0), "declared")
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

    def test_slice_takes_one_step_per_axis_letter(self, heis, heis_lb, stepper_counts):
        res = slice_grid(heis, heis_lb, np.array([0.2, -0.1, 0.3]), rho=0.3, grid_per_axis=4,
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
        families = [affine_l1(6, 5, 0.7, linear_part=True), heisenberg(), grushin()]
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


class TestBadLetters:
    @pytest.mark.parametrize("letter", [(-1, 0.1), (0, math.inf), (1, -math.inf), (0, math.nan)])
    def test_a_word_refuses_a_negative_index_or_a_time_that_is_not_finite(self, letter):
        with pytest.raises(InvalidArgument):
            FlowWord(((0, 0.1), letter))

    def test_run_words_refuses_an_index_beyond_the_family(self, heis):
        with pytest.raises(InvalidArgument):
            run_words(heis, [FlowWord(((5, 0.1),)), FlowWord(((0, 0.1),))], np.zeros(3))
        with pytest.raises(InvalidArgument):
            FlowWord(((2, 0.1),)).apply(heis, np.zeros(3))


def _stripped(family):
    """The family with every member's table removed: the member loop, with
    tangents moved by central differences."""
    return replace(family, members=tuple(replace(m, table=None) for m in family.members))


@pytest.fixture
def rhs_terms(monkeypatch):
    """The terms of every right-hand side built while the test holds it."""
    terms, init = [], flow_module._Rhs.__init__

    def recorded(self, t, dim, k):
        terms.append(t)
        init(self, t, dim, k)

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
    @pytest.mark.parametrize("family", [
        heisenberg(), affine_l1(16, 6, 0.8, linear_part=True),
        operator_family(3, 3, [(1.0, (1, 0, 0), 0, 1), (-0.5, (0, 2, 0), 2, 0),
                               (2.0, (0, 0, 0), 1, 2), (0.3, (1, 1, 0), 2, 2)]),
    ], ids=["heisenberg", "affine-l1", "operator-family"])
    def test_weighted_table_matches_the_member_loop(self, family, rng, rhs_terms):
        d = family.space.dimension
        loop = _stripped(family)
        for t0, T0 in ((0.0, 1.0), (1.5, -1.2), (0.2, 1.3)):
            u = _random_control(rng, len(family), 4, 2)
            x = rng.uniform(-0.3, 0.3, d)
            rhs_terms.clear()
            got = flow_control(family, u, x, t0, T0, tangents=np.eye(d), tol=TOL)
            assert rhs_terms and all(type(t) is flow_module._Tables for t in rhs_terms)
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

    def test_a_tabled_field_flows_on_its_own_tables(self, heis, rhs_terms):
        X = heis.members[1]
        flow_single(X, np.zeros(3), 0.5, tangents=np.eye(3))
        flow_single(X, np.zeros(3), 0.5)
        (with_tangents, plain) = rhs_terms
        assert with_tangents.value is X.table and with_tangents.derivative is X.table.derivative
        assert plain.value is X.table and plain.derivative is None


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
