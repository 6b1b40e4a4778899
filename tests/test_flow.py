from dataclasses import replace

import numpy as np
import pytest

from orbitkit.catalog import commuting_constants, grushin, heisenberg
from orbitkit.errors import DomainTooSmall, GuardViolated, InvalidArgument, LeftDomain
from orbitkit.fields import FieldFamily, LbRecord, polynomial_field
from orbitkit.flow import Control, FlowWord, flow_control, flow_single, guard
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

    def test_left_domain(self):
        fam = commuting_constants(2, 2, radius=1.0)
        u = one_piece(L1Coefficients(((0, 1.0),)), 0.0, 5.0)
        with pytest.raises(LeftDomain):
            flow_control(fam, u, np.zeros(2), 0.0, 5.0)

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
    h = min(end, max(end * 0.1, 1e-3))
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


class TestStackedRuns:
    def test_rows_match_separate_one_row_runs(self, rng):
        # the last two are differenced: one row in scalars, a stack through
        # finite_difference_jvp
        fields = _law_catalog()
        fields += [replace(X, table=None, jacobian_fn=None) for X in fields[-2:]]
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
            ends, W = word.end(heis.members, P, TOL, tangents=V)
            for x, v, end, w in zip(P, V, ends, W):
                ref_end, M = x, np.eye(3)
                for idx, t in word.letters:
                    res = flow_single(heis.members[idx], ref_end, t, tol=TOL, tangents=np.eye(3))
                    ref_end, M = res.endpoint, res.tangents @ M
                assert np.abs(end - ref_end).max() <= 10 * TOL * (1 + np.abs(ref_end).max())
                assert np.abs(w - M @ v).max() <= 10 * TOL * (1 + np.abs(w).max())

    def test_untabled_field_carries_an_identity_block(self, rng):
        # neither a table nor a Jacobian: each column moves by one central
        # difference, against a variational flow on finite_difference_jacobian
        for X in _law_catalog():
            X = replace(X, table=None, jacobian_fn=None)
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
            FlowWord(((0, 1.0),)).end(fam.members, P, TOL, region=ball([0, 0], 8.0))
        assert info.value.last_point[0] > 8.0


def polynomial_like_scale(X, factor):
    from orbitkit.fields import MonomialTable, VectorField

    def ev(x):
        return factor * X(x)

    return VectorField(domain=X.domain, eval_fn=ev,
                       table=MonomialTable(X.table.exponents, factor * X.table.coefficients),
                       label=f"{factor:g}*{X.label}")
