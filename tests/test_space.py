import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orbitkit.algebra import bracket_chain, certify_h_prime, enlarge_field
from orbitkit.catalog import affine_l1, commuting_constants, operator_family
from orbitkit.compose import compose_flows, d_psi
from orbitkit.errors import InvalidArgument
from orbitkit.fields import LbRecord, eval_jet_norm
from orbitkit.flow import Control, FlowWord, flow_control, flow_single, guard
from orbitkit.orbit import (accessibility_verdict, distribution_at, invariance_residual,
                            orbit_sample, slice_grid, trivialization_eval)
from orbitkit.space import (Ball, ChartSpace, L1Coefficients, ball, integer, max_operator_norm,
                            operator_norm, positive, vector_norm)


class TestNorm1:
    def test_empty(self):
        assert L1Coefficients().norm1 == 0.0

    def test_direct_sum(self):
        tau = L1Coefficients(((0, 1.0), (3, -2.0)))
        assert tau.norm1 == 3.0

    def test_tail_adds(self):
        tau = L1Coefficients(((0, 0.5),), tail_bound=0.25)
        assert tau.norm1 == 0.75

    def test_zero_iff_empty(self):
        assert L1Coefficients((), 0.0).norm1 == 0.0
        assert L1Coefficients((), 0.1).norm1 > 0.0
        assert L1Coefficients(((2, 0.1),)).norm1 > 0.0


class TestTruncate:
    def test_counting(self):
        tau = L1Coefficients(((0, 1.0), (1, 1.0), (2, 1.0)))
        kept, tail = tau.truncate(2)
        assert kept.entries == ((0, 1.0), (1, 1.0))
        assert tail == 1.0

    def test_everything_dropped(self):
        kept, tail = L1Coefficients(((5, -4.0),)).truncate(0)
        assert kept.entries == ()
        assert tail == 4.0

    def test_tail_passes_through(self):
        kept, tail = L1Coefficients(((0, 1.0),), tail_bound=0.5).truncate(1)
        assert kept.entries == ((0, 1.0),)
        assert tail == 0.5

    def test_mass_conservation(self, rng):
        for _ in range(200):
            m = int(rng.integers(0, 8))
            idx = sorted(rng.choice(50, size=m, replace=False)) if m else []
            vals = rng.standard_normal(m)
            vals[vals == 0] = 1.0
            tau = L1Coefficients(tuple((int(i), float(v)) for i, v in zip(idx, vals)),
                                 float(rng.uniform(0, 2)))
            n = int(rng.integers(0, m + 3))
            kept, tail = tau.truncate(n)
            assert abs(kept.norm1 + tail - tau.norm1) <= 1e-12


class TestL1CoefficientsValidation:
    def test_rejects_zero_values(self):
        with pytest.raises(ValueError):
            L1Coefficients(((0, 0.0),))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            L1Coefficients(((0, 1.0), (0, 2.0)))

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            L1Coefficients(((3, 1.0), (1, 2.0)))

    @pytest.mark.parametrize("tail", [-1.0, float("nan")])
    def test_rejects_a_tail_bound_below_zero_or_nan(self, tail):
        # InvalidArgument is a ValueError, so a scenario value gives a report
        with pytest.raises(InvalidArgument):
            L1Coefficients(((0, 1.0),), tail)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_a_value_that_is_not_finite(self, value):
        # a NaN value used to reach the flows: compose_flows returned the
        # start point, d_psi NaNs and flow_control a StepUnderflow
        with pytest.raises(InvalidArgument):
            L1Coefficients(((0, 1.0), (1, value)))
        with pytest.raises(InvalidArgument):
            L1Coefficients.from_pairs([(1, value)])

    @pytest.mark.parametrize("index", [1.7, 1.0, True, "1"])
    def test_rejects_an_index_that_is_not_an_integer(self, index):
        # int() truncated it: entries ((1.7, 0.2),) were ((1, 0.2),), and a
        # composition flowed member 1
        with pytest.raises(InvalidArgument, match="is not an integer"):
            L1Coefficients(((index, 0.2),))
        with pytest.raises(InvalidArgument, match="is not an integer"):
            L1Coefficients.from_pairs([(index, 0.2)])

    def test_accepts_numpy_integer_indices(self):
        c = L1Coefficients(((np.int64(1), 0.2),))
        assert c.entries == ((1, 0.2),) and type(c.entries[0][0]) is int
        assert L1Coefficients.from_pairs([(np.int32(2), 0.5)]).entries == ((2, 0.5),)

    def test_rejects_a_negative_truncation(self):
        with pytest.raises(InvalidArgument):
            L1Coefficients(((0, 1.0),)).truncate(-1)

    def test_from_pairs_merges(self):
        tau = L1Coefficients.from_pairs([(2, 1.0), (0, 0.5), (2, -1.0)])
        assert tau.entries == ((0, 0.5),)

    def test_combine(self):
        a = L1Coefficients(((0, 1.0), (2, 2.0)))
        b = L1Coefficients(((0, -1.0), (1, 3.0)))
        c = a.combine(b)
        assert c.entries == ((1, 3.0), (2, 2.0))


class TestArgumentRules:
    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3)])
    def test_integer_takes_a_python_or_numpy_integer(self, value):
        got = integer(value, "count", 1)
        assert got == 3 and type(got) is int

    @pytest.mark.parametrize("value", [3.0, 2.5, True, np.bool_(True), "3", None, math.nan])
    def test_integer_refuses_anything_else(self, value):
        with pytest.raises(InvalidArgument, match="count .* is not an integer"):
            integer(value, "count")

    def test_integer_refuses_a_value_below_its_lowest(self):
        assert integer(-4, "index") == -4
        with pytest.raises(InvalidArgument, match="count must be >= 1, not 0"):
            integer(0, "count", 1)

    @pytest.mark.parametrize("value", [2, 0.5, np.float32(0.5), np.int64(2), 1e-300])
    def test_positive_takes_a_positive_finite_real(self, value):
        got = positive(value, "scale")
        assert got == value and type(got) is float

    @pytest.mark.parametrize("value", [0, -1.0, math.nan, math.inf, -math.inf, np.float32(math.inf),
                                       10 ** 400])
    def test_positive_refuses_a_value_outside_zero_to_inf(self, value):
        with pytest.raises(InvalidArgument, match="scale must be positive and finite"):
            positive(value, "scale")

    @pytest.mark.parametrize("value", [True, "1", None, 1j, np.array([1.0])])
    def test_positive_refuses_a_value_that_is_not_a_real_number(self, value):
        with pytest.raises(InvalidArgument, match="is not a real number"):
            positive(value, "scale")


# arguments that slipped past every check: the first six ended in a bare
# TypeError, the next four were accepted, and a NaN or infinite scale gave
# a field of NaN values (with a RuntimeWarning for inf)
_HOLES = {
    "bracket_chain k_max 2.5": lambda f, lb: bracket_chain(f, np.zeros(3), 2.5),
    "accessibility_verdict k_max 2.5": lambda f, lb: accessibility_verdict(f, np.zeros(3), 2.5),
    "certify_h_prime grid_size 2.5": lambda f, lb: certify_h_prime(f, ball([0, 0, 0], 0.5),
                                                                   grid_size=2.5),
    "compose_flows truncation_n 1.5": lambda f, lb: compose_flows(
        f, lb, L1Coefficients(((0, 0.1), (1, 0.1))), np.zeros(3), truncation_n=1.5),
    "affine_l1 count 3.0": lambda f, lb: affine_l1(8, 3.0),
    "commuting_constants span 2.0": lambda f, lb: commuting_constants(3, 2.0),
    "compose_flows truncation_n True": lambda f, lb: compose_flows(
        f, lb, L1Coefficients(((0, 0.1), (1, 0.1))), np.zeros(3), truncation_n=True),
    "bracket_chain k_max True": lambda f, lb: bracket_chain(f, np.zeros(3), True),
    "ChartSpace dimension 2.5": lambda f, lb: ChartSpace(2.5),
    "LbRecord order 2.5": lambda f, lb: LbRecord(2.5, 1.0, f.common_domain),
    "enlarge_field nu nan": lambda f, lb: enlarge_field(f, FlowWord(((0, 0.1),)), 1, math.nan, lb),
    "enlarge_field nu inf": lambda f, lb: enlarge_field(f, FlowWord(((0, 0.1),)), 1, math.inf, lb),
    # ball() converted its radius with float(), so True was a radius of 1,
    # and operator_family truncated a matrix-term row of 1.5 to row 1
    "ball radius True": lambda f, lb: ball([0, 0, 0], True),
    "operator_family row 1.5": lambda f, lb: operator_family(3, 2, [(1.0, (0, 0, 0), 1.5, 0)]),
}


@pytest.mark.parametrize("call", list(_HOLES))
def test_an_index_count_or_scale_that_breaks_its_rule_is_an_invalid_argument(heis, heis_lb, call):
    with pytest.raises(InvalidArgument):
        _HOLES[call](heis, heis_lb)


class TestChartSpace:
    def test_norm_default_euclidean(self):
        assert ChartSpace(3).norm_kind == "euclidean"

    def test_norm_default_l1_on_truncation(self):
        assert ChartSpace(3, truncation_of_l1=True).norm_kind == "l1"

    def test_dimension_positive(self):
        with pytest.raises(ValueError):
            ChartSpace(0)

    @pytest.mark.parametrize("kind", ["sup", "euclidean", "l1"])
    def test_norm_axioms(self, kind, rng):
        # subadditivity and absolute homogeneity on 1000 random pairs
        for _ in range(1000):
            u = rng.standard_normal(4)
            v = rng.standard_normal(4)
            a = float(rng.standard_normal())
            nu, nv = vector_norm(u, kind), vector_norm(v, kind)
            assert vector_norm(u + v, kind) <= nu + nv + 1e-12
            assert abs(vector_norm(a * u, kind) - abs(a) * nu) <= 1e-12


    @pytest.mark.parametrize("kind", ["sup", "euclidean", "l1"])
    def test_operator_norm_of_a_stack(self, kind, rng):
        stack = rng.standard_normal((3, 5, 4, 4))
        got = operator_norm(stack, kind)
        assert got.shape == (3, 5)
        for idx in np.ndindex(3, 5):
            m = stack[idx]
            assert isinstance(operator_norm(m, kind), float)
            assert got[idx] == operator_norm(m, kind)
            # the induced norm is attained on some unit vector and bounds all
            u = [ChartSpace(4, norm_kind=kind).unit_vector(rng) for _ in range(50)]
            assert max(vector_norm(m @ v, kind) for v in u) <= got[idx] * (1 + 1e-12)
        e = np.eye(4)
        assert operator_norm(e, kind) == pytest.approx(1.0)


@st.composite
def matrix_stacks(draw):
    """A stack of stacks (G, K, n, p) of random, rank-1 or zero matrices, or
    a mix, at one of three magnitudes, possibly with a NaN or infinite
    entry."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 31)))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 12)), draw(st.integers(1, 5)),
             draw(st.integers(1, 5)))
    form = draw(st.sampled_from(["random", "rank-1", "zero", "mixed"]))
    if form == "rank-1":
        stack = rng.standard_normal(shape[:-1] + (1,)) * rng.standard_normal(shape[:-2] + (1, shape[-1]))
    else:
        stack = rng.standard_normal(shape)
        if form == "zero":
            stack[:] = 0.0
        elif form == "mixed":  # zero matrices and rank-1 matrices among the random ones
            stack[rng.random(shape[:2]) < 0.3] = 0.0
            one = rng.random(shape[:2]) < 0.3
            stack[one] = (rng.standard_normal(shape[-2:-1] + (1,)) * rng.standard_normal((1, shape[-1])))
    stack *= draw(st.sampled_from([1e-170, 1.0, 1e150]))
    bad = draw(st.sampled_from([None, np.nan, np.inf]))
    if bad is not None:
        stack[tuple(int(rng.integers(0, n)) for n in shape)] = bad
    return stack


class TestMaxOperatorNorm:
    @settings(max_examples=300, deadline=None)
    @given(matrix_stacks(), st.sampled_from(["sup", "euclidean", "l1"]),
           st.sampled_from(["zero", "below", "above"]))
    def test_equals_the_maximum_of_the_stack_bit_for_bit(self, stack, kind, floor):
        try:
            norms = operator_norm(stack, kind)
        except np.linalg.LinAlgError:  # a NaN entry: the SVD does not converge
            with pytest.raises(np.linalg.LinAlgError):
                max_operator_norm(stack, kind)
            return
        top = norms.max(axis=-1)
        floors = {"zero": 0.0, "below": 0.5 * top, "above": 2.0 * top + 1e-300}[floor]
        got = max_operator_norm(stack, kind, floors)
        assert np.array_equal(got, np.maximum(floors, top), equal_nan=True)
        # one stack gives a float, against a float floor
        floor0 = float(np.ravel(floors)[0])
        one = max_operator_norm(stack[0], kind, floor0)
        assert isinstance(one, float)
        assert np.array_equal(one, np.maximum(floor0, norms[0].max()), equal_nan=True)

    def test_an_all_zero_stack_takes_no_svd(self, monkeypatch):
        def no_svd(*args, **kwargs):
            raise AssertionError("SVD of a zero stack")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        assert max_operator_norm(np.zeros((5, 3, 3)), "euclidean") == 0.0
        assert max_operator_norm(np.zeros((5, 3, 3)), "euclidean", 2.5) == 2.5

    def test_rank_one_stacks_prune_all_but_the_largest(self, monkeypatch, rng):
        # a rank-1 matrix's norm is its Frobenius norm, so the bracket rules
        # out every matrix whose Frobenius norm is below the largest
        stack = rng.standard_normal((200, 4, 1)) * rng.standard_normal((200, 1, 4))
        seen, svd = [], np.linalg.svd

        def counted(m, *args, **kwargs):
            seen.append(len(m))
            return svd(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        got = max_operator_norm(stack, "euclidean")
        monkeypatch.undo()
        assert got == operator_norm(stack, "euclidean").max()
        assert sum(seen) <= 3

    def test_unknown_kind(self):
        with pytest.raises(InvalidArgument):
            max_operator_norm(np.eye(2)[None], "l2")


class TestBall:
    def test_radius_positive(self):
        with pytest.raises(ValueError):
            Ball(np.zeros(2), 0.0, "euclidean")

    def test_contains(self):
        b = ball([0, 0], 1.0, "l1")
        assert b.contains([0.5, 0.5])
        assert not b.contains([0.6, 0.5])

    def test_contains_ball(self):
        outer = ball([0, 0], 2.0)
        inner = ball([0.5, 0], 1.0)
        assert outer.contains_ball(inner)
        assert not inner.contains_ball(outer)

    def test_immutable_center(self):
        b = ball([1.0, 2.0], 1.0)
        with pytest.raises(ValueError):
            b.center[0] = 5.0

    @pytest.mark.parametrize("point", [[0.5], [0.5, 0.5, 0.5]])
    def test_a_point_of_another_dimension_is_an_invalid_argument(self, point):
        b = ball([0, 0], 1.0)
        with pytest.raises(InvalidArgument, match="point dimension"):
            b.contains(point)
        with pytest.raises(InvalidArgument, match="point dimension"):
            b.contains_rows(np.array([point, point]))
        with pytest.raises(InvalidArgument, match="point dimension"):
            b.distance_to_boundary(point)


# calls on heisenberg (R^3) from a point of another dimension: flow_control
# checked the dimension itself, guard returned a certificate for a point
# broadcast against the region, a flow_single of time 0 returned the point,
# and the others raised a numpy ValueError or IndexError
_AT_POINT = {
    "flow_single": lambda f, lb, p: flow_single(f.members[0], p, 0.1),
    "flow_single of time 0": lambda f, lb, p: flow_single(f.members[0], p, 0.0),
    "flow_control": lambda f, lb, p: flow_control(
        f, Control(((0.0, 0.1, L1Coefficients(((0, 1.0),))),)), p, 0.0, 0.1),
    "flow_control with lb": lambda f, lb, p: flow_control(
        f, Control(((0.0, 0.1, L1Coefficients(((0, 1.0),))),)), p, 0.0, 0.1, lb=lb),
    "flow_control of length 0": lambda f, lb, p: flow_control(
        f, Control(((0.0, 0.1, L1Coefficients(((0, 1.0),))),)), p, 0.0, 0.0),
    "guard": lambda f, lb, p: guard(lb, p, 1.0, 0.1),
    "orbit_sample": lambda f, lb, p: orbit_sample(f, lb, p, budget=2, max_word_len=2,
                                                  rng_seed=1),
    "slice_grid": lambda f, lb, p: slice_grid(f, lb, p, 0.1, 2, (0, 1)),
    "d_psi": lambda f, lb, p: d_psi(f, lb, p, L1Coefficients(((0, 0.1),)),
                                    L1Coefficients(((1, 1.0),))),
    "eval_jet_norm": lambda f, lb, p: eval_jet_norm(f.members[0], p, 1, f.space),
    "distribution_at": lambda f, lb, p: distribution_at(f, p),
    "bracket_chain": lambda f, lb, p: bracket_chain(f, p, 2),
    "invariance_residual": lambda f, lb, p: invariance_residual(f, p, 0, 0.1, lb),
    "trivialization_eval": lambda f, lb, p: trivialization_eval(
        distribution_at(f, np.zeros(3)), f, L1Coefficients(((0, 1.0),)), p),
}


@pytest.mark.parametrize("dimension", [1, 4])
@pytest.mark.parametrize("call", list(_AT_POINT))
def test_a_point_of_another_dimension_than_the_chart_is_an_invalid_argument(
        heis, heis_lb, call, dimension):
    with pytest.raises(InvalidArgument, match="point dimension"):
        _AT_POINT[call](heis, heis_lb, np.full(dimension, 0.1))


# finitely supported coefficients with a tail bound, for the properties below
VALUES = st.floats(-10.0, 10.0, allow_nan=False).filter(lambda v: v != 0.0)
COEFFICIENTS = st.builds(
    lambda pairs, tail: L1Coefficients(tuple(sorted(pairs.items())), tail),
    st.dictionaries(st.integers(0, 40), VALUES, max_size=8),
    st.floats(0.0, 5.0, allow_nan=False))


class TestL1CoefficientsProperties:
    @given(COEFFICIENTS, st.integers(0, 10))
    def test_truncate_conserves_mass(self, tau, n):
        kept, tail = tau.truncate(n)
        assert kept.entries == tau.entries[:n] and kept.tail_bound == 0.0
        assert abs(kept.norm1 + tail - tau.norm1) <= 1e-12

    @given(COEFFICIENTS, COEFFICIENTS, st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    def test_combine_tail_arithmetic(self, p, q, a, b):
        c = p.combine(q, a, b)
        assert c.tail_bound == abs(a) * p.tail_bound + abs(b) * q.tail_bound
        for i in set(p.support) | set(q.support):
            assert c.get(i) == a * p.get(i) + b * q.get(i)
        # the triangle inequality, with tails
        assert c.norm1 <= abs(a) * p.norm1 + abs(b) * q.norm1 + 1e-12 * (1 + c.norm1)

    @given(COEFFICIENTS, st.floats(-3.0, 3.0))
    def test_scaled_tail_arithmetic(self, tau, a):
        s = tau.scaled(a)
        assert s.tail_bound == abs(a) * tau.tail_bound
        assert s.norm1 == pytest.approx(abs(a) * tau.norm1, rel=1e-12, abs=1e-300)
