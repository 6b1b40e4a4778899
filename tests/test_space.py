import numpy as np
import pytest
from hypothesis import given, strategies as st

from orbitkit.errors import InvalidArgument
from orbitkit.space import Ball, ChartSpace, L1Coefficients, ball, operator_norm, vector_norm


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
