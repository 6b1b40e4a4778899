"""Acceptance suite: one test per criterion, each at its stated tolerance.

The conftest terminal summary prints one pass/fail line per criterion after
the run.  Timing budgets are asserted with `time.monotonic` around the
relevant work only.
"""

import time

import numpy as np
import pytest

from orbitkit.catalog import (affine_l1, commuting_constants, grushin, heisenberg,
                              heisenberg_full)
from orbitkit.algebra import FlowWord, certify_h_prime, enlarge_field
from orbitkit.cli import run_scenario
from orbitkit.compose import compose_flows, compose_inverse, d_psi, psi_chart
from orbitkit.fields import estimate_lb_bound, polynomial_field
from orbitkit.flow import Control, flow_control, flow_single
from orbitkit.orbit import accessibility_verdict, invariance_residual, orbit_sample
from orbitkit.report import strip_timestamp
from orbitkit.scenario import parse_scenario
from orbitkit.space import L1Coefficients, ball

TOL = 1e-9


@pytest.fixture(scope="module")
def heis():
    return heisenberg(radius=8.0)


@pytest.fixture(scope="module")
def heis_lb(heis):
    return estimate_lb_bound(heis, ball([0, 0, 0], 8.0), 2, 50)


@pytest.fixture(scope="module")
def grush():
    return grushin(radius=4.0)


@pytest.fixture(scope="module")
def grush_lb(grush):
    return estimate_lb_bound(grush, ball([0, 0], 4.0), 2, 50)


def test_criterion_01_flow_engine_closed_forms(heis):
    start = time.monotonic()
    # translation
    trans = commuting_constants(2, 2)
    res = flow_single(trans.members[0], np.array([1.0, 1.0]), 2.5, tol=TOL)
    assert np.abs(res.endpoint - [3.5, 1.0]).max() <= 1e-6
    # linear decay
    decay = polynomial_field(ball([0.0], 10.0), [((-1.0, (1,)),)], label="decay")
    res = flow_single(decay, np.array([4.0]), np.log(2.0), tol=TOL)
    assert abs(res.endpoint[0] - 2.0) <= 1e-6
    # the switching rectangle over the shear pair
    rect = Control(pieces=(
        (0.0, 1.0, L1Coefficients(((0, 1.0),))),
        (1.0, 2.0, L1Coefficients(((1, 1.0),))),
        (2.0, 3.0, L1Coefficients(((0, -1.0),))),
        (3.0, 4.0, L1Coefficients(((1, -1.0),))),
    ))
    res = flow_control(heis, rect, np.zeros(3), 0.0, 4.0, tol=TOL)
    assert np.abs(res.endpoint - [0.0, 0.0, 1.0]).max() <= 1e-6
    # group and inverse laws, 50 randomized cases
    rng = np.random.default_rng(42)
    fields = [heis.members[0], heis.members[1], decay, trans.members[1]]
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
    assert time.monotonic() - start < 10.0


def test_criterion_02_variational_vs_finite_differences(heis, grush):
    rng = np.random.default_rng(7)
    fields = [heis.members[0], heis.members[1], grush.members[1]]
    for _ in range(20):
        X = fields[int(rng.integers(0, len(fields)))]
        dim = X.domain.center.size
        x = rng.uniform(-0.5, 0.5, dim)
        t = float(rng.uniform(0.1, 0.7))
        V = flow_single(X, x, t, tol=TOL, tangents=np.eye(dim)).tangents
        h = 1e-6 * (1.0 + float(np.linalg.norm(x)))
        fd = np.zeros_like(V)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd[:, j] = (flow_single(X, x + e, t, tol=TOL).endpoint
                        - flow_single(X, x - e, t, tol=TOL).endpoint) / (2 * h)
        scale = max(1.0, float(np.abs(V).max()))
        assert np.abs(V - fd).max() <= 1e-4 * scale


def test_criterion_03_l1_composition_tail_bounds():
    start = time.monotonic()
    fam = affine_l1(24, 24, decay=1.0, radius=6.0)
    lb = estimate_lb_bound(fam, fam.common_domain, 2, 50)
    tau = L1Coefficients(tuple((i, 2.0 ** -i) for i in range(24)))
    x = np.zeros(24)
    exact = np.array([2.0 ** -i for i in range(24)])
    for n in (4, 8, 12, 16, 20):
        res = compose_flows(fam, lb, tau, x, tol=TOL, truncation_n=n)
        err = float(np.sum(np.abs(res.endpoint - exact)))
        assert err <= res.tail_error_bound
    full = compose_flows(fam, lb, tau, x, tol=TOL)
    assert np.abs(full.endpoint - exact).max() <= 1e-9
    back = compose_inverse(fam, lb, tau, full.endpoint, tol=TOL)
    assert np.abs(back.endpoint - x).max() <= 1e-7
    assert time.monotonic() - start < 5.0


def test_criterion_04_switching_path_equivalence(heis, heis_lb, grush, grush_lb):
    rng = np.random.default_rng(11)
    for fam, lb, dim in ((heis, heis_lb, 3), (grush, grush_lb, 2)):
        for _ in range(10):
            pairs = [(i, float(rng.uniform(-0.15, 0.15))) for i in range(len(fam.members))]
            tau = L1Coefficients.from_pairs(pairs)
            x = rng.uniform(-0.3, 0.3, dim)
            a = compose_flows(fam, lb, tau, x, tol=TOL, path="control").endpoint
            b = compose_flows(fam, lb, tau, x, tol=TOL, path="sequential").endpoint
            assert np.abs(a - b).max() <= 10 * TOL * (1 + np.abs(a).max())


def test_criterion_05_chart_differential(heis, heis_lb):
    # directional derivatives against finite differences
    rng = np.random.default_rng(13)
    x = np.array([0.05, -0.05, 0.1])
    h = 1e-5
    for _ in range(10):
        tau = L1Coefficients.from_pairs([(0, float(rng.uniform(-0.1, 0.1))),
                                         (1, float(rng.uniform(-0.1, 0.1)))])
        sigma = L1Coefficients.from_pairs([(0, float(rng.uniform(-1, 1))),
                                           (1, float(rng.uniform(-1, 1)))])
        base = psi_chart(heis, heis_lb, x, tau, tol=TOL)
        bump = psi_chart(heis, heis_lb, x, tau.combine(sigma, 1.0, h), tol=TOL)
        fd = (bump - base) / h
        an = d_psi(heis, heis_lb, x, tau, sigma, tol=TOL)
        scale = max(1.0, float(np.abs(an).max()))
        assert np.abs(fd - an).max() <= 1e-4 * scale
    # at the zero parameter the differential is the raw field evaluation
    for alpha in (0, 1):
        got = d_psi(heis, heis_lb, x, L1Coefficients(()), L1Coefficients(((alpha, 1.0),)))
        assert np.array_equal(got, heis.members[alpha](x))


def test_criterion_06_enlargement_conjugation(heis, heis_lb):
    ftol = 1e-8
    rng = np.random.default_rng(17)
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
    # idempotence: re-enlarging composes words and multiplies scales
    w1, w2 = FlowWord(((0, 0.5),)), FlowWord(((1, 0.3),))
    inner = enlarge_field(heis, w1, 1, 2.0, heis_lb, tol=ftol)
    outer = enlarge_field(heis, w2, inner, 1.5, heis_lb, tol=ftol)
    direct = enlarge_field(heis, w1.then(w2), 1, 3.0, heis_lb, tol=ftol)
    for _ in range(5):
        x = rng.uniform(-0.3, 0.3, 3)
        assert np.abs(outer(x) - direct(x)).max() <= 10 * ftol * (1 + np.abs(direct(x)).max())


def test_criterion_07_bracket_chains_and_verdicts(heis, grush):
    start = time.monotonic()
    v = accessibility_verdict(heis, np.zeros(3), 3)
    assert v.kind == "exactly_controllable"
    assert v.rank_profile == (2, 3)
    v = accessibility_verdict(grush, np.zeros(2), 3)
    assert v.kind == "exactly_controllable"
    assert v.rank_profile == (1, 2)
    fam = commuting_constants(3, 2)
    v = accessibility_verdict(fam, np.zeros(3), 3)
    assert v.kind == "rank_deficient"
    assert v.final_rank == 2
    assert time.monotonic() - start < 2.0


def test_criterion_08_structure_constant_certification(heis):
    fam = commuting_constants(3, 2)
    rep = certify_h_prime(fam, fam.common_domain, grid_size=3, tol=1e-8)
    assert rep.certified and rep.bound_C == 0.0
    rep = certify_h_prime(heis, ball([0, 0, 0], 0.5), grid_size=3, tol=1e-8)
    assert not rep.certified
    assert rep.residuals.max() >= 0.5
    full = heisenberg_full()
    rep = certify_h_prime(full, ball([0, 0, 0], 0.5), grid_size=3, tol=1e-8)
    assert rep.certified
    pair_idx = rep.pairs.index((0, 1))
    assert np.abs(rep.coefficients[:, pair_idx, 2] - 1.0).max() <= 1e-8


def test_criterion_09_invariance_residual_both_ways(grush, grush_lb):
    fam = commuting_constants(3, 2)
    lb = estimate_lb_bound(fam, fam.common_domain, 2, 20)
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = rng.uniform(-0.5, 0.5, 3)
        idx = int(rng.integers(0, 2))
        t = float(rng.uniform(-0.5, 0.5))
        rep = invariance_residual(fam, x, idx, t, lb)
        assert rep.max_residual <= 1e-5
    rep = invariance_residual(grush, np.array([0.3, 0.0]), 0, -0.3, grush_lb)
    assert rep.max_residual > 0.1


def test_criterion_10_orbit_density_proxy(grush_lb):
    start = time.monotonic()
    fam = heisenberg(radius=8.0)
    lb = estimate_lb_bound(fam, ball([0, 0, 0], 8.0), 2, 50)
    samp = orbit_sample(fam, lb, np.zeros(3), budget=5000, max_word_len=60,
                        rng_seed=2026, exploration_radius=0.8)
    pts = samp.points()
    edges = np.linspace(-0.5, 0.5, 6)
    occupied = set()
    for p in pts:
        if np.all(p >= -0.5) and np.all(p <= 0.5):
            occupied.add(tuple(np.clip(np.searchsorted(edges, p, "right") - 1, 0, 4)))
    coverage = len(occupied) / 125.0
    assert coverage >= 0.95
    gfam = grushin(radius=9.0)
    glb = estimate_lb_bound(gfam, ball([0, 0], 9.0), 2, 50)
    gs = orbit_sample(gfam, glb, np.zeros(2), budget=3000, max_word_len=12,
                      rng_seed=11, exploration_radius=1.0)
    gp = gs.points()
    assert (gp[:, 0] < -1e-9).sum() > 100
    assert (gp[:, 0] > 1e-9).sum() > 100
    assert float((np.abs(gp[:, 1]) > 0.1).mean()) > 0.2
    assert time.monotonic() - start < 60.0


DETERMINISM_SCENARIO = """\
version 1
family {
  builtin heisenberg {
    radius 8
  }
}
lb {
  order 2
}
defaults {
  tol 1e-09
  seed 42
}
command verdict {
  point 0 0 0
  k-max 3
}
command compose {
  point 0 0 0
  entry 0 0.2
  entry 1 -0.1
}
command orbit-sample {
  point 0 0 0
  budget 200
  max-word-len 12
  out cloud.txt
  spot-check on
}
command certify-hprime {
  grid 3
  tolerance 1e-08
}
"""


def test_criterion_11_deterministic_reports(tmp_path):
    sc = parse_scenario(DETERMINISM_SCENARIO)
    assert run_scenario(sc, tmp_path / "a") == 0
    assert run_scenario(sc, tmp_path / "b") == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files
    for name in files:
        ta = strip_timestamp((tmp_path / "a" / name).read_text())
        tb = strip_timestamp((tmp_path / "b" / name).read_text())
        assert ta == tb
