"""Summable-coefficient flow compositions: walk an indexed family one field
at a time, certify the truncation error, and invert the walk.

Run:  python3 demos/02_switching_compositions.py
"""

import numpy as np

from orbitkit import (L1Coefficients, compose_flows, compose_inverse, d_psi,
                      estimate_lb_bound, gamma_control)
from orbitkit.catalog import affine_l1, heisenberg

# A commuting family of unit directions on a 24-coordinate truncated chart.
fam = affine_l1(24, 24, decay=1.0, radius=6.0)
lb = estimate_lb_bound(fam, fam.common_domain, 2, 50)
tau = L1Coefficients(tuple((i, 2.0 ** -i) for i in range(24)))
print(f"coefficient mass: {tau.norm1:.8f}, smallness limit r/k = "
      f"{3.0 / lb.bound_k:.2f}")

g = gamma_control(tau)
print(f"switching control: {len(g.pieces)} pieces over [0, {g.l1_norm:.6f}]")

for n in (4, 8, 16):
    res = compose_flows(fam, lb, tau, np.zeros(24), truncation_n=n)
    exact = np.array([2.0 ** -i for i in range(24)])
    err = np.sum(np.abs(res.endpoint - exact))
    print(f"truncation {n:2d}: measured error {err:.3e} <= certified bound "
          f"{res.tail_error_bound:.3e}")

full = compose_flows(fam, lb, tau, np.zeros(24))
back = compose_inverse(fam, lb, tau, full.endpoint)
print(f"round trip defect: {np.abs(back.endpoint).max():.2e}")

# Order matters for non-commuting families: the chart differential sees it.
heis = heisenberg(radius=8.0)
hlb = estimate_lb_bound(heis, heis.common_domain, 2, 50)
x = np.array([0.05, -0.05, 0.1])
sigma = L1Coefficients(((0, 1.0),))
v0 = d_psi(heis, hlb, x, L1Coefficients(()), sigma)
v1 = d_psi(heis, hlb, x, L1Coefficients(((1, 0.2),)), sigma)
print(f"chart differential at zero parameter: {np.round(v0, 8)}")
print(f"          after a shear-leg prefix:   {np.round(v1, 8)}")
