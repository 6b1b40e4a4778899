"""Brackets, flow-conjugated enlargement, and structure-constant checks.

Run:  python3 demos/03_brackets_and_enlargement.py
"""

import numpy as np

from orbitkit import (FlowWord, ball, certify_h_prime, enlarge_field,
                      estimate_lb_bound, flow_single, lie_bracket,
                      lie_bracket_via_flows)
from orbitkit.catalog import commuting_constants, heisenberg, heisenberg_full

fam = heisenberg(radius=8.0)
lb = estimate_lb_bound(fam, fam.common_domain, 2, 50)
x = np.array([0.3, -0.2, 0.1])

b_an = lie_bracket(fam.members[0], fam.members[1], x)
b_fl = lie_bracket_via_flows(fam.members[0], fam.members[1], x)
print(f"bracket analytic {np.round(b_an, 8)} vs flow-limit {np.round(b_fl, 8)}")

# Enlargement: push the shear member through a unit translation.  Both
# members are polynomial, so the pushforward is the Lie series
# X2 - [X1, X2] = (0, 1, x - 1), a tabled field of its own; the conjugation
# identity ties its flow to the conjugated flow of the base, computed here
# independently from the flows of the members.
word = FlowWord(((0, 1.0),))
Y = enlarge_field(fam, word, 1, 1.0, lb)
print(f"enlarged field at (0.5,0,0): {np.round(Y(np.array([0.5, 0, 0])), 8)} "
      f"(member of the enlargement: {Y.in_enlargement}, screen jet {Y.screen_jet:.3f})")
print(f"tabled by its Lie series: {Y.table is not None} ({len(Y.table.exponents)} monomials)")
t = 0.25
lhs = flow_single(Y, x, t, tol=1e-8).endpoint
rhs = word.apply(fam, flow_single(fam.members[1], word.inverse().apply(fam, x), t).endpoint)
print(f"conjugation defect: {np.abs(lhs - rhs).max():.2e}")

# Structure constants: do brackets close over the family?
cc = commuting_constants(3, 2)
rep = certify_h_prime(cc, cc.common_domain, grid_size=3)
print(f"commuting family: certified={rep.certified}, C={rep.bound_C}")
rep = certify_h_prime(fam, ball([0, 0, 0], 0.5), grid_size=3)
print(f"shear pair alone: certified={rep.certified}, max residual "
      f"{rep.residuals.max():.3f}")
rep = certify_h_prime(heisenberg_full(), ball([0, 0, 0], 0.5), grid_size=3)
print(f"with the vertical field: certified={rep.certified}, C={rep.bound_C}")
