"""Bracket chains, invariance residuals, and controllability verdicts.

Run:  python3 demos/04_reachability_verdicts.py
"""

import numpy as np

from orbitkit import (accessibility_verdict, bracket_chain, distribution_at,
                      estimate_lb_bound, invariance_residual)
from orbitkit.catalog import affine_l1, commuting_constants, grushin, heisenberg

for name, fam, x in (("heisenberg", heisenberg(), np.zeros(3)),
                     ("grushin", grushin(), np.zeros(2)),
                     ("commuting span-2", commuting_constants(3, 2), np.zeros(3))):
    chain = bracket_chain(fam, x, 3)
    v = accessibility_verdict(fam, x, 3)
    print(f"{name:18s} ranks {chain.rank_profile} -> {v.kind}")

# The degenerate line of the plane pair: rank drops, and pushing the basis
# back onto the line exposes the non-invariance of the raw two-field span.
gr = grushin()
glb = estimate_lb_bound(gr, gr.common_domain, 2, 30)
print(f"rank at (0,1): {distribution_at(gr, np.array([0.0, 1.0])).rank}, "
      f"rank at (1,0): {distribution_at(gr, np.array([1.0, 0.0])).rank}")
rep = invariance_residual(gr, np.array([0.3, 0.0]), 0, -0.3, glb)
print(f"pushed-span residual into the degenerate line: {rep.max_residual:.3f} "
      f"(ranks {rep.rank_source} -> {rep.rank_target})")

# A family that never saturates its chart but keeps gaining rank as more of
# the countable family is admitted: the asymptotic-density heuristic.
fam = affine_l1(30, 10, decay=0.5, radius=6.0)
v = accessibility_verdict(fam, np.zeros(30), 2)
print(f"truncated summable family: {v.kind}, ranks across truncations "
      f"{v.truncation_ranks}")
