"""Controlled flows: integrate coefficient-weighted field combinations with
existence guards and first-order sensitivities, carried as tangent columns,
from one start point or a stack of them.

Run:  python3 demos/01_controlled_flows.py
"""

import numpy as np

from orbitkit import (Control, FlowWord, L1Coefficients, ball, estimate_lb_bound,
                      flow_control, flow_single, guard, run_words)
from orbitkit.catalog import heisenberg

fam = heisenberg(radius=8.0)
lb = estimate_lb_bound(fam, ball([0, 0, 0], 8.0), 2, 100)
print(f"family: {fam.labels()}, jet bound k = {lb.bound_k:.4f} ({lb.method})")

# The guard: how long may we flow before the conservative radius runs out?
# A control is its pieces; flow_control enforces this same guard itself.
u = Control(pieces=((0.0, 10.0, L1Coefficients(((0, 1.0),))),))
cert = guard(lb, np.zeros(3), u.sup_norm, T0=0.3)
print(f"guard at T0=0.3: satisfied={cert.satisfied}, margin={cert.margin:.4f} "
      f"(r={cert.r}, c={cert.c})")

# A switching rectangle: out along the first axis, up along the shear,
# then back: the endpoint remembers the enclosed area in the vertical slot.
rect = Control(pieces=(
    (0.0, 1.0, L1Coefficients(((0, 1.0),))),
    (1.0, 2.0, L1Coefficients(((1, 1.0),))),
    (2.0, 3.0, L1Coefficients(((0, -1.0),))),
    (3.0, 4.0, L1Coefficients(((1, -1.0),))),
))
# Carrying the identity block gives the variational matrix.
res = flow_control(fam, rect, np.zeros(3), 0.0, 4.0, tangents=np.eye(3),
                   lb=lb, unsafe=True)
print(f"rectangle endpoint: {np.round(res.endpoint, 9)}  (steps: {res.steps_taken})")
print("endpoint sensitivity to the start point:")
print(np.round(res.tangents, 6))

# A stack of start points runs as one integration whose rows share a step
# sequence; each row here carries one tangent vector.  run_words runs a word
# from every row the same way, one stack per letter, and returns each row's
# path, the error that stopped it (None here) and its carried tangents.
starts = np.array([[0.0, 0.0, 0.0], [0.5, -0.5, 0.2], [1.0, 1.0, -1.0]])
e1 = np.tile([1.0, 0.0, 0.0], (3, 1))
stack = flow_single(fam.members[1], starts, 1.0, tangents=e1)
print(f"stacked endpoints:\n{np.round(stack.endpoint, 6)}")
print(f"pushed e1 per row:\n{np.round(stack.tangents, 6)}")
paths, stops, pushed = run_words(fam, [FlowWord(((0, 0.5), (1, 0.5)))] * 3, starts, tangents=e1)
print(f"a two-letter word pushes e1 to:\n{np.round(pushed, 6)}")

# Single-field convenience: negative time runs the reversed field.
mid = flow_single(fam.members[0], np.zeros(3), 1.7).endpoint
back = flow_single(fam.members[0], mid, -1.7).endpoint
print(f"there-and-back drift: {np.abs(back).max():.2e}")
