"""Reachable clouds: sample orbit points by integrating random admissible
words, verify replayability, and export a plottable point cloud.

Run:  python3 demos/05_orbit_clouds.py        (writes orbit_cloud.txt)
"""

import numpy as np

from orbitkit import ball, estimate_lb_bound, orbit_sample, slice_grid, spot_check_sample
from orbitkit.catalog import heisenberg
from orbitkit.report import write_point_cloud

fam = heisenberg(radius=8.0)
lb = estimate_lb_bound(fam, ball([0, 0, 0], 8.0), 2, 50)

samp = orbit_sample(fam, lb, np.zeros(3), budget=3000, max_word_len=40,
                    rng_seed=2026, exploration_radius=0.6)
pts = samp.points()
print(f"cloud: {pts.shape[0]} points, leg cap {samp.d_max:.3f}")
print(f"bounding box: {np.round(pts.min(0), 3)} .. {np.round(pts.max(0), 3)}")

gap = spot_check_sample(fam, samp)
print(f"replay spot check (5% of words): max gap {gap:.2e}")

write_point_cloud("orbit_cloud.txt", pts)
print("wrote orbit_cloud.txt (header + one point per row; plot with any tool)")

# A parameter slice through the same point: a local surface inside the cloud.
sl = slice_grid(fam, lb, np.zeros(3), rho=0.3, grid_per_axis=5, axes=[0, 1])
d = max(np.linalg.norm(pts - p, axis=1).min() for p in sl.points)
print(f"slice of {sl.points.shape[0]} points, rank at zero {sl.jacobian_rank_at_zero}; "
      f"every slice point within {d:.3f} of the cloud")
