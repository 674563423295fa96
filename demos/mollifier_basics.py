"""Tour of the smoothing kernel and the regularized potential families.

Shows the normalized bump kernel, how shrinking the width trades support
for height at constant mass, and what the two singular potential models
look like once sampled on a grid.
"""

import numpy as np

from fracschrod.grid import make_grid
from fracschrod.mollifier import (
    PotentialSpec,
    friedrichs_mollifier,
    mollify_samples,
    regularize_potential,
    scaled_mollifier,
    sup_norm,
)

grid = make_grid(2.0, 4.0, 2048)

print("== the kernel ==")
y = np.array([0.0, 0.5, 0.9, 1.0])
for yi, vi in zip(y, friedrichs_mollifier(y)):
    print(f"  kernel({yi:+.1f}) = {vi:.6f}")

print("\n== width scaling at constant mass ==")
for eps in (0.8, 0.4, 0.2, 0.1, 0.05):
    f = scaled_mollifier(grid, eps, center=3.0)
    mass = grid.dx * np.sum(f.values)
    print(f"  eps = {eps:<5} peak = {sup_norm(f):8.3f}  mass = {mass:.9f}")

print("\n== singular potential families (site x = 3, weight 1/30) ==")
for kind in ("delta", "delta_squared"):
    spec = PotentialSpec(kind)
    for eps in (0.2, 0.1, 0.05):
        p = regularize_potential(spec, grid, eps)
        mass = grid.dx * np.sum(p.field.values)
        print(f"  {kind:14s} eps = {eps:<5} sup = {sup_norm(p.field):9.4f}"
              f"  l1 mass = {mass:.6f}")

print("\n== smoothing noisy samples ==")
rng = np.random.default_rng(7)
noisy = np.sin(grid.nodes) + 0.3 * rng.standard_normal(grid.n)
for eps in (0.05, 0.2):
    smooth = mollify_samples(noisy, grid, eps)
    resid = np.std(smooth - np.sin(grid.nodes))
    print(f"  eps = {eps:<5} residual std after smoothing = {resid:.4f}")
