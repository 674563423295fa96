"""A wave packet meeting a narrow bump barrier: mass piles up at the site.

Runs the finite-difference backend at the standard resolution with the
bump-shaped barrier at x = 3 and prints how much probability mass sits in
a window around the site as time advances.  The packet starts centered at
x = 5 with support disjoint from the barrier, so the window starts empty.
"""

import numpy as np

from fracschrod.grid import make_grid
from fracschrod.mollifier import PotentialSpec, regularize_potential
from fracschrod.observables import window_mass
from fracschrod.solver import SolverConfig, initial_datum, simulate

grid = make_grid(0.0, 10.0, 1024)
u0 = initial_datum(grid)
potential = regularize_potential(PotentialSpec("delta"), grid, 0.05)
config = SolverConfig(backend="crank_nicolson", dt=0.0107, t_end=0.2996)

trajectory = simulate(u0, potential, config)

print("barrier window [2.7, 3.3), packet window [4.5, 5.5)")
print(f"{'t':>8} {'barrier mass':>14} {'packet mass':>14} {'total mass':>12}")
for i, t in enumerate(trajectory.times):
    if i % 4 and i != len(trajectory.times) - 1:
        continue
    state = trajectory.states[i]
    barrier = window_mass(state, 2.7, 3.3)
    packet = window_mass(state, 4.5, 5.5)
    print(f"{t:8.4f} {barrier:14.3e} {packet:14.3e} {trajectory.mass[i]**2:12.6e}")

drift = np.max(np.abs(trajectory.mass - trajectory.mass[0])) / trajectory.mass[0]
print(f"\nrelative mass drift over the run: {drift:.2e}")
print("the barrier window fills even though the supports start disjoint")
