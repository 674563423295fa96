"""The two integrators side by side on the shifted harmonic potential.

Both backends are second order: a finite-difference Crank-Nicolson scheme
with a tridiagonal sweep, and a Strang-split spectral stepper.  This script
compares their final states at matched resolution, shows both converging
at order 2 under simultaneous step/grid refinement, and compares their
conservation behaviour.
"""

import numpy as np

from fracschrod.grid import ComplexField, l2_norm, make_grid
from fracschrod.mollifier import PotentialSpec, regularize_potential
from fracschrod.solver import BACKENDS, SolverConfig, initial_datum, simulate

T_END = 0.214
DT = 0.0107


def run(backend, n, dt, smooth_packet=False):
    grid = make_grid(0.0, 10.0, n)
    if smooth_packet:
        vals = np.exp(-((grid.nodes - 5.0) ** 2) / (2 * 0.35**2))
        u0 = ComplexField(grid, vals.astype(complex))
    else:
        u0 = initial_datum(grid)
    p = regularize_potential(PotentialSpec("harmonic_shifted"), grid, 0.3)
    cfg = SolverConfig(backend=backend, dt=dt, t_end=T_END)
    return simulate(u0, p, cfg)


print("== final-state agreement at n = 1024 ==")
finals = {b: run(b, 1024, DT).states[-1] for b in BACKENDS}
grid = make_grid(0.0, 10.0, 1024)
gap = l2_norm(ComplexField(grid, finals[BACKENDS[0]].values
                           - finals[BACKENDS[1]].values))
print(f"  L2 distance between backends: {gap:.3e}")

# the order check uses a Gaussian packet: its spectral tail is already
# resolved at n = 1024, so both schemes sit in the asymptotic regime
print("\n== order check: error vs a refined reference ==")
for backend in BACKENDS:
    ref = run(backend, 4096, DT / 8, smooth_packet=True).states[-1].values[::4]
    errs = []
    for n, dt, stride in ((1024, DT, 1), (2048, DT / 2, 2)):
        final = run(backend, n, dt, smooth_packet=True).states[-1].values[::stride]
        dx = 10.0 / 1024
        errs.append(np.sqrt(dx * np.sum(np.abs(final - ref) ** 2)))
    print(f"  {backend:16s} errors {errs[0]:.3e} -> {errs[1]:.3e} "
          f"(ratio {errs[0] / errs[1]:.2f}, order 2 means about 4)")

print("\n== conservation per backend ==")
for backend in BACKENDS:
    tr = run(backend, 1024, DT)
    mass_drift = np.max(np.abs(tr.mass - tr.mass[0])) / tr.mass[0]
    energy_drift = np.max(np.abs(tr.energy - tr.energy[0])) / tr.energy[0]
    print(f"  {backend:16s} mass drift {mass_drift:.2e}  "
          f"energy drift {energy_drift:.2e}")
