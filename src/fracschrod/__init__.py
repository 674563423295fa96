"""Numerical laboratory for a dispersive flow with bump-regularized potentials.

The package root binds only __version__; import each name from the module
that defines it, whose __all__ lists its public names.  Bottom-up:

* grid: uniform periodic grids, fields, the L2 norm and Sobolev seminorm
* mollifier: the standard smooth bump, discrete smoothing, potential families
* operators: the fractional order, fractional Laplacian and free propagator
* observables: densities, energy split, composite norms, window masses
* solver: Crank-Nicolson and Strang-splitting time steppers
* harness: sweeps, perturbation and convergence studies, CSV/figure output
* cli: the fracschrod command
"""

__version__ = "0.1.0"
