"""Numerical laboratory for a dispersive flow with bump-regularized potentials.

The package is organized bottom-up:

* grid: uniform periodic grids, fields, norms, spectral transforms
* mollifier: the standard smooth bump, discrete smoothing, potential families
* operators: fractional Laplacian, free propagator, potential phase
* observables: densities, energy split, composite norms, window masses
* solver: Crank-Nicolson and Strang-splitting time steppers
* harness: sweeps, perturbation and convergence studies, CSV/figure output
* cli: the fracschrod command
"""

from .grid import (
    ComplexField,
    Grid,
    RealField,
    hs_seminorm,
    inner_product,
    inverse_spectral,
    l2_norm,
    make_grid,
    require_same_grid,
    spectral_coefficients,
)
from .mollifier import (
    HARMONIC_CENTER,
    POTENTIAL_KINDS,
    REGULAR_KINDS,
    SINGULAR_KINDS,
    PotentialSpec,
    RegularizedPotential,
    bump_normalization,
    friedrichs_mollifier,
    moderateness_exponent,
    mollify_samples,
    regularize_potential,
    scaled_mollifier,
    sup_norm,
)
from .observables import (
    composite_norm,
    count_local_maxima,
    energy,
    position_density,
    window_mass,
)
from .operators import (
    FractionalOrder,
    fractional_laplacian,
    free_propagator,
    potential_phase,
)
from .solver import (
    BACKENDS,
    NumericalAbort,
    SolverConfig,
    Trajectory,
    cn_step,
    initial_datum,
    simulate,
    solve_tridiagonal,
    strang_step,
)
from .harness import (
    DEFAULT_EPSILONS,
    ConsistencyReport,
    EnergyScalingReport,
    ExperimentConfig,
    SweepRecord,
    SweepReport,
    UniquenessReport,
    config_hash,
    consistency_experiment,
    default_perturbation,
    delta_squared_energy_scaling,
    emit_figure_data,
    epsilon_sweep,
    single_run,
    uniqueness_experiment,
)

__version__ = "0.1.0"
