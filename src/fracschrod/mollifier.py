"""Friedrichs bump mollifiers and regularized singular potentials.

The bump phi(x) = c * exp(1/(x^2 - 1)) on |x| < 1 (zero outside) is scaled to
unit mass; the net phi_eps(x) = phi(x/eps)/eps concentrates it while keeping
the mass.  Delta-like potentials are modeled by weighted scaled bumps, the
squared-delta kind by the square of the scaled bump.  A RegularizedPotential
is only a width and its samples, not the PotentialSpec that made them.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, RealField, require_inside

__all__ = [
    "POTENTIAL_KINDS",
    "REGULAR_KINDS",
    "SINGULAR_KINDS",
    "PotentialSpec",
    "RegularizedPotential",
    "bump",
    "bump_normalization",
    "friedrichs_mollifier",
    "scaled_mollifier",
    "mollify_samples",
    "regularize_potential",
    "sup_norm",
    "moderateness_exponent",
]

REGULAR_KINDS = ("zero", "constant_one", "harmonic_shifted")
SINGULAR_KINDS = ("delta", "delta_squared")
POTENTIAL_KINDS = REGULAR_KINDS + SINGULAR_KINDS

PACKET_CENTER = 5.0  # the initial packet's center, where the harmonic profile is pinned


def bump(y, radius: float = 1.0) -> np.ndarray:
    """exp(1/(y^2 - radius^2)) for |y| < radius, zero elsewhere, as floats."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    inside = np.abs(y) < radius
    out[inside] = np.exp(1.0 / (y[inside] ** 2 - radius**2))
    return out


def bump_normalization() -> float:
    """Constant c giving unit mass to c*exp(1/(x^2-1)); about 2.2523.

    The literal is 1 over the integral of bump on (-1, 1) by the 200-node
    Gauss-Legendre rule (numpy's leggauss), bit for bit (0x1.204ad466d96b2p+1);
    adaptive quadrature (scipy's quad at tolerance 1e-13) gives
    2.2522836210435817, a relative difference of 6e-15.
    """
    return 2.252283621043568


def friedrichs_mollifier(y):
    """Pointwise bump c*exp(1/(y^2-1)) for |y| < 1, zero elsewhere."""
    return bump_normalization() * bump(y)


def scaled_mollifier(grid: Grid, epsilon: float, center: float = 0.0) -> RealField:
    """Samples of phi_eps(x - center) = phi((x - center)/eps)/eps on the grid."""
    _check_epsilon(epsilon)
    require_inside(grid, center, epsilon, "bump")
    values = friedrichs_mollifier((grid.nodes - center) / epsilon) / epsilon
    return RealField(grid, values)


def mollify_samples(values, grid: Grid, epsilon: float):
    """Discrete mollification: convolve samples with the scaled bump kernel.

    The kernel is renormalized per node over the in-range window (zero padding
    outside the array), so constants are reproduced exactly everywhere and
    nonnegativity is preserved.
    """
    _check_epsilon(epsilon)
    values = np.asarray(values)
    if values.shape != (grid.n,):
        raise ValueError(f"expected {grid.n} samples, got shape {values.shape}")
    half = int(np.floor(epsilon / grid.dx))
    offsets = grid.dx * np.arange(-half, half + 1)
    kernel = friedrichs_mollifier(offsets / epsilon)
    # the centred n samples of the full convolution; mode="same" would return
    # len(kernel) samples when the kernel is longer than the grid
    smoothed = np.convolve(values, kernel)[half:half + grid.n]
    window = np.convolve(np.ones(grid.n), kernel)[half:half + grid.n]
    return smoothed / window


@dataclass(frozen=True)
class PotentialSpec:
    """What potential to run: a regular profile or a singular model.

    site and weight only matter for the singular kinds; the harmonic profile
    is pinned to the packet center.
    """

    kind: str
    site: float = 3.0
    weight: float = 1.0 / 30.0

    def __post_init__(self):
        if self.kind not in POTENTIAL_KINDS:
            raise ValueError(
                f"unknown potential kind {self.kind!r}; expected one of {POTENTIAL_KINDS}"
            )
        if not np.isfinite(self.site):
            raise ValueError("site must be finite")
        if not (np.isfinite(self.weight) and self.weight > 0):
            raise ValueError("weight must be a positive real")

    @property
    def is_singular(self) -> bool:
        return self.kind in SINGULAR_KINDS


@dataclass(frozen=True)
class RegularizedPotential:
    """A potential sampled on a grid at a fixed regularization width."""

    epsilon: float
    field: RealField

    def __post_init__(self):
        _check_epsilon(self.epsilon)
        if np.min(self.field.values) < 0.0:
            raise ValueError("potential samples must be nonnegative")


def regularize_potential(spec: PotentialSpec, grid: Grid, epsilon: float) -> RegularizedPotential:
    """Sample the potential on the grid.

    Regular kinds are sampled exactly.  Singular kinds are weighted scaled
    bumps (delta) or their square (delta_squared); their support must sit
    inside the domain and hold at least one node.
    """
    _check_epsilon(epsilon)
    x = grid.nodes
    if spec.kind == "zero":
        values = np.zeros(grid.n)
    elif spec.kind == "constant_one":
        values = np.ones(grid.n)
    elif spec.kind == "harmonic_shifted":
        values = (x - PACKET_CENTER) ** 2
    else:  # the singular kinds: the weighted scaled bump, or its square
        require_inside(grid, spec.site, epsilon, "bump")
        phi = friedrichs_mollifier((x - spec.site) / epsilon)
        values = (spec.weight * phi / epsilon if spec.kind == "delta"
                  else spec.weight * (phi / epsilon) ** 2)
        if not np.any(values):
            raise ValueError(f"no node within {epsilon:g} of site {spec.site:g}: dx = {grid.dx:g}")
    return RegularizedPotential(epsilon, RealField(grid, values))


def sup_norm(field) -> float:
    """Largest sample magnitude."""
    return float(np.max(np.abs(field.values)))


def moderateness_exponent(epsilons, norms):
    """Least-squares slope N of log(norm) against log(1/eps).

    Returns (slope, rms_residual).  A slope N means the norms grow like
    eps^(-N).  Raises on nonpositive norms; callers should treat an all-zero
    net as negligible at machine scale instead of fitting it.
    """
    eps = np.asarray(epsilons, dtype=float)
    nrm = np.asarray(norms, dtype=float)
    if eps.shape != nrm.shape or eps.ndim != 1 or eps.size < 3:
        raise ValueError("need three or more (epsilon, norm) samples")
    if np.any(eps <= 0) or np.unique(eps).size != eps.size:
        raise ValueError("epsilons must be positive and distinct")
    if np.any(nrm <= 0):
        raise ValueError("norms must be positive for a log-log fit")
    t = np.log(1.0 / eps)
    y = np.log(nrm)
    slope, intercept = np.polyfit(t, y, 1)
    residual = float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))
    return float(slope), residual


def _check_epsilon(epsilon: float) -> None:
    if not (np.isfinite(epsilon) and 0 < epsilon <= 1):
        raise ValueError(f"regularization width must lie in (0, 1], got {epsilon}")
