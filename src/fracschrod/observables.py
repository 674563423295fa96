"""Measurement tools: densities, energy split, norms, window masses, peaks."""

from __future__ import annotations

import numpy as np

from .grid import ComplexField, RealField, hs_seminorm, l2_norm, require_same_grid
from .operators import FractionalOrder

__all__ = [
    "position_density",
    "energy",
    "composite_norm",
    "window_mass",
    "count_local_maxima",
]


def position_density(u: ComplexField) -> RealField:
    """Pointwise density |u|^2."""
    return RealField(u.grid, np.abs(u.values) ** 2)


def energy(u: ComplexField, p, order: FractionalOrder):
    """Energy split (hs_part, potential_part, total).

    p may be a RealField of samples or a RegularizedPotential wrapping one.
    hs_part is the order-s seminorm of u, potential_part the L2 norm of
    sqrt(p) u; the total is the sum of their squares and is conserved by the
    exact flow.
    """
    samples = getattr(p, "field", p)
    require_same_grid(u, samples)
    hs_part = hs_seminorm(u, order.s)
    potential_part = float(np.sqrt(u.grid.dx * np.sum(samples.values * np.abs(u.values) ** 2)))
    return hs_part, potential_part, hs_part**2 + potential_part**2


def composite_norm(u: ComplexField, order: FractionalOrder) -> float:
    """L2 norm plus the order-s seminorm; the moderateness yardstick."""
    return l2_norm(u) + hs_seminorm(u, order.s)


def window_mass(u: ComplexField, a: float, b: float) -> float:
    """Quadrature of |u|^2 over the half-open window [a, b).

    Half-open windows tile: masses over [a, b) and [b, c) add up exactly to
    the mass over [a, c), and [x_min, x_max) recovers the squared L2 norm.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a >= b:
        raise ValueError(f"window [{a}, {b}) is empty or unbounded")
    x = u.grid.nodes
    inside = (x >= a) & (x < b)
    return float(u.grid.dx * np.sum(np.abs(u.values[inside]) ** 2))


def count_local_maxima(density: RealField, floor: float) -> int:
    """Strict interior local maxima of the density exceeding the floor."""
    if not np.isfinite(floor) or floor < 0:
        raise ValueError("floor must be finite and nonnegative")
    d = density.values
    mid = d[1:-1]
    peaks = (mid > floor) & (mid > d[:-2]) & (mid > d[2:])
    return int(np.count_nonzero(peaks))
