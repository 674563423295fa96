"""Measurement tools: densities, energy split, norms, window masses, peaks."""

from __future__ import annotations

import numpy as np

from .grid import ComplexField, Grid, RealField, hs_seminorm, l2_norm, require_same_grid
from .operators import FractionalOrder

__all__ = [
    "position_density",
    "state_observables",
    "energy",
    "composite_norm",
    "window_mass",
    "count_local_maxima",
]


def position_density(u: ComplexField) -> RealField:
    """Pointwise density |u|^2."""
    return RealField(u.grid, np.abs(u.values) ** 2)


# complex values per stacked FFT block: 2**14 * 16 bytes = 256 KB
BLOCK_VALUES = 2**14


def state_observables(grid: Grid, states, p_values: np.ndarray, s: float):
    """Arrays (mass, hs_part, potential_part, energy), one entry per state.

    states is a 2-D complex array with one state per row, or a list or tuple
    of complex sample arrays, on grid; p_values the potential samples.  mass
    is the L2 norm, hs_part the order-s seminorm, potential_part the L2 norm
    of sqrt(p) u, and energy the sum of the squares of the last two, which
    the exact flow conserves.

    States are taken in blocks of at most BLOCK_VALUES samples with one FFT
    per block; the blocks of a 2-D array are row slices, not copies.  Norms
    are still taken row by row and the energy is summed in Python floats, so
    every value is bit-identical to l2_norm, hs_seminorm and the same
    formulas applied to one state at a time.
    """
    weights = grid.wavenumber_power(s)
    root_dx = np.sqrt(grid.dx)
    count = len(states)
    mass, hs_part, potential_part = np.empty(count), np.empty(count), np.empty(count)
    rows = max(1, BLOCK_VALUES // grid.n)
    for start in range(0, count, rows):
        block = np.asarray(states[start:start + rows])
        weighted = weights * np.fft.fft(block, axis=-1, norm="ortho")
        potential_part[start:start + len(block)] = np.sqrt(
            grid.dx * np.sum(p_values * np.abs(block) ** 2, axis=-1))
        for j, (row, weighted_row) in enumerate(zip(block, weighted), start):
            mass[j] = root_dx * np.linalg.norm(row)
            hs_part[j] = root_dx * np.linalg.norm(weighted_row)
    # Python's float ** 2 (libm pow) and numpy's square differ in the last bit
    # for about one value in a thousand
    total = np.array([h**2 + v**2 for h, v in zip(hs_part.tolist(), potential_part.tolist())])
    return mass, hs_part, potential_part, total


def energy(u: ComplexField, p, order: FractionalOrder):
    """Energy split (hs_part, potential_part, total) of one state.

    p may be a RealField of samples or a RegularizedPotential wrapping one.
    The formulas are those of state_observables.
    """
    samples = getattr(p, "field", p)
    require_same_grid(u, samples)
    _, hs_part, potential_part, total = state_observables(
        u.grid, (u.values,), samples.values, order.s)
    return float(hs_part[0]), float(potential_part[0]), float(total[0])


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
