"""Uniform periodic grids, fields, and the discrete L2 norm and Sobolev seminorm.

Everything downstream (mollifiers, operators, time steppers, observables)
lives on a uniform one-dimensional grid whose resolution is a power of two,
so the FFT wavenumber ladder is always available.  The right endpoint is
identified with the left one: nodes are x_j = x_min + j*dx for j = 0..n-1
with dx = (x_max - x_min)/n, and every node carries quadrature weight dx.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "ComplexField",
    "RealField",
    "make_grid",
    "l2_norm",
    "hs_seminorm",
    "require_same_grid",
    "require_inside",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [x_min, x_max) with periodic identification; n is a power of two."""

    x_min: float
    x_max: float
    n: int

    def __post_init__(self) -> None:
        if not (np.isfinite(self.x_min) and np.isfinite(self.x_max)):
            raise ValueError("grid endpoints must be finite")
        if self.x_max <= self.x_min:
            raise ValueError(
                f"empty domain: x_max={self.x_max} must exceed x_min={self.x_min}"
            )
        # power of two keeps the transform ladder exact for the spectral backend;
        # make_grid converts a whole float n
        if (not isinstance(self.n, (int, np.integer)) or self.n < 8
                or (self.n & (self.n - 1)) != 0):
            raise ValueError(f"n must be an integer power of two >= 8, got {self.n!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def nodes(self) -> np.ndarray:
        return _readonly(self.x_min + self.dx * np.arange(self.n))

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        """Signed ladder 2*pi*k/L in FFT order; the Nyquist mode sits at -pi*n/L."""
        return _readonly(2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx))

    def wavenumber_power(self, s: float) -> np.ndarray:
        """|xi|**s on the wavenumber ladder, a fresh array per call."""
        if not np.isfinite(s) or s < 0:
            raise ValueError(f"order must be a finite nonnegative real, got {s}")
        return np.abs(self.wavenumbers) ** s


@dataclass(frozen=True)
class _Field:
    """Samples of the class's dtype on a grid, checked finite and frozen.

    An array that already has the class's dtype becomes values itself, not
    a copy, and is frozen in place, so the caller's array turns read-only;
    any other input (a list, a float array for ComplexField) is converted
    into a new array and the caller's stays writeable.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=self._dtype)
        if v.shape != (self.grid.n,):
            raise ValueError(f"expected {self.grid.n} samples, got shape {v.shape}")
        if not np.all(np.isfinite(v)):  # both parts of a complex sample
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _readonly(v))


class ComplexField(_Field):
    """Complex samples on a grid.  Values are frozen after construction.

    A complex array is frozen in place and kept as the values; a float
    array is copied into a new complex one (see _Field).
    """

    _dtype = complex

    @classmethod
    def from_checked(cls, grid: Grid, values: np.ndarray) -> ComplexField:
        """Wrap samples the caller has already checked, skipping the validation scan.

        values must be a finite complex array of shape (grid.n,); it is frozen
        in place, not copied.
        """
        field = object.__new__(cls)
        object.__setattr__(field, "grid", grid)
        object.__setattr__(field, "values", _readonly(values))
        return field


class RealField(_Field):
    """Real samples on a grid (potentials, densities)."""

    _dtype = float


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Validated constructor for a uniform periodic grid; n must be a whole number."""
    if not float(n).is_integer():
        raise ValueError(f"n must be a whole number of nodes, got {n}")
    return Grid(float(x_min), float(x_max), int(n))


def require_same_grid(a, b) -> None:
    if a.grid != b.grid:
        raise ValueError("fields live on different grids")


def require_inside(grid: Grid, center: float, radius: float, what: str) -> None:
    """Raise unless [center - radius, center + radius] lies in the domain; ends may touch."""
    # a bump cut by an end would jump across the periodic seam
    if center - radius < grid.x_min or center + radius > grid.x_max:
        raise ValueError(f"{what} support [{center - radius}, {center + radius}] falls "
                         f"outside the domain [{grid.x_min}, {grid.x_max})")


def l2_norm(f) -> float:
    """Discrete L2 norm sqrt(dx * sum |f_j|^2)."""
    return float(np.sqrt(f.grid.dx) * np.linalg.norm(f.values))


def hs_seminorm(f: ComplexField, s: float) -> float:
    """Sobolev seminorm of order s: the L2 norm of |xi|^s times the coefficients.

    Computed entirely in coefficient space.  s = 0 reduces to the L2 norm;
    by Plancherel the result is consistent with l2_norm to machine precision.
    """
    weights = f.grid.wavenumber_power(s)
    coeffs = np.fft.fft(f.values, norm="ortho")
    return float(np.sqrt(f.grid.dx) * np.linalg.norm(weights * coeffs))
