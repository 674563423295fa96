"""Fourier-side operators: the fractional order, fractional Laplacian, free flow.

Both operators act diagonally on spectral coefficients (symbol |xi|^(2s)).
The time convention throughout the package is i u_t = [(-Delta)^s + p] u,
so the free flow multiplies coefficient k by exp(-i |xi_k|^(2s) t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ComplexField

__all__ = [
    "FractionalOrder",
    "fractional_laplacian",
    "free_propagator",
]


@dataclass(frozen=True)
class FractionalOrder:
    """Dispersion exponent s of the symbol |xi|^(2s); s = 1 is the Laplacian."""

    s: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.s) and 0.0 < self.s <= 2.0):
            raise ValueError(f"order must satisfy 0 < s <= 2, got {self.s}")


def fractional_laplacian(f: ComplexField, order: FractionalOrder) -> ComplexField:
    """Apply (-Delta)^s through the spectral symbol |xi|^(2s)."""
    symbol = f.grid.wavenumber_power(2.0 * order.s)
    return ComplexField(f.grid, np.fft.ifft(symbol * np.fft.fft(f.values)))


def free_propagator(f: ComplexField, t: float, order: FractionalOrder) -> ComplexField:
    """Exact zero-potential flow: coefficient k picks up exp(-i |xi_k|^(2s) t).

    Negative t runs the flow backwards; the map is unitary for every t.
    """
    if not np.isfinite(t):
        raise ValueError(f"time must be finite, got {t}")
    symbol = f.grid.wavenumber_power(2.0 * order.s)
    return ComplexField(f.grid, np.fft.ifft(np.exp(-1j * symbol * t) * np.fft.fft(f.values)))
