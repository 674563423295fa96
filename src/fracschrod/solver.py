"""Time integration of i u_t = [(-Delta)^s + p] u on a fixed grid.

Two backends, one _STEPPERS entry each; a stepper is built from (grid,
p_values, dt, order), and SolverConfig alone holds the rules on those (so
Crank-Nicolson, which only takes s = 1, ignores order):

* crank_nicolson: Cayley stepping of the s = 1 Hamiltonian with a centered
  second difference and Dirichlet ends; the tridiagonal matrix is factored
  once per run, and each step's solve is one blocked recurrence run forward
  down the rows, then backward up them (stated in _ThomasFactor).
* spectral_strang: second-order Strang splitting (half potential phase,
  full free flow, half potential phase) on the periodic grid; works for any
  order s.

Both are unconditionally stable and preserve the discrete L2 norm up to
roundoff.  A run lands exactly on t_end by shortening the last step, as
step_plan lays out.

A run's recorded states are the rows of one read-only (n_records, n) array,
allocated before the first step; every step writes straight into the next
free row, so the stepping loop allocates no state.  Keeping one recorded
state keeps that whole array alive: copy a row to hold it longer than its
run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import ComplexField, Grid, RealField, _readonly, require_same_grid
from .mollifier import PACKET_CENTER, RegularizedPotential, bump
from .observables import state_observables
from .operators import FractionalOrder

__all__ = [
    "BACKENDS",
    "SolverConfig",
    "Trajectory",
    "NumericalAbort",
    "initial_datum",
    "solve_tridiagonal",
    "cn_step",
    "strang_step",
    "step_plan",
    "simulate",
]

PACKET_HALF_WIDTH = 0.5


class NumericalAbort(RuntimeError):
    """A state stopped being finite mid-run at regularization width epsilon."""

    def __init__(self, step: int, time: float, worst: float, epsilon: float):
        self.step = step
        self.time = time
        self.worst = worst
        self.epsilon = epsilon
        super().__init__(
            f"non-finite state at step {step} (t = {time:.6g}) at regularization "
            f"width {epsilon:g}; largest finite magnitude seen {worst:.3e}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Backend, step sizes and recording cadence for one run."""

    backend: str = "crank_nicolson"
    dt: float = 0.0107
    t_end: float = 0.2996
    order: FractionalOrder = FractionalOrder(1.0)
    record_every: int = 1

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be a positive real, got {self.dt}")
        if not (np.isfinite(self.t_end) and self.t_end >= self.dt):
            raise ValueError(f"t_end must be finite and at least dt, got {self.t_end}")
        if not isinstance(self.record_every, (int, np.integer)) or self.record_every < 1:
            raise ValueError(f"record_every must be an integer >= 1, got {self.record_every}")
        if self.backend == "crank_nicolson" and self.order.s != 1.0:
            raise ValueError(
                "crank_nicolson only integrates the s = 1 Laplacian; "
                "use spectral_strang for fractional orders"
            )

    @property
    def boundary(self) -> str:
        """Dirichlet ends for Crank-Nicolson, the periodic grid for Strang."""
        return "dirichlet" if self.backend == "crank_nicolson" else "periodic"


@dataclass(frozen=True)
class Trajectory:
    """Recorded states of one run, with their observables computed on first read.

    values is one read-only (n_records, n) complex array, a row per recorded
    time; states wraps those rows as fields on first read, without copying
    them.  Any row or state kept alive keeps the whole array alive, so copy
    a row to hold it longer than the trajectory.

    mass, hs_part, potential_part and energy hold one read-only entry per
    recorded state.  The first read of any of them computes all four in one
    blocked pass (`state_observables`) and caches them on the trajectory, so
    a run whose observables are never read never pays for them.
    """

    times: np.ndarray
    values: np.ndarray
    potential: RealField
    order: FractionalOrder

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.dtype != complex:
            raise ValueError("trajectory values must be a 2-D complex array")
        if len(self.times) != len(self.values):
            raise ValueError("trajectory times and states must have equal lengths")
        if self.values.shape[1] != self.potential.grid.n:
            raise ValueError("states and potential live on different grids")
        if len(self.times) == 0:
            raise ValueError("trajectory must hold at least the initial record")
        if self.times[0] != 0.0:
            raise ValueError("trajectories start at t = 0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("recorded times must be strictly increasing")
        _readonly(self.values)

    @cached_property
    def states(self) -> tuple[ComplexField, ...]:
        grid = self.potential.grid
        return tuple(ComplexField.from_checked(grid, row) for row in self.values)

    @cached_property
    def _observables(self) -> tuple[np.ndarray, ...]:
        arrays = state_observables(self.potential.grid, self.values,
                                   self.potential.values, self.order.s)
        return tuple(_readonly(a) for a in arrays)

    @property
    def mass(self) -> np.ndarray:
        return self._observables[0]

    @property
    def hs_part(self) -> np.ndarray:
        return self._observables[1]

    @property
    def potential_part(self) -> np.ndarray:
        return self._observables[2]

    @property
    def energy(self) -> np.ndarray:
        return self._observables[3]


def initial_datum(grid: Grid) -> ComplexField:
    """The compact smooth packet exp(1/((x-5)^2 - 1/4)) on |x - 5| < 1/2."""
    if grid.x_min > PACKET_CENTER - PACKET_HALF_WIDTH or grid.x_max < PACKET_CENTER + PACKET_HALF_WIDTH:
        raise ValueError(
            f"domain [{grid.x_min}, {grid.x_max}) does not cover the packet support "
            f"[{PACKET_CENTER - PACKET_HALF_WIDTH}, {PACKET_CENTER + PACKET_HALF_WIDTH}]"
        )
    return ComplexField(grid, bump(grid.nodes - PACKET_CENTER, PACKET_HALF_WIDTH))


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve one tridiagonal system by _ThomasFactor's blocked substitution.

    Row i reads lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].
    See _ThomasFactor for the ignored band ends, pivoting and accuracy.
    """
    diag = np.asarray(diag, dtype=complex)
    if diag.ndim != 1 or len(diag) == 0:
        raise ValueError(f"diag must be a non-empty 1-D band, got shape {diag.shape}")
    n = len(diag)
    for name, band in (("lower", lower), ("upper", upper), ("rhs", rhs)):
        band = np.asarray(band)
        if band.shape != (n,):
            raise ValueError(f"{name} must have shape ({n},), got {band.shape}")
    return _ThomasFactor(lower, diag, upper).solve(rhs, np.empty(n, dtype=complex))


BLOCK_ROWS = 16  # rows per block of the blocked tridiagonal substitution


def _blocked(rows: np.ndarray) -> np.ndarray:
    """View K whole blocks of rows as (BLOCK_ROWS, K): row j holds row j of each block."""
    return rows.reshape(-1, BLOCK_ROWS).T


def _substitute(y: np.ndarray, coef: np.ndarray, response: np.ndarray, chained: list,
                work: np.ndarray) -> None:
    """Run y[j] += coef[j] * y[j-1] down every (BLOCK_ROWS, K) block of y in place.

    All blocks first run from zero inflow at once; then each block's true
    inflow, the last value of the block before, is chained through the K
    blocks in Python and added times the block's response.
    """
    for j in range(1, BLOCK_ROWS):
        np.multiply(coef[j], y[j - 1], out=work[j])
        np.add(y[j], work[j], out=y[j])
    inflows = [0j]
    for outflow, gain in zip(y[-1, :-1].tolist(), chained):
        inflows.append(outflow + gain * inflows[-1])
    np.multiply(response, np.array(inflows), out=work)
    np.add(y, work, out=y)


class _ThomasFactor:
    """Thomas pivots and multipliers, computed once, and a blocked substitution.

    The bands hold the rows as solve_tridiagonal reads them, and lower[0]
    and upper[-1] are ignored.  No pivoting: a vanishing pivot is a
    hard error, so callers must pass diagonally dominant systems.  The
    pivots and upper/pivot multipliers come from the one-pass sweep's loop,
    so they are bit-identical to it.

    With the rhs divided by the pivots, the Thomas solve is one first-order
    recurrence, y[j] += c[j] * y[j-1], run twice: forward with
    c = -lower/pivot, then backward, rows reversed, with c = -multiplier.
    Each run is Wang's partition method (ACM TOMS 7, 1981), in
    _substitute.  The rows are split into K = ceil(n / BLOCK_ROWS) blocks,
    the last padded with pivot 1 and zero bands, and every band is stored
    as a (BLOCK_ROWS, K) array whose row j holds row j of each block, so the
    reversed rows are the view [::-1, ::-1].  The solution agrees with the
    one-pass sweep to roundoff, not bit for bit.
    """

    def __init__(self, lower, diag, upper):
        diag = np.asarray(diag, dtype=complex)
        n = len(diag)
        padded = -(-n // BLOCK_ROWS) * BLOCK_ROWS
        # the three bands padded to whole blocks: padding rows read diagonal 1
        # and zero bands, so they get pivot 1 and zero multipliers and
        # coefficients; the ignored lower[0] and upper[-1] read 0, so row 0's
        # pivot is diag[0]
        system = np.zeros((3, padded), dtype=complex)
        system[0, 1:n] = np.asarray(lower, dtype=complex)[1:]
        system[1] = 1.0
        system[1, :n] = diag
        system[2, :n - 1] = np.asarray(upper, dtype=complex)[:n - 1]
        pivots, multipliers = [], []
        multiplier = 0j
        # plain python lists: roughly 10x faster than numpy scalar indexing here
        for l, d, u in zip(*system.tolist()):
            pivot = d - l * multiplier
            if pivot == 0:
                raise ValueError(f"zero pivot in row {len(pivots)}")
            multiplier = u / pivot
            pivots.append(pivot)
            multipliers.append(multiplier)
        self._n = n
        self._pivots, self._multipliers = (_blocked(np.array(band)).copy()
                                           for band in (pivots, multipliers))
        # one (coef, response, chained) triple per direction, forward then
        # backward: a block's response to a unit inflow is the cumulative
        # product of coef down the block, and chained lists the responses of
        # the last rows, the ones that feed the next blocks
        self._sweeps = []
        for coef in (-_blocked(system[0]) / self._pivots, -self._multipliers[::-1, ::-1]):
            response = np.cumprod(coef, axis=0)
            self._sweeps.append((coef, response, response[-1, :-1].tolist()))
        # work arrays: the rhs rows in natural order, the blocked state, a product
        self._rows = np.zeros(padded, dtype=complex)
        self._state = np.empty_like(self._pivots)
        self._work = np.empty_like(self._pivots)

    def solve(self, rhs, out: np.ndarray) -> np.ndarray:
        """Write the solution into out and return it; out may alias rhs."""
        n, rows, x, work = self._n, self._rows, self._state, self._work
        rows[:n] = rhs
        rows[n:] = 0.0
        np.divide(_blocked(rows), self._pivots, out=x)
        forward, backward = self._sweeps
        _substitute(x, *forward, work)
        _substitute(x[::-1, ::-1], *backward, work)
        np.copyto(_blocked(rows), x)
        out[...] = rows[:n]
        return out


class _CrankNicolson:
    """Cayley step (i/dt - H/2) u_next = (i/dt + H/2) u, H = -D2 + p.

    The first and last nodes are held at zero; the interior block is
    factored here and solved by one blocked substitution per step.
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, dt: float, order: FractionalOrder):
        a = 1.0 / grid.dx**2
        self._a = a
        self._idt = 1j / dt
        self._p_in = p_values[1:-1]
        # one band serves as both off-diagonals: the factor ignores its far ends
        band = np.full(grid.n - 2, 0.5 * a)
        self._factor = _ThomasFactor(band, self._idt - (a + 0.5 * self._p_in), band)

    def step(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write the next state into out and return it; out may be values."""
        inner = values[1:-1]
        h_inner = (2.0 * inner - values[:-2] - values[2:]) * self._a + self._p_in * inner
        rhs = self._idt * inner + 0.5 * h_inner
        out[0] = out[-1] = 0.0
        self._factor.solve(rhs, out[1:-1])
        return out


class _SplitStep:
    """Half potential phase, full free flow, half potential phase.

    The intermediate products go into one work array owned by the stepper
    and the new state into the caller's out array, so a step allocates
    nothing (``out=`` on the FFTs needs numpy 2.0).  values is read in full
    before out is written, so out may be values.  simulate passes the rows
    of a run's one record array, so a state is never copied to be recorded.
    The kinetic factor is the left operand on purpose: numpy's complex
    multiply uses fused multiply-adds and is not bitwise commutative, and
    this order keeps the step equal to
    half_phase * ifft(kinetic * fft(half_phase * values)).
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, dt: float, order: FractionalOrder):
        symbol = grid.wavenumber_power(2.0 * order.s)
        self._half_phase = np.exp(-0.5j * dt * p_values)
        self._kinetic = np.exp(-1j * dt * symbol)
        self._work = np.empty(grid.n, dtype=complex)

    def step(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        work = self._work
        np.multiply(self._half_phase, values, out=work)
        np.fft.fft(work, out=work)
        np.multiply(self._kinetic, work, out=work)
        np.fft.ifft(work, out=work)
        return np.multiply(self._half_phase, work, out=out)


_STEPPERS = {"crank_nicolson": _CrankNicolson, "spectral_strang": _SplitStep}
BACKENDS = tuple(_STEPPERS)


def _one_step(u: ComplexField, p: RegularizedPotential, config: SolverConfig) -> ComplexField:
    require_same_grid(u, p.field)
    stepper = _STEPPERS[config.backend](u.grid, p.field.values, config.dt, config.order)
    return ComplexField(u.grid, stepper.step(u.values, np.empty_like(u.values)))


def cn_step(u: ComplexField, p: RegularizedPotential, dt: float) -> ComplexField:
    """One Crank-Nicolson step of length dt."""
    return _one_step(u, p, SolverConfig("crank_nicolson", dt=dt, t_end=dt))


def strang_step(u: ComplexField, p: RegularizedPotential, dt: float,
                order: FractionalOrder = FractionalOrder(1.0)) -> ComplexField:
    """One Strang splitting step of length dt."""
    return _one_step(u, p, SolverConfig("spectral_strang", dt=dt, t_end=dt, order=order))


def step_plan(t_end: float, dt: float) -> tuple[int, float]:
    """Full steps of length dt, and the shortened last step (0.0 if none), to t_end.

    A t_end within a billionth of a step of the step grid counts as on it.
    """
    n_full = int(np.floor(t_end / dt + 1e-9))
    remainder = t_end - n_full * dt
    return n_full, remainder if remainder >= dt * 1e-9 else 0.0


def simulate(u0: ComplexField, potential: RegularizedPotential,
             config: SolverConfig) -> Trajectory:
    """March u0 to config.t_end and record its states.

    The initial state is always recorded, then every record_every-th step,
    then the final state with its time labeled exactly t_end.  The recorded
    times are known before the first step, so the states go into one array
    with a row per record: each step writes into the next free row, which
    advances only after a recorded step, and a step that is not recorded is
    overwritten by the next.  Any non-finite state aborts the run with step
    diagnostics and the width of the potential.  The observables of the
    recorded states are computed on their first read from the trajectory.
    """
    require_same_grid(u0, potential.field)
    grid = u0.grid
    p_values = potential.field.values
    dt = config.dt
    n_full, remainder = step_plan(config.t_end, dt)
    make_stepper = _STEPPERS[config.backend]

    # full steps recorded before the final state; a last full step that ends
    # the run is recorded as the final state instead
    last_marked = n_full if remainder > 0.0 else n_full - 1
    marked = range(config.record_every, last_marked + 1, config.record_every)
    times = np.array([0.0, *(i * dt for i in marked), config.t_end])
    rows = np.empty((len(times), grid.n), dtype=complex)
    rows[0] = u0.values
    values = rows[0]
    worst = float(np.max(np.abs(values)))

    k = 1  # next free row
    stepper = make_stepper(grid, p_values, dt, config.order)
    for i in range(1, n_full + 1):
        values = stepper.step(values, rows[k])
        worst = max(worst, _checked_peak(values, i, i * dt, worst, potential.epsilon))
        if i in marked:
            k += 1
    if remainder > 0.0:
        values = make_stepper(grid, p_values, remainder, config.order).step(values, rows[k])
        _checked_peak(values, n_full + 1, config.t_end, worst, potential.epsilon)

    return Trajectory(times=times, values=rows, potential=potential.field, order=config.order)


def _checked_peak(values: np.ndarray, step: int, time: float, worst: float,
                  epsilon: float) -> float:
    """Largest modulus of a new state; a non-finite component aborts the run.

    A non-finite component makes the peak non-finite, so one reduction
    serves both jobs and the exact component test runs only when the peak is
    not finite.  A state whose components are finite but whose modulus
    overflows to inf therefore carries on.
    """
    peak = float(np.max(np.abs(values)))
    if not np.isfinite(peak) and not np.all(np.isfinite(values)):
        raise NumericalAbort(step, time, worst, epsilon)
    return peak

