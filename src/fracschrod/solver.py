"""Time integration of i u_t = [(-Delta)^s + p] u on a fixed grid.

Two backends, one _STEPPERS entry each; a stepper is built from (grid,
p_values, dt, order), and SolverConfig alone holds the rules on those (so
Crank-Nicolson, which only takes s = 1, ignores order):

* crank_nicolson: Cayley stepping of the s = 1 Hamiltonian with a centered
  second difference and Dirichlet ends, each step's tridiagonal solve two
  scaled prefix sums over a factor built once per run (_ThomasFactor).
* spectral_strang: second-order Strang splitting (half potential phase,
  full free flow, half potential phase) on the periodic grid for any order
  s, the free flow a four-step FFT (_SplitStep), in whose column domain
  the steps of a segment stay.

Both are unconditionally stable and preserve the discrete L2 norm up to
roundoff.  A run lands exactly on t_end by shortening the last step, as
step_plan lays out; run_pieces lays a run out as a chain of shorter runs
that record every step, with the same states.

A stepper's one stepping method, advance, takes a segment of steps,
yielding after each one an array that is finite exactly when the new state
is (for Strang, short of overflow near 1e308; _SplitStep.advance); _step
is a one-step advance.  simulate drives every stepper the same way, one
advance per segment of the run (simulate lists them), which writes its
last state straight into the next free row of one read-only (n_records,
n) array allocated before the first step.  The test that aborts a run on
a non-finite state (_peak) allocates nothing, so a Strang run allocates
nothing per step (a Crank-Nicolson step builds its right-hand side in
temporaries).  Keeping one recorded state keeps that whole array alive:
copy a row to hold it longer than its run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache, cached_property

import numpy as np

from .grid import ComplexField, Grid, RealField, _readonly, require_inside, require_same_grid
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
    "run_pieces",
    "simulate",
]

PACKET_HALF_WIDTH = 0.5


class NumericalAbort(RuntimeError):
    """A state stopped being finite mid-run at regularization width epsilon.

    worst is the largest |Re| or |Im| of any component of the finite states
    before it (within a factor sqrt(2) of their largest modulus).  simulate
    raises it in one place (_abort finds worst), chaining no exception.
    """

    def __init__(self, step: int, time: float, worst: float, epsilon: float):
        self.step = step
        self.time = time
        self.worst = worst
        self.epsilon = epsilon
        super().__init__(
            f"non-finite state at step {step} (t = {time:.6g}) at regularization "
            f"width {epsilon:g}; largest finite |Re| or |Im| seen {worst:.3e}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Backend, step sizes and recording cadence for one run.

    record_every thins only the states simulate returns, never the steps.
    """

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
    require_inside(grid, PACKET_CENTER, PACKET_HALF_WIDTH, "packet")
    return ComplexField(grid, bump(grid.nodes - PACKET_CENTER, PACKET_HALF_WIDTH))


def solve_tridiagonal(lower, diag, upper, rhs) -> np.ndarray:
    """Solve one tridiagonal system by _ThomasFactor's two scaled prefix sums.

    Row i reads lower[i]*x[i-1] + diag[i]*x[i] + upper[i]*x[i+1] = rhs[i].
    See _ThomasFactor for the ignored band ends, pivoting, segments and accuracy.
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


SEGMENT_LOG_BOUND = 300.0  # a segment's running product stays within e^±300


def _prefix_products(coef: np.ndarray) -> tuple[np.ndarray, np.ndarray, list]:
    """(P, 1/P, segments) of the recurrence y[j] = b[j] + coef[j] * y[j-1].

    Segments, listed as (start, stop, coef[start]), start at row 0 and at
    every row whose coefficient is 0 or not finite or at which P, the
    running product of coef from 1 at the segment's start, would leave
    e^±SEGMENT_LOG_BOUND.
    """
    magnitude = np.abs(coef)
    cut = ~(np.isfinite(magnitude) & (magnitude > 0))
    logs = np.cumsum(np.log(np.where(cut, 1.0, magnitude)))
    starts = [0]
    while True:
        ahead = slice(starts[-1] + 1, None)
        drift = np.abs(logs[ahead] - logs[starts[-1]])
        hits = np.flatnonzero(cut[ahead] | (drift > SEGMENT_LOG_BOUND))
        if not hits.size:
            break
        starts.append(starts[-1] + 1 + int(hits[0]))
    products, segments = np.ones_like(coef), []
    for start, stop in zip(starts, starts[1:] + [len(coef)]):
        np.cumprod(coef[start + 1:stop], out=products[start + 1:stop])
        segments.append((start, stop, complex(coef[start])))
    return products, 1.0 / products, segments


def _substitute(y: np.ndarray, products: np.ndarray, inverses: np.ndarray, segments: list) -> None:
    """Run y[j] += c[j] * y[j-1] in place as y = P * cumsum(y * inverses) per segment.

    inverses is 1/P times any scale the rows take first.  A segment's
    inflow c[start] * y[start-1] enters its first row (P = 1) before the
    sum, so a NaN reaches every later row even through a zero coefficient.
    """
    inflow = 0j
    for start, stop, gain in segments:
        rows = y[start:stop]
        np.multiply(rows, inverses[start:stop], out=rows)
        rows[0] += gain * inflow
        np.add.accumulate(rows, out=rows)  # cumsum without np.cumsum's wrapper
        np.multiply(rows, products[start:stop], out=rows)
        inflow = rows[-1]


class _ThomasFactor:
    """Thomas pivots and multipliers, computed once, and a solve by scaled prefix sums.

    The bands hold the rows as solve_tridiagonal reads them; lower[0] and
    upper[-1] are ignored.  No pivoting: a vanishing pivot is a hard error,
    so callers must pass diagonally dominant systems.  The pivots and
    upper/pivot multipliers come from the one-pass sweep's loop, so they
    are bit-identical to it.

    With the rhs b divided by the pivots, the solve is the recurrence
    y[j] = b[j] + c[j] * y[j-1], run forward with c = -lower/pivot, then on
    the reversed rows with c = -multiplier.  Its exact solution is
    y = P * cumsum(b / P), P the running product of c, so each direction
    stores P and 1/P (forward: 1/(pivot P)) and each run is a multiply, a
    cumulative sum and a multiply (_substitute), restarted in a new segment
    wherever a coefficient is 0 or not finite or P would leave e^±300
    (about 1e±130).  |cumsum(b / P)| = |y| / |P| holds exactly, and P's
    accumulated error cancels in the ratio P[j] / P[i] that weighs b[i] in
    y[j], so the solution agrees with the one-pass sweep to roundoff.
    """

    def __init__(self, lower, diag, upper):
        diag = np.asarray(diag, dtype=complex)
        n = len(diag)
        # the ignored lower[0] and upper[-1] read 0: both recurrences start at c = 0
        system = np.zeros((3, n), dtype=complex)
        system[0, 1:] = np.asarray(lower, dtype=complex)[1:]
        system[1] = diag
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
        self._pivots, self._multipliers = np.array(pivots), np.array(multipliers)
        products, inverses, segments = _prefix_products(-system[0] / self._pivots)
        self._forward = products, inverses / self._pivots, segments
        self._backward = _prefix_products(-self._multipliers[::-1])

    def solve(self, rhs, out: np.ndarray) -> np.ndarray:
        """Write the solution into out and return it; out may alias rhs."""
        out[...] = rhs
        _substitute(out, *self._forward)
        _substitute(out[::-1], *self._backward)
        return out


class _CrankNicolson:
    """Cayley step (i/dt - H/2) u_next = (i/dt + H/2) u, H = -D2 + p.

    The first and last nodes are held at zero; the interior block is
    factored here and solved by one prefix-sum substitution per step.  At
    the lab's steps each direction of the factor is one segment: P decays
    by about 100 nats over the rows at dt = 0.0107 and 275 at dt/8.
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, dt: float, order: FractionalOrder):
        a = 1.0 / grid.dx**2
        self._a = a
        self._idt = 1j / dt
        self._p_in = p_values[1:-1]
        # one band serves as both off-diagonals: the factor ignores its far ends
        band = np.full(grid.n - 2, 0.5 * a)
        self._factor = _ThomasFactor(band, self._idt - (a + 0.5 * self._p_in), band)

    def advance(self, values: np.ndarray, out: np.ndarray, steps: int):
        """Take steps steps from values into out, yielding each new state; out may be values."""
        for _ in range(steps):
            inner = values[1:-1]
            h_inner = (2.0 * inner - values[:-2] - values[2:]) * self._a + self._p_in * inner
            rhs = self._idt * inner + 0.5 * h_inner
            out[0] = out[-1] = 0.0
            self._factor.solve(rhs, out[1:-1])
            values = out
            yield values


# Between two steps, advance applies the two half phases as a
# rank-|S| update while p != 0 on at most _STRETCH_ROWS_MAX rows S of the
# (R, C) view, and as F0^-1, H, H, F0 otherwise.  A step took, round trip
# against rank update (min of 15 runs of 100 steps, one placement of the
# arrays per pair; 2-vCPU Xeon, numpy 2.4.6, one BLAS thread): 191 against
# 129 us at |S| = 2, 188 against 176 at 16 and 199 against 216 at 32 for
# n = 8192; 394 against 254 at 2, 655 against 532 at 16 and 463 against 448
# at 32 for 16384; 1342 against 822 at 2 and 1415 against 1141 at 16 for
# 32768.  Past 16 rows the rank update costs about what the F0 pair it
# replaces does.
_STRETCH_ROWS_MAX = 16


@cache
def _twiddles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """T[k1, n2] = exp(-2 pi i k1 n2 / n) on the (R, C) split of n, and conj(T).

    Built once per n, read-only and shared by every stepper of that size.
    """
    rows = 1 << (int(n).bit_length() - 1) // 2
    angle = np.outer(np.arange(rows), np.arange(n // rows) * (-2.0 * np.pi / n))
    twiddle = np.empty(angle.shape, dtype=complex)
    np.cos(angle, out=twiddle.real)
    np.sin(angle, out=twiddle.imag)
    return _readonly(twiddle), _readonly(np.conjugate(twiddle))


class _SplitStep:
    """Half potential phase, full free flow, half potential phase.

    The free flow is a four-step FFT (Bailey 1990) on the work array viewed
    as (R, C), R = 2^floor(log2(n)/2) and C = n/R (Grid makes n a power of
    two from 8 on, so the split runs from 2 x 4 up): fft along axis 0 (F0),
    times the twiddle T[k1, n2] = exp(-2 pi i k1 n2 / n), fft along axis 1,
    times K, ifft along axis 1, times conj(T), ifft along axis 0.  The
    forward half leaves frequency k1 + R k2 at [k1, k2], so K is stored in
    that transposed order; K is diagonal, so the inverse half takes the same
    order back and no transpose is made.  T and conj(T) are built once per n
    and shared (_twiddles).  Each short transform's scratch is a few
    kilobytes, where numpy's length-n transform allocates an n-sized one per
    call.

    The intermediate products go into one work array owned by the stepper
    and the new state into the caller's out array, so a step allocates
    nothing (``out=`` on the FFTs needs numpy 2.0).  values is read in full
    before out is written, so out may be values.  simulate passes the rows
    of a run's one record array, so a state is never copied to be recorded.
    K and each twiddle are the left operands of their multiplies on purpose:
    numpy's complex multiply uses fused multiply-adds and is not bitwise
    commutative, and this order keeps the step equal to
    half_phase * G^-1(kinetic * G(half_phase * values)) with G and G^-1
    spelled as the calls above.  It differs from the single-FFT step
    half_phase * ifft(kinetic * fft(half_phase * values)) by roundoff, 1e-15
    to 1.2e-14 of the peak after 30 steps at n = 16 to 32768.

    advance, the stepper's one stepping method, takes a segment of steps in
    the column domain.  It enters once through H and F0, runs each step's
    column flow and leaves once through F0^-1 and H.  Between two steps lie
    F0^-1, the two half phases H and F0 again.  Where p != 0 on at most
    _STRETCH_ROWS_MAX rows S of the (R, C) view (every row up to n = 512),
    H is exactly 1 off S, so F0 diag(H*H) F0^-1 = I + F0 diag(H*H - 1) F0^-1
    is the rank-|S| update z += B((H*H - 1)[S] * (A z)), A = F0^-1
    restricted to rows S and B = F0 restricted to columns S (_spike): a step
    makes two FFT calls instead of four, and differs from one-by-one steps
    by roundoff, a few 1e-14 of the peak after 200 steps.  Otherwise advance
    takes the round trip as it stands, which equals separate steps bit for
    bit.
    """

    def __init__(self, grid: Grid, p_values: np.ndarray, dt: float, order: FractionalOrder):
        self._twiddles = _twiddles(grid.n)
        rows, cols = self._twiddles[0].shape
        symbol = grid.wavenumber_power(2.0 * order.s)
        self._half_phase = np.exp(-0.5j * dt * p_values)
        # K[k1 + R k2] to [k1, k2]
        self._kinetic = np.exp(-1j * dt * symbol).reshape(cols, rows).T.copy()
        self._work = np.empty(grid.n, dtype=complex)
        self._work_rc = self._work.reshape(rows, cols)

    def advance(self, values: np.ndarray, out: np.ndarray, steps: int):
        """Take steps steps from values into out, yielding after each one.

        Each yield is the work array holding the new state x as F0(x / H).
        F0 is invertible and spreads a non-finite entry over its column, so
        the yield is finite exactly when x is, except where F0's sums of R
        entries overflow, that is where x reaches about 1e308/R.  values is
        read only on entry, so out may be values; out (contiguous) holds B's
        product between steps and the last state when exhausted.  Allocates
        no array.
        """
        work, rc, out_rc = self._work, self._work_rc, out.reshape(self._work_rc.shape)
        np.multiply(self._half_phase, values, out=work)
        np.fft.fft(rc, axis=0, out=rc)
        for k in range(steps):
            if k:  # the two half phases between step k and step k + 1
                spike = self._spike  # built only once a second step is due
                if spike is None:
                    np.fft.ifft(rc, axis=0, out=rc)
                    np.multiply(self._half_phase, work, out=work)
                    np.multiply(self._half_phase, work, out=work)
                    np.fft.fft(rc, axis=0, out=rc)
                elif len(spike[1]):
                    inverse, phase_gap, forward, spike_rows = spike
                    np.matmul(inverse, rc, out=spike_rows)
                    np.multiply(phase_gap, spike_rows, out=spike_rows)
                    np.matmul(forward, spike_rows, out=out_rc)
                    np.add(rc, out_rc, out=rc)
            self._column_flow(rc)
            yield work
        np.fft.ifft(rc, axis=0, out=rc)
        np.multiply(self._half_phase, work, out=out)

    def _column_flow(self, rc: np.ndarray) -> None:
        """rc <- conj(T) * F1^-1(K * F1(T * rc)), the four-step flow between the F0 passes."""
        twiddle, conj_twiddle = self._twiddles
        np.multiply(twiddle, rc, out=rc)
        np.fft.fft(rc, axis=1, out=rc)
        np.multiply(self._kinetic, rc, out=rc)
        np.fft.ifft(rc, axis=1, out=rc)
        np.multiply(conj_twiddle, rc, out=rc)

    @cached_property
    def _spike(self):
        """A, (H*H - 1)[S], B and a buffer for A z.

        None where p != 0 on more than _STRETCH_ROWS_MAX rows.
        """
        n_rows, cols = self._work_rc.shape
        half = self._half_phase.reshape(n_rows, cols)
        hit = np.flatnonzero((half != 1.0).any(axis=1))
        if len(hit) > _STRETCH_ROWS_MAX:
            return None
        angle = np.outer(hit, np.arange(n_rows)) % n_rows * (2.0 * np.pi / n_rows)
        inverse = np.exp(1j * angle) / n_rows
        forward = np.exp(-1j * angle).T.copy()
        phase_gap = half[hit] * half[hit] - 1.0
        return inverse, phase_gap, forward, np.empty((len(hit), cols), dtype=complex)


_STEPPERS = {"crank_nicolson": _CrankNicolson, "spectral_strang": _SplitStep}
BACKENDS = tuple(_STEPPERS)


def _step(stepper, values: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Take one step of stepper from values into out and return out; out may be values."""
    for _ in stepper.advance(values, out, 1):
        pass
    return out


def _one_step(u: ComplexField, p: RegularizedPotential, config: SolverConfig) -> ComplexField:
    require_same_grid(u, p.field)
    stepper = _STEPPERS[config.backend](u.grid, p.field.values, config.dt, config.order)
    return ComplexField(u.grid, _step(stepper, u.values, np.empty_like(u.values)))


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


def run_pieces(config: SolverConfig, records: int) -> list[SolverConfig]:
    """config's run as a chain of runs that each record every step, at most records.

    Every run is a chain, however short: each whole piece takes records full
    steps (t_end = k * dt), the last one the full steps left, and a
    shortened last step runs alone (dt = t_end = remainder).  Every piece
    records every step, whatever config.record_every is.  Run in order,
    each from a copy of the last state of the one before, the pieces take
    the whole run's steps one for one, so their states equal the states of
    config's run at record_every = 1 bit for bit.
    """
    n_full, remainder = step_plan(config.t_end, config.dt)
    every_step = replace(config, record_every=1)
    chain = [replace(every_step, t_end=(min(start + records, n_full) - start) * config.dt)
             for start in range(0, n_full, records)]
    if remainder > 0.0:
        chain.append(replace(every_step, dt=remainder, t_end=remainder))
    return chain


def simulate(u0: ComplexField, potential: RegularizedPotential,
             config: SolverConfig) -> Trajectory:
    """March u0 to config.t_end and record its states.

    The initial state is always recorded, then every record_every-th step,
    then the final state with its time labeled exactly t_end.  The recorded
    times are known before the first step, so the states go into one array
    with a row per record.  The run is one loop over segments: the full
    steps up to each recorded step and up to the last full step, then the
    shortened last step on its own.  Each segment is one advance of its
    stepper into the next free row, which moves on only after a recorded
    step, so a segment's last state is its only one kept.  Any non-finite
    state aborts the run with step diagnostics, the largest finite |Re| or
    |Im| seen and the width of the potential (NumericalAbort), raised once,
    here; the test is one max and one min over the real view of each array
    advance yields and allocates nothing per step (_peak).  An advance need
    not form its states in x, so _abort finds worst by retaking the steps
    before the abort one by one from the datum.  The observables of the
    recorded states are computed on their first read from the trajectory.
    """
    require_same_grid(u0, potential.field)
    grid, p_values, epsilon = u0.grid, potential.field.values, potential.epsilon
    dt = config.dt
    n_full, remainder = step_plan(config.t_end, dt)
    make_stepper = _STEPPERS[config.backend]

    # a last full step that ends the run is recorded as the final state instead
    marked = range(config.record_every, n_full + (remainder > 0.0), config.record_every)
    times = np.array([0.0, *(i * dt for i in marked), config.t_end])
    rows = np.empty((len(times), grid.n), dtype=complex)
    rows[0] = u0.values

    stepper = make_stepper(grid, p_values, dt, config.order)
    segments = [(stepper, start, min(start + config.record_every, n_full))
                for start in range(0, n_full, config.record_every)]
    if remainder > 0.0:
        segments.append((make_stepper(grid, p_values, remainder, config.order),
                         n_full, n_full + 1))
    values, k = rows[0], 1  # k: the next free row
    for segment_stepper, start, stop in segments:
        states = segment_stepper.advance(values, rows[k], stop - start)
        for i, z in enumerate(states, start + 1):
            if not np.isfinite(_peak(z)):
                raise _abort(stepper, rows, i, i * dt if i <= n_full else config.t_end, epsilon)
        values = rows[k]
        if stop in marked:
            k += 1

    return Trajectory(times=times, values=rows, potential=potential.field, order=config.order)


def _peak(values: np.ndarray) -> float:
    """Largest |Re| or |Im| of a state, not finite exactly when a component is not.

    The peak is the max and the negated min of the state's real view (its
    real and imaginary parts; every row and work array simulate passes is
    contiguous).  max and min propagate NaN and +-inf, so one reduction
    decides the abort and gives the diagnostic, with no modulus, and the
    call allocates nothing.
    """
    return float(max(values.view(float).max(), -values.view(float).min()))


def _abort(stepper, rows: np.ndarray, step: int, time: float, epsilon: float) -> NumericalAbort:
    """The NumericalAbort of a run whose state first stopped being finite at step.

    An advance need not form its states in x, so worst is the largest peak
    of the datum rows[0] and of steps 1 .. step-1 retaken one by one (_step)
    into rows[-1], a row the abort discards.  worst keeps the largest finite
    peak because Python's max keeps its first argument against NaN.
    """
    values = rows[0]
    worst = _peak(values)  # the datum is a field, so finite
    for _ in range(1, step):
        values = _step(stepper, values, rows[-1])
        worst = max(worst, _peak(values))
    return NumericalAbort(step, time, worst, epsilon)
