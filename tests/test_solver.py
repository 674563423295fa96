import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import fracschrod.solver
from fracschrod.grid import ComplexField, hs_seminorm, l2_norm, make_grid
from fracschrod.mollifier import PotentialSpec, regularize_potential, sup_norm
from fracschrod.observables import composite_norm, energy, window_mass
from fracschrod.operators import FractionalOrder, free_propagator
from fracschrod.solver import (
    BACKENDS,
    NumericalAbort,
    SolverConfig,
    Trajectory,
    cn_step,
    initial_datum,
    simulate,
    solve_tridiagonal,
    step_plan,
    strang_step,
)

GRID = make_grid(0.0, 10.0, 1024)
DT = 0.0107


def gap(a, b):
    return l2_norm(ComplexField(a.grid, a.values - b.values))


def potential(kind, eps=0.3, grid=GRID):
    return regularize_potential(PotentialSpec(kind), grid, eps)


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.backend == "crank_nicolson"
        assert cfg.dt == DT
        assert cfg.boundary == "dirichlet"

    def test_backends_constant(self):
        assert BACKENDS == ("crank_nicolson", "spectral_strang")

    def test_spectral_boundary_default(self):
        cfg = SolverConfig(backend="spectral_strang")
        assert cfg.boundary == "periodic"

    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            SolverConfig(backend="leapfrog")

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError):
            SolverConfig(dt=dt)

    def test_rejects_t_end_below_dt(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=0.1, t_end=0.05)

    def test_rejects_bad_record_every(self):
        with pytest.raises(ValueError):
            SolverConfig(record_every=0)
        with pytest.raises(ValueError):
            SolverConfig(record_every=2.5)

    def test_cn_requires_classical_order(self):
        with pytest.raises(ValueError):
            SolverConfig(backend="crank_nicolson", order=FractionalOrder(0.5))


class TestInitialDatum:
    def test_center_value(self):
        u = initial_datum(GRID)
        assert u.values[512].real == pytest.approx(np.exp(-4.0), rel=1e-14)

    def test_matches_closed_form_exactly(self):
        x = GRID.nodes
        inside = np.abs(x - 5.0) < 0.5
        expected = np.zeros(GRID.n)
        expected[inside] = np.exp(1.0 / ((x[inside] - 5.0) ** 2 - 0.25))
        assert np.array_equal(initial_datum(GRID).values, expected)

    def test_vanishes_outside_support(self):
        u = initial_datum(GRID)
        outside = np.abs(GRID.nodes - 5.0) >= 0.5
        assert np.all(u.values[outside] == 0.0)

    def test_rejects_domain_missing_support(self):
        with pytest.raises(ValueError):
            initial_datum(make_grid(0.0, 4.0, 256))
        with pytest.raises(ValueError):
            initial_datum(make_grid(5.0, 10.0, 256))


def one_pass_sweep(lower, diag, upper, rhs):
    """Reference: factor and substitute in a single sweep, refactoring every call.

    Returns the solution with the pivots and upper/pivot multipliers of the sweep.
    """
    lo, di, up = (np.asarray(b, dtype=complex).tolist() for b in (lower, diag, upper))
    xs = np.asarray(rhs, dtype=complex).tolist()
    n = len(xs)
    scratch = [0j] * n
    pivot = di[0]
    pivots = [pivot]
    scratch[0] = up[0] / pivot
    xs[0] = xs[0] / pivot
    for i in range(1, n):
        pivot = di[i] - lo[i] * scratch[i - 1]
        pivots.append(pivot)
        if i < n - 1:
            scratch[i] = up[i] / pivot
        xs[i] = (xs[i] - lo[i] * xs[i - 1]) / pivot
    for i in range(n - 2, -1, -1):
        xs[i] = xs[i] - scratch[i] * xs[i + 1]
    return np.asarray(xs, dtype=complex), pivots, scratch[:n - 1]


def one_pass_thomas(lower, diag, upper, rhs):
    return one_pass_sweep(lower, diag, upper, rhs)[0]


def random_bands(rng, n):
    """Random diagonally dominant complex bands and a random rhs."""
    lower = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    upper = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    diag = 4.0 + np.abs(rng.standard_normal(n)) + 1j * rng.standard_normal(n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return lower, diag, upper, rhs


def unblocked(band, n):
    """The first n rows of a (BLOCK_ROWS, K) band of _ThomasFactor, in natural order."""
    return band.T.reshape(-1)[:n]


def bits(values):
    """The bit patterns of complex values, so that -0.0 differs from 0.0."""
    return np.asarray(values, dtype=complex).view(np.int64)


def reference_cn_step(values, grid, p_values, dt):
    """One Cayley step through one_pass_thomas, bands rebuilt on every call."""
    a = 1.0 / grid.dx**2
    idt = 1j / dt
    p_in = p_values[1:-1]
    lower = np.full(grid.n - 2, 0.5 * a, dtype=complex)
    upper = np.full(grid.n - 2, 0.5 * a, dtype=complex)
    lower[0] = 0.0
    upper[-1] = 0.0
    diag = idt - (a + 0.5 * p_in)
    inner = values[1:-1]
    h_inner = (2.0 * inner - values[:-2] - values[2:]) * a + p_in * inner
    out = np.zeros_like(values)
    out[1:-1] = one_pass_thomas(lower, diag, upper, idt * inner + 0.5 * h_inner)
    return out


class TestSolveTridiagonal:
    def test_identity(self):
        rhs = np.array([1.0 + 1j, 2.0, 3.0 - 1j])
        x = solve_tridiagonal(np.zeros(3), np.ones(3), np.zeros(3), rhs)
        assert np.allclose(x, rhs)

    def test_two_by_two(self):
        x = solve_tridiagonal(np.array([0.0, 1.0]), np.array([2.0, 2.0]),
                              np.array([1.0, 0.0]), np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0])

    def test_matches_dense_solver(self):
        rng = np.random.default_rng(61)
        for _ in range(5):
            lower, diag, upper, rhs = random_bands(rng, 64)
            a = np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)
            x = solve_tridiagonal(lower, diag, upper, rhs)
            assert np.max(np.abs(x - np.linalg.solve(a, rhs))) < 1e-10

    def test_zero_pivot(self):
        with pytest.raises(ValueError):
            solve_tridiagonal(np.zeros(2), np.array([0.0, 1.0]),
                              np.zeros(2), np.ones(2))

    def test_zero_pivot_after_elimination(self):
        # diag is nonzero; the pivot of row 1 vanishes only after eliminating row 0
        with pytest.raises(ValueError, match="row 1"):
            solve_tridiagonal(np.array([0.0, 1.0]), np.ones(2),
                              np.array([1.0, 0.0]), np.ones(2))

    def test_zero_pivot_in_a_later_block(self):
        # row 16 opens the second block; the pivot of row 17 vanishes after eliminating it
        n = 40
        lower, upper = np.zeros(n), np.zeros(n)
        upper[16] = lower[17] = 1.0
        with pytest.raises(ValueError, match="row 17"):
            solve_tridiagonal(lower, np.ones(n), upper, np.ones(n))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_tridiagonal(np.zeros(3), np.ones(4), np.zeros(4), np.ones(4))
        for diag in (np.array(1.0), np.ones((4, 1)), np.ones(0)):
            with pytest.raises(ValueError, match="diag"):
                solve_tridiagonal(np.zeros(4), diag, np.zeros(4), np.ones(4))


class TestBlockedSubstitution:
    """The blocked solve against the one-pass Thomas sweep it replaces."""

    # around one block, across block edges and at the benchmark's interior sizes
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 33, 64, 1022, 4094])
    def test_solution_matches_one_pass_sweep(self, n):
        lower, diag, upper, rhs = random_bands(np.random.default_rng(n), n)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        reference = one_pass_thomas(lower, diag, upper, rhs)
        assert np.max(np.abs(x - reference)) <= 1e-14 * np.max(np.abs(reference))

    @pytest.mark.parametrize("n", [1, 17, 1022])
    def test_pivots_and_multipliers_bit_identical(self, n):
        lower, diag, upper, rhs = random_bands(np.random.default_rng(n), n)
        factor = fracschrod.solver._ThomasFactor(lower, diag, upper)
        _, pivots, multipliers = one_pass_sweep(lower, diag, upper, rhs)
        assert np.array_equal(bits(unblocked(factor._pivots, n)), bits(pivots))
        assert np.array_equal(bits(unblocked(factor._multipliers, n)[:n - 1]), bits(multipliers))

    @pytest.mark.parametrize("n", [17, 33, 1022])
    def test_block_responses_are_unit_inflow_substitutions(self, n):
        # forward: the substitution of a zero rhs from a unit inflow down a block;
        # backward: the same up a block, stored with rows and blocks reversed
        lower, diag, upper, _ = random_bands(np.random.default_rng(n), n)
        factor = fracschrod.solver._ThomasFactor(lower, diag, upper)
        # lower as the factor reads it: lower[0] and the padding rows are 0
        blocked_lower = np.zeros(factor._pivots.shape[::-1], dtype=complex)
        blocked_lower.reshape(-1)[1:n] = lower[1:]
        blocked_lower = blocked_lower.T
        (_, forward, _), (_, backward, _) = factor._sweeps
        backward = backward[::-1, ::-1]
        for k in range(factor._pivots.shape[1]):
            pivots, lowers, multipliers = (band[:, k].tolist() for band in
                                           (factor._pivots, blocked_lower, factor._multipliers))
            g, forward_expected = 1.0, []
            for l, pivot in zip(lowers, pivots):
                g = (0 - l * g) / pivot
                forward_expected.append(g)
            h, backward_expected = 1.0, []
            for m in reversed(multipliers):
                h = 0 - m * h
                backward_expected.append(h)
            for response, expected in ((forward[:, k], forward_expected),
                                       (backward[:, k], backward_expected[::-1])):
                expected = np.array(expected)
                assert np.max(np.abs(response - expected)) <= 1e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n", [17, 1022])
    def test_non_finite_rhs_does_not_reach_the_next_solve(self, n):
        # both sizes end in padding rows, which a NaN solve fills with NaN
        lower, diag, upper, rhs = random_bands(np.random.default_rng(n), n)
        factor = fracschrod.solver._ThomasFactor(lower, diag, upper)
        x = factor.solve(rhs, np.empty(n, dtype=complex))
        bad = rhs.copy()
        bad[n // 2] = np.nan
        assert np.all(np.isnan(factor.solve(bad, np.empty(n, dtype=complex))))
        assert np.array_equal(factor.solve(rhs, np.empty(n, dtype=complex)), x)

    def test_ignored_band_ends_do_not_reach_the_solution(self):
        lower, diag, upper, rhs = random_bands(np.random.default_rng(5), 40)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        lower[0] = upper[-1] = np.inf
        assert np.array_equal(solve_tridiagonal(lower, diag, upper, rhs), x)

    def test_solve_writes_into_out_and_may_alias_rhs(self):
        lower, diag, upper, rhs = random_bands(np.random.default_rng(7), 50)
        factor = fracschrod.solver._ThomasFactor(lower, diag, upper)
        x = factor.solve(rhs, np.empty(50, dtype=complex))
        assert factor.solve(rhs, rhs) is rhs
        assert np.array_equal(rhs, x)

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_cn_run_stays_within_roundoff_of_one_pass_steps(self, n):
        # 28 steps of the stiffest default width of the squared spike
        grid = make_grid(0.0, 10.0, n)
        p = potential("delta_squared", eps=0.035, grid=grid)
        tr = simulate(initial_datum(grid), p, SolverConfig(dt=DT, t_end=28 * DT))
        assert len(tr.states) == 29
        values = initial_datum(grid).values
        for state in tr.values[1:]:
            values = reference_cn_step(values, grid, p.field.values, DT)
            assert np.max(np.abs(state - values)) <= 1e-12 * np.max(np.abs(values))


class TestCrankNicolsonStep:
    def test_interior_eigenmode_gets_unimodular_cayley_factor(self):
        n = GRID.n
        j = np.arange(n)
        k = 3
        v = np.sin(np.pi * k * j / (n - 1)).astype(complex)
        u = ComplexField(GRID, v)
        out = cn_step(u, potential("zero"), DT)
        lam = 4 * np.sin(np.pi * k / (2 * (n - 1))) ** 2 / GRID.dx**2
        expected = (1 - 0.5j * lam * DT) / (1 + 0.5j * lam * DT)
        big = np.abs(v) > 0.1
        ratios = out.values[big] / v[big]
        assert np.max(np.abs(ratios - expected)) < 1e-12
        assert abs(np.abs(ratios[0]) - 1.0) < 1e-14

    def test_tiny_step_is_near_identity(self):
        u = initial_datum(GRID)
        out = cn_step(u, potential("harmonic_shifted"), 1e-8)
        assert np.max(np.abs(out.values - u.values)) < 1e-6

    def test_norm_preserved_per_step(self):
        u = initial_datum(GRID)
        out = cn_step(u, potential("delta", eps=0.05), DT)
        assert abs(l2_norm(out) - l2_norm(u)) < 1e-12

    def test_boundary_stays_pinned(self):
        u = initial_datum(GRID)
        out = cn_step(u, potential("constant_one"), DT)
        assert out.values[0] == 0.0 and out.values[-1] == 0.0


class TestStrangStep:
    def test_zero_potential_degenerates_to_free_flow(self):
        u = initial_datum(GRID)
        out = strang_step(u, potential("zero"), DT)
        exact = free_propagator(u, DT, FractionalOrder(1.0))
        assert np.max(np.abs(out.values - exact.values)) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_unit_potential_contributes_global_phase(self, s):
        u = initial_datum(GRID)
        order = FractionalOrder(s)
        state = u
        for _ in range(3):
            state = strang_step(state, potential("constant_one"), DT, order)
        free = free_propagator(u, 3 * DT, order)
        expected = np.exp(-1j * DT * 3) * free.values
        assert np.max(np.abs(state.values - expected)) < 1e-10

    def test_norm_preserved_per_step(self):
        u = initial_datum(GRID)
        out = strang_step(u, potential("delta_squared", eps=0.05), DT)
        assert abs(l2_norm(out) - l2_norm(u)) < 1e-12

    def test_agrees_with_cn_on_harmonic(self):
        cfgs = [SolverConfig(backend=b, dt=DT, t_end=0.214, record_every=10**9)
                for b in BACKENDS]
        u = initial_datum(GRID)
        p = potential("harmonic_shifted")
        finals = [simulate(u, p, c).states[-1] for c in cfgs]
        assert gap(finals[0], finals[1]) < 5e-3


@pytest.mark.parametrize("backend,s", [("crank_nicolson", 1.0),
                                       ("spectral_strang", 0.75),
                                       ("spectral_strang", 1.0)])
def test_step_in_place_equals_fresh_out(backend, s):
    p = potential("delta_squared", eps=0.05).field.values
    stepper = fracschrod.solver._STEPPERS[backend](GRID, p, DT, FractionalOrder(s))
    v = np.array(initial_datum(GRID).values)
    for _ in range(10):
        fresh = stepper.step(v, np.empty_like(v))
        assert stepper.step(v, v) is v
        assert np.array_equal(v, fresh)


class TestSplitStepKernel:
    """The in-place Strang step against its arithmetic and its allocations."""

    @staticmethod
    def stepper(n, s=1.0):
        grid = make_grid(0.0, 10.0, n)
        p = potential("delta_squared", eps=0.05, grid=grid)
        return grid, fracschrod.solver._SplitStep(grid, p.field.values, DT, FractionalOrder(s))

    # n = 16384 is where numpy elides temporaries of an unnamed expression
    @pytest.mark.parametrize("s", [0.75, 1.0])
    @pytest.mark.parametrize("n", [1024, 4096, 16384])
    def test_step_equals_named_temporaries(self, n, s):
        grid, stepper = self.stepper(n, s)
        hp, kin = stepper._half_phase, stepper._kinetic
        v = initial_datum(grid).values
        for _ in range(30):
            a = hp * v
            b = np.fft.fft(a)
            c = kin * b
            d = np.fft.ifft(c)
            expected = hp * d
            v = stepper.step(v, np.empty_like(v))
            assert np.array_equal(v, expected)

    def test_step_allocates_nothing(self):
        n = 16384
        grid, stepper = self.stepper(n)
        v = np.array(initial_datum(grid).values)
        stepper.step(v, v)  # warm-up: FFT plans
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            out = stepper.step(v, v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is v
        # the FFT calls' Python-level bookkeeping: about a kilobyte, no array
        assert peak - baseline < n

    def test_recorded_states_share_no_memory(self):
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.05,
                           order=FractionalOrder(0.75))
        tr = simulate(initial_datum(GRID), potential("delta_squared", eps=0.05), cfg)
        arrays = [u.values for u in tr.states]
        assert len(arrays) == 6  # four full steps, a shortened one, the datum
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestStepPlan:
    def test_time_on_the_grid(self):
        assert step_plan(0.2996, 0.0107) == (28, 0.0)

    def test_time_off_the_grid(self):
        n_full, remainder = step_plan(0.2996, 0.01)
        assert n_full == 29
        assert remainder == 0.2996 - 29 * 0.01
        assert remainder == pytest.approx(0.0096)

    def test_time_shorter_than_a_step(self):
        assert step_plan(0.0214, 0.05) == (0, 0.0214)

    @pytest.mark.parametrize("offset", [1e-12, -1e-12])
    def test_time_within_tolerance_of_a_step(self, offset):
        assert step_plan(3 * 0.01 + offset, 0.01) == (3, 0.0)

    @pytest.mark.parametrize("t_end", [0.2996, 0.05, 0.0535])
    def test_simulate_takes_the_planned_steps(self, t_end):
        n_full, remainder = step_plan(t_end, DT)
        tr = simulate(initial_datum(GRID), potential("zero"), SolverConfig(dt=DT, t_end=t_end))
        assert len(tr.times) - 1 == n_full + (remainder > 0.0)
        assert tr.times[-1] == t_end


class TestSimulate:
    def test_peak_memory_is_bounded_by_the_records(self):
        n = 16384
        grid = make_grid(0.0, 10.0, n)
        p = potential("delta_squared", eps=0.05, grid=grid)
        u = initial_datum(grid)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=300 * DT, record_every=100)
        simulate(u, p, replace(cfg, t_end=DT))  # warm-up: FFT plans, wavenumber powers
        tracemalloc.start()
        try:
            tr = simulate(u, p, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n_records = len(tr.times)
        assert n_records == 4  # the datum, steps 100 and 200, the final state
        assert peak <= (n_records + 4) * n * 16

    def test_values_are_one_read_only_array_with_states_as_rows(self):
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=7.5 * DT, record_every=3,
                           order=FractionalOrder(0.75))
        tr = simulate(initial_datum(GRID), potential("delta"), cfg)
        assert tr.values.shape == (4, GRID.n) and tr.values.dtype == complex
        assert not tr.values.flags.writeable
        with pytest.raises(ValueError):
            tr.values[1, 0] = 1.0
        assert len(tr.states) == len(tr.values)
        for row, u in zip(tr.values, tr.states):
            assert np.shares_memory(u.values, row) and np.array_equal(u.values, row)

    def test_spectral_free_run_matches_exact_flow(self):
        u = initial_datum(GRID)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.214,
                           record_every=10**9)
        tr = simulate(u, potential("zero"), cfg)
        exact = free_propagator(u, 0.214, FractionalOrder(1.0))
        assert gap(tr.states[-1], exact) < 1e-12

    def test_zero_datum_stays_zero(self):
        u = ComplexField(GRID, np.zeros(GRID.n, dtype=complex))
        tr = simulate(u, potential("delta", eps=0.05), SolverConfig(t_end=0.0535))
        assert all(np.all(s.values == 0.0) for s in tr.states)

    def test_barrier_window_fills_up(self):
        # datum supported in [4.5, 5.5], singular site at x = 3
        u = initial_datum(GRID)
        cfg = SolverConfig(dt=DT, t_end=0.214, record_every=10**9)
        tr = simulate(u, potential("delta", eps=0.05), cfg)
        assert window_mass(u, 2.7, 3.3) == 0.0
        assert window_mass(tr.states[-1], 2.7, 3.3) > 0.0

    def test_cn_run_matches_one_pass_reference(self):
        # the blocked solve gives up bit-identity; the gap measured here is 7.9e-16
        grid = make_grid(0.0, 10.0, 256)
        p = potential("delta", grid=grid)
        t_end = 0.05  # four full steps, then a shortened one
        tr = simulate(initial_datum(grid), p, SolverConfig(dt=DT, t_end=t_end))
        assert len(tr.states) == 6 and 0.0 < t_end - 4 * DT < DT
        values = initial_datum(grid).values
        for state, h in zip(tr.states[1:], [DT] * 4 + [t_end - 4 * DT]):
            values = reference_cn_step(values, grid, p.field.values, h)
            assert np.max(np.abs(state.values - values)) <= 1e-13 * np.max(np.abs(values))

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mass_conserved(self, backend):
        u = initial_datum(GRID)
        cfg = SolverConfig(backend=backend, dt=DT, t_end=0.2996)
        tr = simulate(u, potential("delta_squared", eps=0.05), cfg)
        assert np.max(np.abs(tr.mass - tr.mass[0])) < 1e-9 * tr.mass[0]

    def test_default_setup_mass_after_28_steps(self):
        u = initial_datum(GRID)
        cfg = SolverConfig(dt=DT, t_end=28 * DT, record_every=10**9)
        tr = simulate(u, potential("delta", eps=0.05), cfg)
        assert abs(tr.mass[-1] - tr.mass[0]) < 1e-10

    def test_times_start_at_zero_and_land_on_t_end(self):
        u = initial_datum(GRID)
        cfg = SolverConfig(dt=DT, t_end=0.214)
        tr = simulate(u, potential("zero"), cfg)
        assert tr.times[0] == 0.0
        assert tr.times[-1] == 0.214
        assert np.all(np.diff(tr.times) > 0)

    def test_shortened_final_step(self):
        u = initial_datum(GRID)
        cfg = SolverConfig(dt=DT, t_end=0.03, record_every=10**9)
        tr = simulate(u, potential("zero"), cfg)
        assert tr.times[-1] == 0.03

    def test_record_every_thins_output(self):
        u = initial_datum(GRID)
        cfg = SolverConfig(dt=DT, t_end=10 * DT, record_every=5)
        tr = simulate(u, potential("zero"), cfg)
        assert np.allclose(tr.times, [0.0, 5 * DT, 10 * DT])

    def test_recorded_arrays_share_length(self):
        u = initial_datum(GRID)
        tr = simulate(u, potential("constant_one"), SolverConfig(dt=DT, t_end=5 * DT))
        assert (len(tr.times) == len(tr.states) == len(tr.mass)
                == len(tr.energy) == len(tr.hs_part) == len(tr.potential_part))

    def test_grid_mismatch_rejected(self):
        u = initial_datum(GRID)
        p = regularize_potential(PotentialSpec("zero"), make_grid(0.0, 10.0, 512), 0.3)
        with pytest.raises(ValueError):
            simulate(u, p, SolverConfig())

    # 16 states fill one stacked FFT block at n = 1024
    @pytest.mark.parametrize("n_records", [2, 15, 16, 17, 21])
    @pytest.mark.parametrize("backend,s", [("crank_nicolson", 1.0),
                                           ("spectral_strang", 0.75),
                                           ("spectral_strang", 1.0)])
    def test_observables_bit_identical_to_per_state(self, backend, s, n_records):
        order = FractionalOrder(s)
        p = potential("harmonic_shifted")
        cfg = SolverConfig(backend=backend, dt=DT, t_end=(n_records - 1) * DT, order=order)
        tr = simulate(initial_datum(GRID), p, cfg)
        assert len(tr.states) == n_records
        parts = [energy(u, p, order) for u in tr.states]
        assert np.array_equal(tr.mass, [l2_norm(u) for u in tr.states])
        assert np.array_equal(tr.hs_part, [hs_seminorm(u, s) for u in tr.states])
        assert np.array_equal(tr.hs_part, [q[0] for q in parts])
        assert np.array_equal(tr.potential_part, [q[1] for q in parts])
        assert np.array_equal(tr.energy, [q[2] for q in parts])

    def test_recorded_states_are_frozen_fields(self):
        tr = simulate(initial_datum(GRID), potential("delta"), SolverConfig(t_end=3 * DT))
        for u in tr.states:
            assert isinstance(u, ComplexField) and u.grid == GRID
            assert u.values.shape == (GRID.n,) and u.values.dtype == complex
            with pytest.raises(ValueError):
                u.values[0] = 1.0

    @pytest.mark.parametrize("bad", ["inf_real", "nan_imag"])
    def test_one_bad_component_aborts(self, monkeypatch, bad):
        def bad_step(self, values, out):
            out[...] = values
            out[700] = complex(np.inf, 0.0) if bad == "inf_real" else complex(1e-3, np.nan)
            return out

        monkeypatch.setattr(fracschrod.solver._SplitStep, "step", bad_step)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.214)
        with pytest.raises(NumericalAbort) as err:
            simulate(initial_datum(GRID), potential("zero"), cfg)
        assert err.value.step == 1
        assert np.isfinite(err.value.worst)

    def test_abort_in_shortened_last_step(self, monkeypatch):
        original = fracschrod.solver._SplitStep.step
        calls = []

        def step(self, values, out):
            calls.append(1)
            original(self, values, out)
            if len(calls) == 5:
                out *= np.nan
            return out

        monkeypatch.setattr(fracschrod.solver._SplitStep, "step", step)
        t_end = 0.05  # four full steps, then a shortened one
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=t_end)
        with pytest.raises(NumericalAbort) as err:
            simulate(initial_datum(GRID), potential("zero"), cfg)
        assert err.value.step == 5
        assert err.value.time == t_end

    def test_overflowing_modulus_of_finite_components_does_not_abort(self, monkeypatch):
        huge = 1.7e308 * (1 + 1j)  # finite parts, |huge| overflows to inf
        def flat_step(self, values, out):
            out.fill(huge)
            return out

        monkeypatch.setattr(fracschrod.solver._SplitStep, "step", flat_step)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=2 * DT)
        with np.errstate(over="ignore", invalid="ignore"):
            tr = simulate(initial_datum(GRID), potential("zero"), cfg)
        assert len(tr.states) == 3
        assert np.all(tr.states[-1].values == huge)

    def test_nan_state_aborts_with_diagnostics(self, monkeypatch):
        def bad_step(self, values, out):
            return np.multiply(values, np.nan, out=out)

        monkeypatch.setattr(fracschrod.solver._SplitStep, "step", bad_step)
        u = initial_datum(GRID)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.214)
        with pytest.raises(NumericalAbort) as err:
            simulate(u, potential("zero", eps=0.3), cfg)
        assert err.value.step == 1
        assert err.value.time == pytest.approx(DT)
        assert np.isfinite(err.value.worst)
        assert err.value.epsilon == 0.3

    def test_apriori_bound_on_regular_potentials(self):
        # sup_t ||u(t)|| <= C (1 + sup|p|) ||u0|| with one modest constant
        u = initial_datum(GRID)
        order = FractionalOrder(1.0)
        base = composite_norm(u, order)
        worst = 0.0
        for kind in ("zero", "constant_one", "harmonic_shifted"):
            p = potential(kind)
            tr = simulate(u, p, SolverConfig(dt=DT, t_end=0.2996))
            sup_traj = max(composite_norm(s, order) for s in tr.states)
            worst = max(worst, sup_traj / ((1 + sup_norm(p.field)) * base))
        assert worst <= 10.0


class TestTrajectoryValidation:
    @staticmethod
    def build(times, states):
        return Trajectory(times=np.array(times), values=np.array([u.values for u in states]),
                          potential=potential("delta").field, order=FractionalOrder(1.0))

    def test_rejects_nonzero_start(self):
        u = initial_datum(GRID)
        with pytest.raises(ValueError):
            self.build([0.1, 0.2], (u, u))

    def test_rejects_non_increasing_times(self):
        u = initial_datum(GRID)
        with pytest.raises(ValueError):
            self.build([0.0, 0.2, 0.2], (u, u, u))

    def test_rejects_length_mismatch(self):
        u = initial_datum(GRID)
        with pytest.raises(ValueError):
            self.build([0.0, 0.1], (u,))

    def test_rejects_states_off_the_potential_grid(self):
        u = initial_datum(make_grid(0.0, 10.0, 512))
        with pytest.raises(ValueError):
            self.build([0.0, 0.1], (u, u))

    # t_end = 7.5 dt: seven full steps, a shortened eighth, records at 0, 3, 6, t_end
    @pytest.mark.parametrize("backend,s", [("crank_nicolson", 1.0), ("spectral_strang", 0.75)])
    def test_observables_follow_the_recorded_states(self, backend, s):
        cfg = SolverConfig(backend=backend, dt=DT, t_end=7.5 * DT, order=FractionalOrder(s),
                           record_every=3)
        tr = simulate(initial_datum(GRID), potential("delta"), cfg)
        assert len(tr.times) == 4 and tr.times[-1] == 7.5 * DT
        assert (len(tr.mass) == len(tr.hs_part) == len(tr.potential_part)
                == len(tr.energy) == len(tr.times))

    def test_observables_are_read_only(self):
        tr = simulate(initial_datum(GRID), potential("delta"), SolverConfig(t_end=3 * DT))
        for name in ("mass", "hs_part", "potential_part", "energy"):
            with pytest.raises(ValueError):
                getattr(tr, name)[0] = 1.0


def test_numerical_abort_message_carries_width_tag():
    err = NumericalAbort(7, 0.0749, 1.5e3, epsilon=0.05)
    assert err.step == 7 and err.epsilon == 0.05
    assert "0.05" in str(err)
