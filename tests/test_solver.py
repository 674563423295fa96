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
    run_pieces,
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


def zero_coupling_bands(rng, n):
    """random_bands with lower[100:110] = 0: ten rows coupled to no row above."""
    lower, diag, upper, rhs = random_bands(rng, n)
    lower[100:110] = 0.0
    return lower, diag, upper, rhs


def dense(lower, diag, upper):
    return np.diag(diag) + np.diag(lower[1:], -1) + np.diag(upper[:-1], 1)


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
            x = solve_tridiagonal(lower, diag, upper, rhs)
            assert np.max(np.abs(x - np.linalg.solve(dense(lower, diag, upper), rhs))) < 1e-10

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
        # rows 16 and 17 are coupled to each other alone; the pivot of row 17
        # vanishes after eliminating row 16
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
    """The factor's prefix-sum solve against the one-pass Thomas sweep it replaces."""

    # tiny systems and the benchmark's interior sizes
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
        assert np.array_equal(bits(factor._pivots), bits(pivots))
        assert np.array_equal(bits(factor._multipliers[:n - 1]), bits(multipliers))

    @pytest.mark.parametrize("n", [17, 33, 1022])
    def test_segment_products_are_running_products(self, n):
        # forward c = -lower/pivot, its 1/P also dividing by the pivots;
        # backward c = -multiplier, rows reversed; the ignored lower[0] and
        # last multiplier read 0
        lower, diag, upper, _ = random_bands(np.random.default_rng(n), n)
        factor = fracschrod.solver._ThomasFactor(lower, diag, upper)
        lower[0] = 0.0
        forward = (-lower / factor._pivots).tolist()
        backward = (-factor._multipliers[::-1]).tolist()
        for coef, (products, inverses, segments), divisors in (
                (forward, factor._forward, factor._pivots), (backward, factor._backward, np.ones(n))):
            assert [s[0] for s in segments[1:]] == [s[1] for s in segments[:-1]]
            assert segments[0][0] == 0 and segments[-1][1] == n
            for start, stop, gain in segments:
                assert gain == coef[start]
                running, expected = 1.0, [1.0]
                for c in coef[start + 1:stop]:
                    running *= c
                    expected.append(running)
                expected = np.array(expected)
                stored = products[start:stop]
                assert np.all(np.abs(stored - expected) <= 1e-15 * np.abs(expected))
                assert np.all(np.abs(np.log(np.abs(stored))) <= 300)
                assert np.array_equal(inverses[start:stop], 1.0 / stored / divisors[start:stop])

    @pytest.mark.parametrize("n", [1022, 4094])
    def test_split_solve_matches_one_pass_sweep(self, n):
        # |c| is about 0.3, so the running products leave e^±300 within the rows
        lower, diag, upper, rhs = random_bands(np.random.default_rng(n), n)
        factor = fracschrod.solver._ThomasFactor(lower, diag, upper)
        assert len(factor._forward[2]) >= 2 and len(factor._backward[2]) >= 2
        x = factor.solve(rhs, np.empty(n, dtype=complex))
        reference = one_pass_thomas(lower, diag, upper, rhs)
        assert np.max(np.abs(x - reference)) <= 1e-14 * np.max(np.abs(reference))

    def test_zero_couplings_match_dense_solver(self):
        lower, diag, upper, rhs = zero_coupling_bands(np.random.default_rng(11), 400)
        x = solve_tridiagonal(lower, diag, upper, rhs)
        expected = np.linalg.solve(dense(lower, diag, upper), rhs)
        assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("scale", [1e100, 1e-100])
    def test_scaled_rhs_gives_scaled_solution(self, scale):
        lower, diag, upper, rhs = zero_coupling_bands(np.random.default_rng(13), 1022)
        expected = scale * solve_tridiagonal(lower, diag, upper, rhs)
        x = solve_tridiagonal(lower, diag, upper, scale * rhs)
        assert np.all(np.isfinite(x))
        assert np.max(np.abs(x - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_nan_rhs_reaches_every_row_across_zero_couplings(self):
        # the NaN enters above the zero couplings, so the forward sweep carries
        # it down only through their zero gains
        lower, diag, upper, rhs = zero_coupling_bands(np.random.default_rng(17), 400)
        rhs[50] = np.nan
        assert np.all(np.isnan(solve_tridiagonal(lower, diag, upper, rhs)))

    @pytest.mark.parametrize("kind", ["harmonic_shifted", "delta_squared"])
    @pytest.mark.parametrize("n, dt", [(1024, DT), (4096, DT), (16384, DT), (4096, DT / 8)])
    def test_crank_nicolson_factor_is_one_segment(self, kind, n, dt):
        # the running products decay by about 100 nats over the interior at DT
        # and by about 275 at DT / 8, within e^±300 in one segment
        grid = make_grid(0.0, 10.0, n)
        p = potential(kind, eps=0.035, grid=grid)
        stepper = fracschrod.solver._CrankNicolson(grid, p.field.values, dt, FractionalOrder(1.0))
        assert len(stepper._factor._forward[2]) == len(stepper._factor._backward[2]) == 1

    @pytest.mark.parametrize("n", [17, 1022])
    def test_non_finite_rhs_does_not_reach_the_next_solve(self, n):
        # a NaN solve fills every row of out with NaN; the factor must keep none of it
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
        fresh = fracschrod.solver._step(stepper, v, np.empty_like(v))
        assert fracschrod.solver._step(stepper, v, v) is v
        assert np.array_equal(v, fresh)


@pytest.mark.parametrize("backend", BACKENDS)
def test_step_equals_row_one_of_a_one_step_run(backend):
    u, p = initial_datum(GRID), potential("delta_squared", eps=0.05)
    cfg = SolverConfig(backend=backend, dt=DT, t_end=DT)
    stepper = fracschrod.solver._STEPPERS[backend](GRID, p.field.values, DT, cfg.order)
    stepped = fracschrod.solver._step(stepper, u.values, np.empty_like(u.values))
    assert np.array_equal(stepped, simulate(u, p, cfg).values[1])


class TestSplitStepKernel:
    """The in-place Strang step against its arithmetic and its allocations."""

    @staticmethod
    def stepper(n, s=1.0):
        grid = make_grid(0.0, 10.0, n)
        # a spike at least a node spacing wide, so a node samples it at every n
        p = potential("delta_squared", eps=max(0.05, grid.dx), grid=grid)
        return grid, fracschrod.solver._SplitStep(grid, p.field.values, DT, FractionalOrder(s))

    @staticmethod
    def four_step_free_flow(stepper, a):
        """The four-step F^-1 K F as named temporaries on the (R, C) view."""
        twiddle, conj_twiddle = stepper._twiddles
        b = np.fft.fft(a.reshape(twiddle.shape), axis=0)
        c = twiddle * b
        d = np.fft.fft(c, axis=1)
        e = stepper._kinetic * d
        f = np.fft.ifft(e, axis=1)
        g = conj_twiddle * f
        return np.fft.ifft(g, axis=0).reshape(a.shape)

    # n = 16384 is where numpy elides temporaries of an unnamed expression;
    # 1024 and 4096 are square splits below it, 32 x 32 and 64 x 64
    @pytest.mark.parametrize("s", [0.75, 1.0])
    @pytest.mark.parametrize("n", [1024, 4096, 16384])
    def test_step_equals_named_temporaries(self, n, s):
        grid, stepper = self.stepper(n, s)
        hp = stepper._half_phase
        v = initial_datum(grid).values
        for _ in range(30):
            a = hp * v
            d = self.four_step_free_flow(stepper, a)
            expected = hp * d
            v = fracschrod.solver._step(stepper, v, np.empty_like(v))
            assert np.array_equal(v, expected)

    # square splits (16 is 4 x 4) and non-square ones (2048 is 32 x 64)
    @pytest.mark.parametrize("n", [16, 64, 256, 1024, 2048, 4096, 8192, 16384, 32768])
    def test_four_step_matches_single_fft(self, n):
        for s in (0.75, 1.0):
            grid, stepper = self.stepper(n, s)
            rows, cols = stepper._twiddles[0].shape
            assert rows * cols == n and cols in (rows, 2 * rows)
            hp = stepper._half_phase
            kin = np.exp(-1j * DT * grid.wavenumber_power(2.0 * s))
            v = ref = initial_datum(grid).values
            for _ in range(30):
                v = fracschrod.solver._step(stepper, v, np.empty_like(v))
                ref = hp * np.fft.ifft(kin * np.fft.fft(hp * ref))
            assert np.max(np.abs(v - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_twiddles_are_shared_and_read_only(self):
        (_, first), (_, second) = self.stepper(16384), self.stepper(16384, 0.75)
        assert first._twiddles[0] is second._twiddles[0]
        twiddle, conj_twiddle = first._twiddles
        k1, n2 = np.indices(twiddle.shape)
        assert np.allclose(twiddle, np.exp(-2j * np.pi * k1 * n2 / 16384), rtol=0, atol=1e-15)
        assert np.array_equal(conj_twiddle, twiddle.conj())
        assert not twiddle.flags.writeable and not conj_twiddle.flags.writeable

    def test_step_allocates_nothing(self):
        n = 16384
        grid, stepper = self.stepper(n)
        v = np.array(initial_datum(grid).values)
        fracschrod.solver._step(stepper, v, v)  # warm-up: FFT plans
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            out = fracschrod.solver._step(stepper, v, v)
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


def stepped_rows(u, p, cfg):
    """The states simulate records for cfg, each step a one-step advance (_step)."""
    make, step = fracschrod.solver._STEPPERS[cfg.backend], fracschrod.solver._step
    n_full, remainder = step_plan(cfg.t_end, cfg.dt)
    stepper = make(u.grid, p.field.values, cfg.dt, cfg.order)
    v, rows = u.values, [u.values]
    for i in range(1, n_full + 1):
        v = step(stepper, v, np.empty_like(v))
        if i % cfg.record_every == 0 and (i < n_full or remainder):
            rows.append(v)
    if remainder:
        v = step(make(u.grid, p.field.values, remainder, cfg.order), v, np.empty_like(v))
    return np.array([*rows, v])


class TestStretch:
    """Unrecorded four-step steps in the column domain against step-by-step stepping."""

    @staticmethod
    def run(n, kind, eps, record_every, steps):
        grid = make_grid(0.0, 10.0, n)
        u, p = initial_datum(grid), potential(kind, eps=eps, grid=grid)
        # a shortened last step after the stretches
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=(steps + 0.3) * DT,
                           record_every=record_every)
        return u, p, cfg

    @pytest.mark.parametrize("kind,eps", [("delta", 0.035), ("delta", 0.15),
                                          ("delta_squared", 0.035), ("delta_squared", 0.15),
                                          ("zero", 0.3)])
    @pytest.mark.parametrize("record_every", [10, 100])
    @pytest.mark.parametrize("n", [1024, 4096, 8192, 16384])
    def test_recorded_rows_match_step_by_step(self, n, record_every, kind, eps):
        u, p, cfg = self.run(n, kind, eps, record_every, steps=2 * record_every + 5)
        stepper = fracschrod.solver._SplitStep(u.grid, p.field.values, DT, cfg.order)
        assert stepper._spike is not None
        tr = simulate(u, p, cfg)
        expected = stepped_rows(u, p, cfg)
        assert tr.values.shape == expected.shape == (4, n)
        for row, ref in zip(tr.values, expected):
            assert np.max(np.abs(row - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_spike_straddles_two_rows_at_16384(self):
        # site 3 at eps 0.035 covers nodes 4858-4973 of rows 37 and 38 of the 128 x 128 view
        u, p, cfg = self.run(16384, "delta_squared", 0.035, 10, steps=20)
        support = np.flatnonzero(p.field.values.reshape(128, 128).any(axis=1))
        assert support.tolist() == [37, 38]
        stepper = fracschrod.solver._SplitStep(u.grid, p.field.values, DT, cfg.order)
        assert len(stepper._spike[0]) == 2
        # the rank-2 update carries the spike's effect, far above the tolerance above
        free = simulate(u, potential("zero", grid=u.grid), cfg).values
        tr = simulate(u, p, cfg).values
        assert np.max(np.abs(tr - free)) > 1e-6 * np.max(np.abs(tr))

    @pytest.mark.parametrize("kind,record_every", [("harmonic_shifted", 10),
                                                   ("constant_one", 10),
                                                   ("delta_squared", 1)])
    def test_fallback_is_step_by_step_bit_for_bit(self, kind, record_every):
        u, p, cfg = self.run(16384, kind, 0.035, record_every, steps=20)
        stepper = fracschrod.solver._SplitStep(u.grid, p.field.values, DT, cfg.order)
        # dense p holds every row
        assert (stepper._spike is not None) == (kind == "delta_squared")
        tr = simulate(u, p, cfg)
        assert np.array_equal(tr.values, stepped_rows(u, p, cfg))

    # the other routes advance takes, each with a shortened last step: CN one
    # step at a time, and a dense four-step run recording every step
    @pytest.mark.parametrize("backend,n,kind,record_every",
                             [("crank_nicolson", 1024, "delta", 1),
                              ("spectral_strang", 8192, "harmonic_shifted", 1)])
    def test_every_route_is_step_by_step_bit_for_bit(self, backend, n, kind, record_every):
        u, p, cfg = self.run(n, kind, 0.035, record_every, steps=20)
        cfg = replace(cfg, backend=backend)
        assert np.array_equal(simulate(u, p, cfg).values, stepped_rows(u, p, cfg))

    def test_fft_calls_are_steps_plus_stretches(self, monkeypatch):
        # the spectral-long shape, 300 of its 1400 steps: three stretches of 100
        grid = make_grid(0.0, 10.0, 16384)
        cfg = SolverConfig(backend="spectral_strang", dt=0.000214, t_end=300 * 0.000214,
                           record_every=100)
        u, p = initial_datum(grid), potential("delta_squared", eps=0.035, grid=grid)
        assert step_plan(cfg.t_end, cfg.dt) == (300, 0.0)
        calls = {"fft": 0, "ifft": 0}
        for name in calls:
            def counted(*args, _original=getattr(np.fft, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        tr = simulate(u, p, cfg)
        assert len(tr.times) == 4
        assert calls == {"fft": 303, "ifft": 303}

    # the rank-2 update of delta_squared and the dense round trip of harmonic_shifted
    @pytest.mark.parametrize("kind", ["delta_squared", "harmonic_shifted"])
    def test_advance_allocates_nothing(self, monkeypatch, kind):
        n = 16384
        grid = make_grid(0.0, 10.0, n)
        p = potential(kind, eps=0.035, grid=grid)
        stepper = fracschrod.solver._SplitStep(grid, p.field.values, DT, FractionalOrder(1.0))
        v = np.array(initial_datum(grid).values)
        for _ in stepper.advance(v, v, 3):  # warm-up: FFT plans, what lies between steps
            pass
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            for _ in stepper.advance(v, v, 20):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < n
        # one step is never followed by another, so it builds no rank update
        made, init = [], fracschrod.solver._SplitStep.__init__
        monkeypatch.setattr(fracschrod.solver._SplitStep, "__init__",
                            lambda self, *args: made.append(self) or init(self, *args))
        strang_step(initial_datum(grid), p, DT)
        assert len(made) == 1 and "_spike" not in vars(made[0])

    @staticmethod
    def abort_at(monkeypatch, kind, j):
        """Put a NaN into step j's column-domain state and check the abort."""
        grid = make_grid(0.0, 10.0, 16384)
        # the time reverse of the packet at 30 DT: it refocuses, so each state
        # before the abort is taller than the last and worst depends on all of them
        spread = free_propagator(initial_datum(grid), 30 * DT, FractionalOrder(1.0))
        u = ComplexField(grid, np.conj(spread.values))
        p = potential(kind, eps=0.035, grid=grid)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=40 * DT, record_every=20)
        # the datum and the step-by-step states of steps 1 .. j-1
        before = stepped_rows(u, p, replace(cfg, t_end=j * DT, record_every=1))[:-1]
        assert np.argmax(np.abs(before.view(float)).max(axis=1)) == j - 1
        original, flows = fracschrod.solver._SplitStep._column_flow, []

        def column_flow(self, rc):
            original(self, rc)
            flows.append(1)
            if len(flows) == j:  # the column-domain state of step j
                rc.flat[700] = np.nan

        monkeypatch.setattr(fracschrod.solver._SplitStep, "_column_flow", column_flow)
        with pytest.raises(NumericalAbort) as err:
            simulate(u, p, cfg)
        # step j is unrecorded, and the abort retakes steps 1 .. j-1 for worst
        assert j % cfg.record_every and len(flows) == 2 * j - 1
        assert err.value.step == j
        assert err.value.time == j * DT
        assert err.value.epsilon == 0.035
        assert err.value.worst == np.max(np.abs(before.view(float)))
        assert err.value.worst < np.max(np.abs(before))

    @pytest.mark.parametrize("j", [1, 27])
    def test_nan_inside_a_stretch_keeps_the_step_by_step_diagnostics(self, monkeypatch, j):
        self.abort_at(monkeypatch, "delta_squared", j)

    def test_nan_in_a_dense_four_step_run_keeps_the_step_by_step_diagnostics(self, monkeypatch):
        # p != 0 on every row: advance takes F0^-1, H, H, F0 between steps
        self.abort_at(monkeypatch, "harmonic_shifted", 27)


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


class TestRunPieces:
    def test_a_run_of_at_most_records_intervals_is_one_piece(self):
        cfg = SolverConfig(dt=DT, t_end=0.2996)  # 28 steps
        (piece,) = run_pieces(cfg, 28)
        assert step_plan(piece.t_end, piece.dt) == (28, 0.0)
        assert replace(piece, t_end=cfg.t_end) == cfg
        assert len(run_pieces(cfg, 27)) == 2

    def test_plan_off_the_step_grid(self):
        # 29 full steps and a shortened one; every piece records every step
        cfg = SolverConfig(dt=0.01, t_end=0.2996, record_every=7)
        remainder = step_plan(0.2996, 0.01)[1]
        every_step = replace(cfg, record_every=1)
        assert run_pieces(cfg, 3) == [replace(every_step, t_end=3 * 0.01)] * 9 + [
            replace(every_step, t_end=2 * 0.01),
            replace(every_step, dt=remainder, t_end=remainder),
        ]

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("every", [1, 7])
    @pytest.mark.parametrize("dt", [DT, 0.01, 0.0013])
    def test_chained_pieces_record_the_run_bit_for_bit(self, backend, every, dt):
        grid = make_grid(0.0, 10.0, 256)
        p, u = potential("delta", eps=0.1, grid=grid), initial_datum(grid)
        cfg = SolverConfig(backend=backend, dt=dt, t_end=0.2996, record_every=every)
        whole = simulate(u, p, replace(cfg, record_every=1))
        rows, start = [u.values], u
        for piece in run_pieces(cfg, 3):
            values = simulate(start, p, piece).values
            rows += list(values[1:])
            start = ComplexField(grid, values[-1].copy())
        assert np.array_equal(np.array(rows), whole.values)


class TestSimulate:
    @staticmethod
    def patch_new_states(monkeypatch, backend, fault):
        """Call fault on each new state a step forms, before simulate checks it.

        A Crank-Nicolson step forms the state itself, its interior in the one
        _ThomasFactor.solve it makes, so the fault goes on that interior.  A
        Strang advance yields the column-domain state that
        _SplitStep._column_flow leaves, so the fault goes in there, on the
        flat view of that state.
        """
        if backend == "crank_nicolson":
            original = fracschrod.solver._ThomasFactor.solve

            def solve(self, rhs, out):
                original(self, rhs, out)
                fault(out)
                return out

            monkeypatch.setattr(fracschrod.solver._ThomasFactor, "solve", solve)
        else:
            original = fracschrod.solver._SplitStep._column_flow

            def column_flow(self, rc):
                original(self, rc)
                fault(rc.reshape(-1))

            monkeypatch.setattr(fracschrod.solver._SplitStep, "_column_flow", column_flow)

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

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_four_step_free_run_matches_exact_flow(self, s):
        grid = make_grid(0.0, 10.0, 16384)
        u, order = initial_datum(grid), FractionalOrder(s)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.3, order=order,
                           record_every=10**9)
        tr = simulate(u, potential("zero", grid=grid), cfg)
        assert tr.times[-1] == 0.3 and len(tr.times) == 2  # 28 steps and a shortened one
        assert gap(tr.states[-1], free_propagator(u, 0.3, order)) <= 1e-12

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
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_one_bad_component_aborts(self, monkeypatch, backend, bad):
        def bad_component(z):
            z[700] = complex(np.inf, 0.0) if bad == "inf_real" else complex(1e-3, np.nan)

        self.patch_new_states(monkeypatch, backend, bad_component)
        cfg = SolverConfig(backend=backend, dt=DT, t_end=0.214)
        with pytest.raises(NumericalAbort) as err:
            simulate(initial_datum(GRID), potential("zero"), cfg)
        assert err.value.step == 1
        assert np.isfinite(err.value.worst)

    def test_nan_entering_a_four_step_run_aborts_at_that_step(self, monkeypatch):
        original = fracschrod.solver._SplitStep._column_flow
        outputs = []

        def column_flow(self, rc):
            if len(outputs) == 2:  # a NaN at node 700 entering step 3: F0 fills its column
                rc[:, 700 % rc.shape[1]] = np.nan
            original(self, rc)
            outputs.append(rc.copy())

        monkeypatch.setattr(fracschrod.solver._SplitStep, "_column_flow", column_flow)
        grid = make_grid(0.0, 10.0, 16384)
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.214)
        with pytest.raises(NumericalAbort) as err:
            simulate(initial_datum(grid), potential("zero", grid=grid), cfg)
        assert err.value.step == 3
        assert np.all(np.isnan(outputs[2]))  # step 3's; the abort retakes steps 1 and 2

    def test_abort_in_shortened_last_step(self, monkeypatch):
        calls = []

        def fault(z):
            calls.append(1)
            if len(calls) == 5:
                z *= np.nan

        self.patch_new_states(monkeypatch, "spectral_strang", fault)
        t_end = 0.05  # four full steps, then a shortened one
        cfg = SolverConfig(backend="spectral_strang", dt=DT, t_end=t_end)
        with pytest.raises(NumericalAbort) as err:
            simulate(initial_datum(GRID), potential("zero"), cfg)
        assert err.value.step == 5
        assert err.value.time == t_end

    def test_overflowing_modulus_of_finite_components_does_not_abort(self, monkeypatch):
        # on Crank-Nicolson, whose yields are the states themselves: Strang's
        # column-domain yields overflow near 1e308/R (_SplitStep.advance)
        huge = 1.7e308 * (1 + 1j)  # finite parts, |huge| overflows to inf
        def flat_advance(self, values, out, steps):
            for _ in range(steps):
                out.fill(huge)
                yield out

        monkeypatch.setattr(fracschrod.solver._CrankNicolson, "advance", flat_advance)
        cfg = SolverConfig(backend="crank_nicolson", dt=DT, t_end=2 * DT)
        with np.errstate(over="ignore", invalid="ignore"):
            tr = simulate(initial_datum(GRID), potential("zero"), cfg)
        assert len(tr.states) == 3
        assert np.all(tr.states[-1].values == huge)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_nan_state_aborts_with_diagnostics(self, monkeypatch, backend):
        self.patch_new_states(monkeypatch, backend, lambda z: np.multiply(z, np.nan, out=z))
        u = initial_datum(GRID)
        cfg = SolverConfig(backend=backend, dt=DT, t_end=0.214)
        with pytest.raises(NumericalAbort) as err:
            simulate(u, potential("zero", eps=0.3), cfg)
        assert err.value.step == 1
        assert err.value.time == pytest.approx(DT)
        assert np.isfinite(err.value.worst)
        assert err.value.epsilon == 0.3

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_worst_is_the_largest_component_before_the_abort(self, monkeypatch, backend):
        # a rotated datum, so no state's largest |Re| or |Im| reaches the peak modulus
        u = ComplexField(GRID, np.exp(0.25j * np.pi) * initial_datum(GRID).values)
        p = potential("delta", eps=0.05)
        cfg = SolverConfig(backend=backend, dt=DT, t_end=2 * DT, record_every=1)
        before = simulate(u, p, cfg).values  # the datum and the first two states
        calls = []

        def fault(z):
            calls.append(1)
            if len(calls) == 3:
                z[700] = np.nan

        self.patch_new_states(monkeypatch, backend, fault)
        with pytest.raises(NumericalAbort) as err:
            simulate(u, p, replace(cfg, t_end=0.214))
        assert err.value.step == 3
        assert err.value.worst == np.max(np.abs(before.view(float)))
        assert err.value.worst < np.max(np.abs(before))

    # the last case faults step 3 inside a 20-step Strang segment
    @pytest.mark.parametrize("backend,record_every", [("crank_nicolson", 1),
                                                      ("spectral_strang", 1),
                                                      ("spectral_strang", 20)])
    def test_abort_chains_no_exception(self, monkeypatch, backend, record_every):
        calls = []

        def fault(z):
            calls.append(1)
            if len(calls) == 3:
                z[700] = np.nan

        self.patch_new_states(monkeypatch, backend, fault)
        cfg = SolverConfig(backend=backend, dt=DT, t_end=0.214, record_every=record_every)
        with pytest.raises(NumericalAbort) as err:
            simulate(initial_datum(GRID), potential("delta", eps=0.05), cfg)
        assert err.value.step == 3
        assert err.value.__context__ is None and err.value.__cause__ is None

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


class TestAbortRule:
    def test_aborts_exactly_on_a_non_finite_component(self):
        rng = np.random.default_rng(28)
        n, seen = 64, set()
        for _ in range(4000):
            # finite parts of both signs, magnitudes log-uniform up to 1.7e308
            parts = rng.choice([-1.0, 1.0], 2 * n) * 10.0 ** rng.uniform(-300, 308.23, 2 * n)
            for _ in range(rng.integers(0, 3)):
                node, part = rng.choice([0, n - 1, rng.integers(n)]), rng.integers(2)
                bad = rng.choice([np.nan, np.inf, -np.inf])
                parts[2 * node + part] = bad
                seen.add((node if node in (0, n - 1) else "inside", part, str(bad)))
            values = parts.view(complex)
            peak = fracschrod.solver._peak(values)
            if not np.isfinite(peak):
                assert not np.all(np.isfinite(values))
            else:
                assert np.all(np.isfinite(values)) and peak == np.max(np.abs(parts))
        assert len(seen) == 18  # NaN, inf and -inf in either part, at both ends and inside

    def test_check_allocates_nothing(self):
        n = 16384
        values = np.array(initial_datum(make_grid(0.0, 10.0, n)).values)
        check = fracschrod.solver._peak
        check(values)  # warm-up
        tracemalloc.start()
        try:
            baseline = tracemalloc.get_traced_memory()[0]
            check(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - baseline < n


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

    def test_rejects_one_dimensional_values(self):
        with pytest.raises(ValueError, match="^trajectory values must be a 2-D complex array$"):
            Trajectory(times=np.array([0.0]), values=initial_datum(GRID).values,
                       potential=potential("delta").field, order=FractionalOrder(1.0))

    def test_rejects_empty_trajectory(self):
        with pytest.raises(ValueError, match="^trajectory must hold at least the initial record$"):
            Trajectory(times=np.empty(0), values=np.empty((0, GRID.n), dtype=complex),
                       potential=potential("delta").field, order=FractionalOrder(1.0))

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
