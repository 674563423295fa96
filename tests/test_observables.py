import numpy as np
import pytest

from fracschrod.grid import ComplexField, RealField, hs_seminorm, l2_norm, make_grid
from fracschrod.mollifier import PotentialSpec, regularize_potential
from fracschrod.observables import (
    BLOCK_VALUES,
    composite_norm,
    count_local_maxima,
    energy,
    position_density,
    state_observables,
    window_mass,
)
from fracschrod.operators import FractionalOrder
from fracschrod.solver import initial_datum

BUMP_L2 = 0.009848179605063479
BUMP_DERIV_L2 = 0.0467915156341152

GRID = make_grid(0.0, 10.0, 1024)
BUMP = initial_datum(GRID)


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return ComplexField(grid, vals)


class TestPositionDensity:
    def test_zero_field(self):
        f = ComplexField(GRID, np.zeros(1024, dtype=complex))
        assert np.all(position_density(f).values == 0.0)

    def test_unimodular_constant(self):
        f = ComplexField(GRID, np.full(1024, (1 + 1j) / np.sqrt(2)))
        assert np.max(np.abs(position_density(f).values - 1.0)) < 1e-14

    def test_bump_peak(self):
        # x = 5 falls exactly on node 512, where the datum equals e^-4
        dens = position_density(BUMP).values
        assert np.argmax(dens) == 512
        assert dens[512] == pytest.approx(np.exp(-8.0), rel=1e-14)


class TestEnergy:
    def test_zero_field(self):
        f = ComplexField(GRID, np.zeros(1024, dtype=complex))
        p = regularize_potential(PotentialSpec("constant_one"), GRID, 0.3)
        hs, pot, total = energy(f, p, FractionalOrder(1.0))
        assert hs == 0.0 and pot == 0.0 and total == 0.0

    def test_disjoint_supports_kill_potential_part(self):
        # the datum lives in [4.5, 5.5], the singular site at x = 3
        for eps in (0.05, 0.3, 0.8):
            p = regularize_potential(PotentialSpec("delta"), GRID, eps)
            _, pot, _ = energy(BUMP, p, FractionalOrder(1.0))
            assert pot == 0.0

    def test_bump_parts_match_quadrature(self):
        g = make_grid(0.0, 10.0, 4096)
        u = initial_datum(g)
        p = regularize_potential(PotentialSpec("constant_one"), g, 0.3)
        hs, pot, _ = energy(u, p, FractionalOrder(1.0))
        assert abs(hs - BUMP_DERIV_L2) < 1e-5
        assert abs(pot - BUMP_L2) < 1e-5

    def test_parts_combine_pythagorean(self):
        f = random_field(GRID, 51)
        p = regularize_potential(PotentialSpec("harmonic_shifted"), GRID, 0.3)
        hs, pot, total = energy(f, p, FractionalOrder(0.8))
        assert total == pytest.approx(hs**2 + pot**2, rel=1e-12)

    def test_accepts_bare_field(self):
        p = regularize_potential(PotentialSpec("constant_one"), GRID, 0.3)
        assert energy(BUMP, p, FractionalOrder(1.0)) == energy(
            BUMP, p.field, FractionalOrder(1.0))

    def test_grid_mismatch_rejected(self):
        other = make_grid(0.0, 10.0, 512)
        p = regularize_potential(PotentialSpec("zero"), other, 0.3)
        with pytest.raises(ValueError):
            energy(BUMP, p, FractionalOrder(1.0))


class TestStateObservables:
    ROWS = BLOCK_VALUES // GRID.n  # states per stacked FFT block

    @pytest.mark.parametrize("count", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 5])
    @pytest.mark.parametrize("s", [0.75, 1.0])
    def test_bit_identical_to_one_state_formulas(self, count, s):
        # block edges: one state, a block short by one, a full block, one
        # state into the next block, and a ragged last block
        fields = [random_field(GRID, 100 + i) for i in range(count)]
        p = regularize_potential(PotentialSpec("harmonic_shifted"), GRID, 0.3).field
        mass, hs, pot, total = state_observables(
            GRID, [f.values for f in fields], p.values, s)
        ref_hs = [hs_seminorm(f, s) for f in fields]
        ref_pot = [float(np.sqrt(GRID.dx * np.sum(p.values * np.abs(f.values) ** 2)))
                   for f in fields]
        assert np.array_equal(mass, [l2_norm(f) for f in fields])
        assert np.array_equal(hs, ref_hs)
        assert np.array_equal(pot, ref_pot)
        assert np.array_equal(total, [h**2 + v**2 for h, v in zip(ref_hs, ref_pot)])
        assert np.array_equal(total, [energy(f, p, FractionalOrder(s))[2] for f in fields])

    @pytest.mark.parametrize("count", [1, ROWS, 2 * ROWS + 5])
    def test_two_dimensional_array_equals_list_of_rows(self, count):
        rows = np.array([random_field(GRID, 200 + i).values for i in range(count)])
        p = regularize_potential(PotentialSpec("harmonic_shifted"), GRID, 0.3).field
        from_array = state_observables(GRID, rows, p.values, 0.75)
        from_list = state_observables(GRID, list(rows), p.values, 0.75)
        for a, b in zip(from_array, from_list):
            assert np.array_equal(a, b)

    def test_energy_squares_python_floats(self):
        # numpy's square and Python's float ** 2 differ in the last bit for
        # about one value in a thousand; 3000 states make a difference certain
        grid = make_grid(0.0, 10.0, 64)
        rng = np.random.default_rng(3)
        states = list(rng.standard_normal((3000, 64)) + 1j * rng.standard_normal((3000, 64)))
        _, hs, pot, total = state_observables(grid, states, rng.random(64), 0.5)
        assert np.array_equal(total, [h**2 + v**2 for h, v in zip(hs.tolist(), pot.tolist())])

    def test_state_larger_than_a_block(self):
        grid = make_grid(0.0, 10.0, 2 * BLOCK_VALUES)
        fields = [random_field(grid, 7), random_field(grid, 8)]
        mass, hs, _, _ = state_observables(
            grid, [f.values for f in fields], np.zeros(grid.n), 1.0)
        assert np.array_equal(mass, [l2_norm(f) for f in fields])
        assert np.array_equal(hs, [hs_seminorm(f, 1.0) for f in fields])


class TestCompositeNorm:
    def test_zero_field(self):
        f = ComplexField(GRID, np.zeros(1024, dtype=complex))
        assert composite_norm(f, FractionalOrder(1.0)) == 0.0

    def test_constant_field(self):
        f = ComplexField(GRID, np.full(1024, 2.0 - 1.0j))
        expected = abs(2.0 - 1.0j) * np.sqrt(10.0)
        assert composite_norm(f, FractionalOrder(1.0)) == pytest.approx(expected, rel=1e-12)

    def test_is_sum_of_norm_and_seminorm(self):
        f = random_field(GRID, 52)
        order = FractionalOrder(1.3)
        assert composite_norm(f, order) == pytest.approx(
            l2_norm(f) + hs_seminorm(f, order.s), rel=1e-13)


class TestWindowMass:
    def test_full_domain_recovers_squared_norm(self):
        f = random_field(GRID, 53)
        assert window_mass(f, 0.0, 10.0) == pytest.approx(l2_norm(f) ** 2, rel=1e-12)

    def test_window_left_of_bump_is_empty(self):
        assert window_mass(BUMP, 0.0, 4.5) == 0.0

    def test_window_around_bump_holds_everything(self):
        assert window_mass(BUMP, 4.5, 5.5) == pytest.approx(
            l2_norm(BUMP) ** 2, rel=1e-12)

    def test_additive_over_split(self):
        f = random_field(GRID, 54)
        total = window_mass(f, 1.0, 9.0)
        parts = window_mass(f, 1.0, 4.0) + window_mass(f, 4.0, 9.0)
        assert parts == pytest.approx(total, rel=1e-12)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            window_mass(BUMP, 5.0, 5.0)
        with pytest.raises(ValueError):
            window_mass(BUMP, 6.0, 5.0)


class TestCountLocalMaxima:
    def test_single_bump(self):
        dens = position_density(BUMP)
        assert count_local_maxima(dens, 1e-9) == 1

    def test_zero_field(self):
        f = RealField(GRID, np.zeros(1024))
        assert count_local_maxima(f, 1e-9) == 0

    def test_two_bumps(self):
        x = GRID.nodes
        two = np.exp(-((x - 3.0) ** 2) / 0.02) + np.exp(-((x - 7.0) ** 2) / 0.02)
        assert count_local_maxima(RealField(GRID, two), 1e-3) == 2

    def test_floor_suppresses_small_wiggles(self):
        x = GRID.nodes
        vals = np.exp(-((x - 5.0) ** 2)) + 1e-6 * np.cos(40 * x)
        assert count_local_maxima(RealField(GRID, vals), 0.5) == 1

    def test_rejects_negative_floor(self):
        with pytest.raises(ValueError):
            count_local_maxima(position_density(BUMP), -1.0)
