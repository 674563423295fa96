import numpy as np
import pytest

from fracschrod.grid import (
    ComplexField,
    Grid,
    RealField,
    hs_seminorm,
    l2_norm,
    make_grid,
    require_inside,
    require_same_grid,
)
from fracschrod.harness import default_perturbation
from fracschrod.mollifier import PotentialSpec, regularize_potential, scaled_mollifier
from fracschrod.solver import initial_datum

# independently derived reference values for the compactly supported
# initial bump (adaptive quadrature at tolerance 1e-12)
BUMP_L2 = 0.009848179605063479
BUMP_DERIV_L2 = 0.0467915156341152


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return ComplexField(grid, vals)


class TestGridConstruction:
    def test_standard_resolution(self):
        g = make_grid(0.0, 10.0, 1024)
        assert g.dx == pytest.approx(10.0 / 1024)
        assert g.length == pytest.approx(10.0)
        assert g.nodes[0] == 0.0
        assert g.nodes[-1] == pytest.approx(10.0 - g.dx)

    def test_unit_interval(self):
        g = make_grid(0.0, 1.0, 8)
        assert np.allclose(g.nodes, np.arange(8) / 8.0)

    def test_symmetric_interval(self):
        g = make_grid(-2.0, 2.0, 16)
        assert g.dx == 0.25
        assert g.nodes[0] == -2.0

    def test_wavenumbers_match_fftfreq(self):
        g = make_grid(0.0, 10.0, 64)
        assert np.allclose(g.wavenumbers, 2 * np.pi * np.fft.fftfreq(64, g.dx))

    @pytest.mark.parametrize("n", [12, 100, 1000])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            make_grid(0.0, 10.0, n)

    def test_rejects_fractional_n(self):
        # truncating would build 1024 nodes for a config that records n = 1024.7
        with pytest.raises(ValueError, match="whole number"):
            make_grid(0.0, 10.0, 1024.7)

    def test_integral_float_n_is_accepted(self):
        g = make_grid(0.0, 10.0, 1024.0)
        assert g.n == 1024 and isinstance(g.n, int)

    def test_direct_construction_rejects_float_n(self):
        # make_grid converts a whole float; the dataclass itself takes only integers
        with pytest.raises(ValueError, match="integer power of two.*1024.0"):
            Grid(0.0, 10.0, 1024.0)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_grid(0.0, 10.0, 4)

    @pytest.mark.parametrize("x_min, x_max", [(float("nan"), 10.0), (0.0, float("inf"))])
    def test_rejects_non_finite_endpoint(self, x_min, x_max):
        with pytest.raises(ValueError, match="^grid endpoints must be finite$"):
            make_grid(x_min, x_max, 16)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            make_grid(5.0, 5.0, 16)
        with pytest.raises(ValueError):
            make_grid(2.0, 1.0, 16)


class TestFields:
    def test_complex_field_shape_check(self):
        g = make_grid(0.0, 1.0, 16)
        with pytest.raises(ValueError):
            ComplexField(g, np.zeros(8, dtype=complex))

    def test_rejects_non_finite(self):
        g = make_grid(0.0, 1.0, 16)
        # a non-finite real part, and an imaginary part alone
        for sample in (np.nan, complex(0.0, np.nan), complex(0.0, np.inf)):
            bad = np.zeros(16, dtype=complex)
            bad[3] = sample
            with pytest.raises(ValueError):
                ComplexField(g, bad)
        with pytest.raises(ValueError):
            RealField(g, np.full(16, np.inf))

    def test_values_read_only(self):
        g = make_grid(0.0, 1.0, 16)
        f = ComplexField(g, np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    @pytest.mark.parametrize("cls, dtype", [(ComplexField, complex), (RealField, float)])
    def test_array_of_the_field_dtype_is_kept_and_frozen(self, cls, dtype):
        g = make_grid(0.0, 1.0, 16)
        a = np.ones(16, dtype=dtype)
        f = cls(g, a)
        assert f.values is a
        assert not a.flags.writeable

    def test_float_array_is_copied_into_a_complex_field(self):
        g = make_grid(0.0, 1.0, 16)
        a = np.ones(16)
        f = ComplexField(g, a)
        assert f.values is not a and not np.shares_memory(f.values, a)
        assert f.values.dtype == complex and not f.values.flags.writeable
        assert a.flags.writeable
        a[0] = 2.0
        assert f.values[0] == 1.0

    def test_require_same_grid(self):
        a = ComplexField(make_grid(0.0, 1.0, 16), np.ones(16, dtype=complex))
        b = ComplexField(make_grid(0.0, 2.0, 16), np.ones(16, dtype=complex))
        with pytest.raises(ValueError):
            require_same_grid(a, b)


class TestNorms:
    def test_l2_constant(self):
        g = make_grid(0.0, 10.0, 1024)
        f = ComplexField(g, np.ones(1024, dtype=complex))
        assert l2_norm(f) == pytest.approx(np.sqrt(10.0), rel=1e-14)

    def test_l2_zero(self):
        g = make_grid(0.0, 10.0, 64)
        assert l2_norm(ComplexField(g, np.zeros(64, dtype=complex))) == 0.0

    def test_l2_bump_against_quadrature(self):
        g = make_grid(0.0, 10.0, 4096)
        u = initial_datum(g)
        assert abs(l2_norm(u) - BUMP_L2) < 1e-6


class TestHsSeminorm:
    def test_constant_has_zero_seminorm(self):
        g = make_grid(0.0, 10.0, 64)
        f = ComplexField(g, np.full(64, 3.0 + 1j))
        assert hs_seminorm(f, 1.0) < 1e-13

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_single_mode(self, s):
        g = make_grid(0.0, 10.0, 128)
        k = 2 * np.pi / g.length
        f = ComplexField(g, np.exp(1j * k * g.nodes))
        assert hs_seminorm(f, s) == pytest.approx(k**s * l2_norm(f), rel=1e-12)

    def test_bump_matches_derivative_norm(self):
        g = make_grid(0.0, 10.0, 4096)
        u = initial_datum(g)
        assert abs(hs_seminorm(u, 1.0) - BUMP_DERIV_L2) < 1e-3

    def test_finite_difference_oracle_converges_at_order_two(self):
        # the s = 1 seminorm of the bump is spectrally exact well before
        # n = 1024, so a second order centered-difference derivative norm
        # must approach it with errors shrinking 4x per halving of dx
        errs = []
        for n in (1024, 2048, 4096):
            g = make_grid(0.0, 10.0, n)
            u = initial_datum(g)
            du = (np.roll(u.values, -1) - np.roll(u.values, 1)) / (2 * g.dx)
            fd = np.sqrt(g.dx * np.sum(np.abs(du) ** 2))
            errs.append(abs(hs_seminorm(u, 1.0) - fd))
        assert 3.2 < errs[0] / errs[1] < 4.8
        assert 3.2 < errs[1] / errs[2] < 4.8

    def test_homogeneity(self):
        g = make_grid(0.0, 10.0, 128)
        f = random_field(g, 6)
        scaled = ComplexField(g, 2.5 * f.values)
        assert hs_seminorm(scaled, 0.7) == pytest.approx(2.5 * hs_seminorm(f, 0.7))

    def test_triangle_inequality(self):
        g = make_grid(0.0, 10.0, 128)
        f, h = random_field(g, 7), random_field(g, 8)
        both = ComplexField(g, f.values + h.values)
        assert hs_seminorm(both, 1.0) <= hs_seminorm(f, 1.0) + hs_seminorm(h, 1.0) + 1e-12

    def test_rejects_negative_order(self):
        g = make_grid(0.0, 10.0, 64)
        f = ComplexField(g, np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            hs_seminorm(f, -0.5)


class TestWavenumberPower:
    def test_exact(self):
        g = make_grid(0.0, 10.0, 256)
        weights = g.wavenumber_power(0.75)
        assert np.array_equal(weights, np.abs(g.wavenumbers) ** 0.75)

    @pytest.mark.parametrize("s", [-0.5, np.nan, np.inf])
    def test_rejects_bad_order(self, s):
        with pytest.raises(ValueError):
            make_grid(0.0, 10.0, 64).wavenumber_power(s)


class TestRequireInside:
    GRID = make_grid(2.0, 4.0, 64)

    def test_support_touching_both_ends_passes(self):
        require_inside(self.GRID, 3.0, 1.0, "bump")

    @pytest.mark.parametrize("center", [2.9, 3.1])
    def test_support_crossing_an_end_is_rejected(self, center):
        with pytest.raises(ValueError) as err:
            require_inside(self.GRID, center, 1.0, "probe")
        a, b = center - 1.0, center + 1.0
        assert str(err.value) == (f"probe support [{a}, {b}] falls outside "
                                  f"the domain [2.0, 4.0)")

    # every bump placed on the grid goes through the one check
    @pytest.mark.parametrize("place, what", [
        (lambda g: scaled_mollifier(g, 0.5, center=1.8), "bump support"),
        (lambda g: regularize_potential(PotentialSpec("delta"), g, 0.5), "bump support"),
        (lambda g: regularize_potential(PotentialSpec("delta_squared"), g, 0.5), "bump support"),
        (lambda g: initial_datum(g), "packet support"),
        (lambda g: default_perturbation(g, 3.0), "perturbation support"),
    ])
    def test_callers_name_their_bump(self, place, what):
        grid = make_grid(2.8, 4.8, 256)  # cuts spike and perturbation at 2.8, packet at 4.8
        with pytest.raises(ValueError, match=f"^{what} .* falls outside the domain"):
            place(grid)
