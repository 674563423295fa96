import numpy as np
import pytest
from scipy.integrate import quad

from fracschrod.grid import RealField, make_grid
from fracschrod.mollifier import (
    PotentialSpec,
    RegularizedPotential,
    bump,
    bump_normalization,
    friedrichs_mollifier,
    moderateness_exponent,
    mollify_samples,
    regularize_potential,
    scaled_mollifier,
    sup_norm,
)

# quadrature-derived constants for the standard bump kernel
NORM_CONST = 2.2522836210435817
PEAK = 0.8285688398691055          # kernel value at the origin
KERNEL_SQ_MASS = 0.675116813009698  # integral of the squared kernel

# grid with the singular site x = 3 exactly on a node
SITE_GRID = make_grid(2.0, 4.0, 2048)


def test_normalization_constant():
    assert bump_normalization() == pytest.approx(NORM_CONST, rel=1e-10)
    assert abs(bump_normalization() - 2.2523) < 5e-4


def test_normalization_is_the_gauss_legendre_value_bit_for_bit():
    from numpy.polynomial.legendre import leggauss

    nodes, weights = leggauss(200)
    assert bump_normalization() == 1.0 / float(weights @ bump(nodes))


def test_kernel_peak_and_support():
    assert friedrichs_mollifier(np.array([0.0]))[0] == pytest.approx(PEAK, rel=1e-12)
    edge = friedrichs_mollifier(np.array([-1.0, 1.0, -1.7, 2.5]))
    assert np.all(edge == 0.0)


def test_kernel_even():
    y = np.linspace(0.0, 0.999, 200)
    assert np.array_equal(friedrichs_mollifier(y), friedrichs_mollifier(-y))


def test_kernel_unit_mass():
    mass, _ = quad(lambda y: friedrichs_mollifier(np.array([y]))[0], -1.0, 1.0)
    assert abs(mass - 1.0) < 1e-8


def test_kernel_matches_closed_form_exactly():
    y = np.linspace(-1.5, 1.5, 3001)
    inside = np.abs(y) < 1.0
    expected = np.zeros_like(y)
    expected[inside] = bump_normalization() * np.exp(1.0 / (y[inside] ** 2 - 1.0))
    assert np.array_equal(friedrichs_mollifier(y), expected)


class TestScaledMollifier:
    def test_width_one_is_plain_kernel(self):
        f = scaled_mollifier(SITE_GRID, 1.0, center=3.0)
        assert np.allclose(f.values, friedrichs_mollifier(SITE_GRID.nodes - 3.0))

    def test_peak_scales_inversely(self):
        f = scaled_mollifier(SITE_GRID, 0.05, center=3.0)
        assert sup_norm(f) == pytest.approx(PEAK / 0.05, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.8, 0.4, 0.2, 0.1, 0.05])
    def test_unit_mass(self, eps):
        f = scaled_mollifier(SITE_GRID, eps, center=3.0)
        assert abs(SITE_GRID.dx * np.sum(f.values) - 1.0) < 1e-6

    def test_rejects_width_outside_unit_interval(self):
        for eps in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                scaled_mollifier(SITE_GRID, eps, center=3.0)

    def test_rejects_support_leaving_domain(self):
        with pytest.raises(ValueError):
            scaled_mollifier(SITE_GRID, 0.5, center=2.2)


class TestMollifySamples:
    def test_reproduces_constants(self):
        vals = np.full(SITE_GRID.n, 1.75)
        out = mollify_samples(vals, SITE_GRID, 0.1)
        assert np.max(np.abs(out - 1.75)) < 1e-14

    def test_complex_input(self):
        vals = np.full(SITE_GRID.n, 1.0 + 2.0j)
        out = mollify_samples(vals, SITE_GRID, 0.1)
        assert np.max(np.abs(out - (1.0 + 2.0j))) < 1e-14

    def test_smooths_noise(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(SITE_GRID.n)
        out = mollify_samples(vals, SITE_GRID, 0.2)
        assert np.std(out) < 0.2 * np.std(vals)

    def test_preserves_nonnegativity(self):
        vals = np.abs(np.sin(SITE_GRID.nodes))
        assert np.min(mollify_samples(vals, SITE_GRID, 0.1)) >= 0.0

    @pytest.mark.parametrize("n, eps", [(8, 1.0), (16, 1.0), (16, 0.5), (16, 0.25)])
    def test_matches_direct_windowed_sum(self, n, eps):
        # the first two kernels (9 and 17 nodes) are longer than the grid
        g = make_grid(4.0, 6.0, n)
        vals = np.random.default_rng(n).standard_normal(n)
        half = int(np.floor(eps / g.dx))
        weights = friedrichs_mollifier(g.dx * np.arange(-half, half + 1) / eps)
        expected = np.empty(n)
        for j in range(n):
            k = np.arange(max(0, j - half), min(n, j + half + 1))
            w = weights[half + j - k]
            expected[j] = np.sum(w * vals[k]) / np.sum(w)
        out = mollify_samples(vals, g, eps)
        assert out.shape == (n,)
        assert np.allclose(out, expected, rtol=1e-13, atol=0.0)


    def test_rejects_samples_off_the_grid(self):
        with pytest.raises(ValueError, match=r"^expected 2048 samples, got shape \(1024,\)$"):
            mollify_samples(np.ones(1024), SITE_GRID, 0.1)


class TestPotentialSpec:
    def test_kind_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec("coulomb")

    @pytest.mark.parametrize("site", [float("nan"), float("inf")])
    def test_site_validation(self, site):
        with pytest.raises(ValueError, match="^site must be finite$"):
            PotentialSpec("delta", site=site)

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            PotentialSpec("delta", weight=0.0)

    def test_singular_flag(self):
        assert PotentialSpec("delta").is_singular
        assert PotentialSpec("delta_squared").is_singular
        assert not PotentialSpec("harmonic_shifted").is_singular


class TestRegularizePotential:
    def test_zero(self):
        g = make_grid(0.0, 10.0, 256)
        p = regularize_potential(PotentialSpec("zero"), g, 0.3)
        assert np.all(p.field.values == 0.0)

    def test_constant_one(self):
        g = make_grid(0.0, 10.0, 256)
        p = regularize_potential(PotentialSpec("constant_one"), g, 0.3)
        assert np.all(p.field.values == 1.0)

    def test_harmonic_exact_samples(self):
        g = make_grid(0.0, 10.0, 256)
        p = regularize_potential(PotentialSpec("harmonic_shifted"), g, 0.3)
        assert np.allclose(p.field.values, (g.nodes - 5.0) ** 2)

    @pytest.mark.parametrize("kind", ["delta", "delta_squared"])
    def test_spike_between_nodes_is_rejected(self, kind):
        # dx = 0.625: the node nearest site 3, 3.125, lies outside width 0.035
        g = make_grid(0.0, 10.0, 16)
        with pytest.raises(ValueError, match=r"^no node within 0\.035 of site 3: dx = 0\.625$"):
            regularize_potential(PotentialSpec(kind), g, 0.035)

    def test_spike_on_one_node_is_accepted(self):
        g = make_grid(0.0, 10.0, 16)  # node 3.125 lies inside width 0.2 of site 3
        p = regularize_potential(PotentialSpec("delta"), g, 0.2)
        assert np.count_nonzero(p.field.values) == 1

    def test_delta_peak_value(self):
        p = regularize_potential(PotentialSpec("delta"), SITE_GRID, 0.05)
        assert sup_norm(p.field) == pytest.approx(PEAK / (30 * 0.05), rel=1e-12)

    def test_delta_peak_on_coarser_grid(self):
        g = make_grid(0.0, 8.0, 1024)
        p = regularize_potential(PotentialSpec("delta"), g, 0.1)
        assert sup_norm(p.field) == pytest.approx(PEAK / 3.0, rel=1e-12)

    @pytest.mark.parametrize("eps", [0.8, 0.4, 0.2, 0.1, 0.05])
    def test_delta_mass(self, eps):
        p = regularize_potential(PotentialSpec("delta"), SITE_GRID, eps)
        assert abs(SITE_GRID.dx * np.sum(p.field.values) - 1.0 / 30.0) < 1e-6

    def test_delta_squared_peak_value(self):
        p = regularize_potential(PotentialSpec("delta_squared"), SITE_GRID, 0.05)
        assert sup_norm(p.field) == pytest.approx(PEAK**2 / (30 * 0.05**2), rel=1e-12)

    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05])
    def test_delta_squared_mass(self, eps):
        p = regularize_potential(PotentialSpec("delta_squared"), SITE_GRID, eps)
        mass = SITE_GRID.dx * np.sum(p.field.values)
        assert abs(mass - KERNEL_SQ_MASS / (30 * eps)) < 1e-6

    def test_delta_symmetric_about_site(self):
        p = regularize_potential(PotentialSpec("delta"), SITE_GRID, 0.1)
        v = p.field.values
        site = 1024  # node index of x = 3
        assert np.max(np.abs(v[site + 1:site + 100] - v[site - 1:site - 100:-1])) < 1e-12

    def test_delta_sup_strictly_decreasing_in_width(self):
        sups = [sup_norm(regularize_potential(PotentialSpec("delta"), SITE_GRID, e).field)
                for e in (0.05, 0.1, 0.2, 0.4, 0.8)]
        assert all(a > b for a, b in zip(sups, sups[1:]))

    @pytest.mark.parametrize("eps", [0.4, 0.2, 0.1, 0.05])
    def test_delta_squared_sup_quadruples_per_halving(self, eps):
        fine = regularize_potential(PotentialSpec("delta_squared"), SITE_GRID, eps)
        coarse = regularize_potential(PotentialSpec("delta_squared"), SITE_GRID, 2 * eps)
        assert sup_norm(fine.field) / sup_norm(coarse.field) == pytest.approx(4.0, abs=1e-6)

    def test_nonnegative(self):
        for kind in ("delta", "delta_squared"):
            p = regularize_potential(PotentialSpec(kind), SITE_GRID, 0.1)
            assert np.min(p.field.values) >= 0.0

    def test_rejects_site_outside_domain(self):
        g = make_grid(0.0, 2.0, 256)
        with pytest.raises(ValueError):
            regularize_potential(PotentialSpec("delta"), g, 0.1)

    def test_rejects_support_touching_boundary(self):
        g = make_grid(2.8, 4.8, 256)
        with pytest.raises(ValueError):
            regularize_potential(PotentialSpec("delta"), g, 0.5)


class TestRegularizedPotential:
    def test_rejects_negative_samples(self):
        g = make_grid(0.0, 10.0, 64)
        with pytest.raises(ValueError):
            RegularizedPotential(0.3, RealField(g, np.full(64, -1.0)))

    def test_rejects_bad_width(self):
        g = make_grid(0.0, 10.0, 64)
        field = RealField(g, np.zeros(64))
        with pytest.raises(ValueError):
            RegularizedPotential(1.2, field)


class TestModeratenessExponent:
    def test_inverse_width_law(self):
        eps = np.array([0.8, 0.4, 0.2, 0.1, 0.05])
        slope, res = moderateness_exponent(eps, PEAK / (30 * eps))
        assert abs(slope - 1.0) < 0.01
        assert res < 1e-12

    def test_inverse_square_law(self):
        eps = np.array([0.4, 0.2, 0.1, 0.05])
        slope, res = moderateness_exponent(eps, 1.0 / eps**2)
        assert abs(slope - 2.0) < 0.01

    def test_constant_norms_give_zero_slope(self):
        slope, res = moderateness_exponent([0.4, 0.2, 0.1], [7.0, 7.0, 7.0])
        assert abs(slope) < 1e-10
        assert res < 1e-12

    def test_measured_sup_norms(self):
        eps = [0.8, 0.4, 0.2, 0.1, 0.05]
        sups = [sup_norm(regularize_potential(PotentialSpec("delta"), SITE_GRID, e).field)
                for e in eps]
        slope, _ = moderateness_exponent(eps, sups)
        assert abs(slope - 1.0) < 0.01

    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            moderateness_exponent([0.2, 0.1], [1.0, 2.0])

    def test_rejects_repeated_widths(self):
        with pytest.raises(ValueError, match="^epsilons must be positive and distinct$"):
            moderateness_exponent([0.4, 0.2, 0.2], [1.0, 2.0, 3.0])

    def test_rejects_nonpositive_norms(self):
        with pytest.raises(ValueError):
            moderateness_exponent([0.4, 0.2, 0.1], [1.0, 0.0, 2.0])
