import numpy as np
import pytest

from fracschrod.grid import ComplexField, hs_seminorm, l2_norm, make_grid
from fracschrod.operators import FractionalOrder, fractional_laplacian, free_propagator
from fracschrod.solver import initial_datum


def random_field(grid, seed):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return ComplexField(grid, vals)


def inner_product(f, g):
    """Discrete inner product dx * sum conj(f_j) g_j."""
    return complex(f.grid.dx * np.vdot(f.values, g.values))


class TestFractionalOrder:
    def test_default_is_classical(self):
        assert FractionalOrder().s == 1.0

    @pytest.mark.parametrize("s", [0.0, -1.0, 2.5, np.nan])
    def test_rejects_out_of_range(self, s):
        with pytest.raises(ValueError):
            FractionalOrder(s)

    def test_accepts_boundary_value(self):
        assert FractionalOrder(2.0).s == 2.0


class TestFractionalLaplacian:
    def test_annihilates_constants(self):
        g = make_grid(0.0, 10.0, 64)
        f = ComplexField(g, np.full(64, 4.0 + 1j))
        out = fractional_laplacian(f, FractionalOrder(1.0))
        assert np.max(np.abs(out.values)) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_single_mode_eigenvalue(self, s):
        g = make_grid(0.0, 10.0, 128)
        k = 2 * np.pi / g.length
        f = ComplexField(g, np.exp(1j * k * g.nodes))
        out = fractional_laplacian(f, FractionalOrder(s))
        assert np.max(np.abs(out.values - k ** (2 * s) * f.values)) < 1e-10

    def test_matches_second_difference_on_bump(self):
        g = make_grid(0.0, 10.0, 4096)
        u = initial_datum(g)
        lap = fractional_laplacian(u, FractionalOrder(1.0))
        v = u.values
        fd = -(np.roll(v, -1) - 2 * v + np.roll(v, 1)) / g.dx**2
        assert np.max(np.abs(lap.values - fd)) < 1e-2

    def test_second_difference_gap_shrinks_at_order_two(self):
        errs = []
        for n in (1024, 2048):
            g = make_grid(0.0, 10.0, n)
            u = initial_datum(g)
            lap = fractional_laplacian(u, FractionalOrder(1.0))
            v = u.values
            fd = -(np.roll(v, -1) - 2 * v + np.roll(v, 1)) / g.dx**2
            errs.append(np.max(np.abs(lap.values - fd)))
        assert 3.2 < errs[0] / errs[1] < 4.8

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_self_adjoint(self, s):
        g = make_grid(0.0, 10.0, 128)
        f, h = random_field(g, 21), random_field(g, 22)
        order = FractionalOrder(s)
        lhs = inner_product(fractional_laplacian(f, order), h)
        rhs = inner_product(f, fractional_laplacian(h, order))
        assert abs(lhs - rhs) < 1e-10 * abs(lhs)

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_quadratic_form_equals_seminorm(self, s):
        g = make_grid(0.0, 10.0, 128)
        f = random_field(g, 23)
        form = inner_product(fractional_laplacian(f, FractionalOrder(s)), f).real
        assert form == pytest.approx(hs_seminorm(f, s) ** 2, rel=1e-10)


class TestFreePropagator:
    def test_zero_time_is_identity(self):
        g = make_grid(0.0, 10.0, 128)
        f = random_field(g, 31)
        out = free_propagator(f, 0.0, FractionalOrder(1.0))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    @pytest.mark.parametrize("s", [0.5, 1.0, 1.5])
    def test_unitary(self, s):
        g = make_grid(0.0, 10.0, 256)
        f = random_field(g, 32)
        out = free_propagator(f, 0.7, FractionalOrder(s))
        assert l2_norm(out) == pytest.approx(l2_norm(f), rel=1e-13)

    def test_semigroup(self):
        g = make_grid(0.0, 10.0, 128)
        f = random_field(g, 33)
        order = FractionalOrder(1.0)
        one = free_propagator(free_propagator(f, 0.3, order), 0.4, order)
        once = free_propagator(f, 0.7, order)
        assert np.max(np.abs(one.values - once.values)) < 1e-12

    def test_reversible(self):
        g = make_grid(0.0, 10.0, 128)
        f = random_field(g, 34)
        order = FractionalOrder(1.0)
        back = free_propagator(free_propagator(f, 0.5, order), -0.5, order)
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_single_mode_phase(self):
        g = make_grid(0.0, 10.0, 128)
        k = 2 * np.pi / g.length
        f = ComplexField(g, np.exp(1j * k * g.nodes))
        out = free_propagator(f, 1.0, FractionalOrder(1.0))
        expected = np.exp(-1j * k**2) * f.values
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_rejects_non_finite_time(self):
        g = make_grid(0.0, 10.0, 64)
        f = ComplexField(g, np.ones(64, dtype=complex))
        with pytest.raises(ValueError):
            free_propagator(f, np.inf, FractionalOrder(1.0))
