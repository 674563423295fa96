import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

import fracschrod.harness
import fracschrod.solver
from fracschrod.grid import ComplexField, RealField, l2_norm, make_grid
from fracschrod.harness import (
    DEFAULT_EPSILONS,
    DENSITY_HEADER,
    DENSITY_NAME,
    FIG1_TIMES,
    FIG5_TIMES,
    REFERENCES,
    ExperimentConfig,
    config_hash,
    consistency_experiment,
    default_perturbation,
    delta_squared_energy_scaling,
    emit_figure_data,
    epsilon_sweep,
    prepared_datum,
    run_tables,
    single_run,
    uniqueness_experiment,
    write_csv,
)
from fracschrod.mollifier import (
    PotentialSpec,
    RegularizedPotential,
    mollify_samples,
    regularize_potential,
)
from fracschrod.observables import composite_norm, position_density
from fracschrod.operators import FractionalOrder
from fracschrod.solver import (
    BACKENDS,
    NumericalAbort,
    SolverConfig,
    Trajectory,
    initial_datum,
    run_pieces,
    simulate,
    step_plan,
)

DT = 0.0107


def quick_config(kind="delta", epsilons=(0.4, 0.2, 0.1), t_end=2 * DT, **kw):
    solver = kw.pop("solver", SolverConfig(dt=DT, t_end=t_end))
    return ExperimentConfig(potential=PotentialSpec(kind), epsilons=epsilons,
                            solver=solver, **kw)


def fractional_config():
    """n = 256, three widths, Strang at s = 0.75, every step recorded."""
    solver = SolverConfig(backend="spectral_strang", dt=DT, t_end=0.0642,
                          order=FractionalOrder(0.75))
    return quick_config(kind="delta_squared", epsilons=(0.4, 0.1, 0.05), n=256, solver=solver)


def density_columns(state):
    """The columns run_tables writes as a state's density table."""
    values = state.values
    return state.grid.nodes, values.real, values.imag, position_density(state).values


def one_call_distances(cfg, m):
    """uniqueness_experiment's distances from one whole simulate call per run."""
    grid = cfg.grid
    bump = fracschrod.harness.default_perturbation(grid, cfg.potential.site)
    distances = []
    for epsilon in cfg.epsilons:
        base = regularize_potential(cfg.potential, grid, epsilon)
        shifted = RegularizedPotential(
            epsilon, RealField(grid, base.field.values + epsilon**m * bump.values))
        datum = prepared_datum(cfg, epsilon)
        a_run = simulate(datum, base, cfg.solver)
        b_run = simulate(datum, shifted, cfg.solver)
        distances.append(max(l2_norm(ComplexField(grid, a.values - b.values))
                             for a, b in zip(a_run.states, b_run.states)))
    return tuple(distances)


def steps(config):
    """The steps a simulate call with config takes, which perfbench counts once per call."""
    n_full, remainder = step_plan(config.t_end, config.dt)
    return n_full + (remainder > 0.0)


def chain_cases(test):
    """Both backends x record_every 1, 7, 100 x dt on and off t_end's grid x three t_end."""
    for name, values in [("t_end", [0.214, 0.2996, 0.05]), ("dt", [DT, 0.001, 0.0013]),
                         ("every", [1, 7, 100]), ("backend", BACKENDS)]:
        test = pytest.mark.parametrize(name, values)(test)
    return test


@pytest.fixture
def pieces(monkeypatch):
    """Uniqueness runs go in pieces of 3 recorded intervals."""
    monkeypatch.setattr(fracschrod.harness, "PIECE_RECORDS", 3)
    return 3


class TestExperimentConfig:
    def test_epsilons_sorted_descending(self):
        cfg = quick_config(epsilons=(0.1, 0.4, 0.2))
        assert cfg.epsilons == (0.4, 0.2, 0.1)

    def test_rejects_empty_epsilons(self):
        with pytest.raises(ValueError):
            quick_config(epsilons=())

    @pytest.mark.parametrize("eps", [0.0, -0.2, 1.0001])
    def test_rejects_widths_outside_unit_interval(self, eps):
        with pytest.raises(ValueError):
            quick_config(epsilons=(eps,))

    def test_rejects_repeated_widths(self):
        # 0.2 and 0.20 are one width, given twice
        with pytest.raises(ValueError, match="^widths must be distinct$"):
            quick_config(epsilons=(0.4, 0.2, 0.20))

    def test_rejects_bad_grid_upfront(self):
        with pytest.raises(ValueError):
            quick_config(n=100)

    def test_grid_property(self):
        cfg = quick_config()
        assert cfg.grid.n == 1024
        assert cfg.grid.length == pytest.approx(10.0)

    def test_grid_built_once(self):
        cfg = quick_config()
        assert cfg.grid is cfg.grid
        fresh = quick_config()
        assert cfg == fresh and hash(cfg) == hash(fresh)

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.potential.kind == "delta"
        assert cfg.epsilons == DEFAULT_EPSILONS
        assert cfg.mollify_data is False


class TestConfigHash:
    def test_stable_across_equal_configs(self):
        assert config_hash(quick_config()) == config_hash(quick_config())

    def test_sensitive_to_each_knob(self):
        base = config_hash(quick_config())
        assert config_hash(quick_config(kind="delta_squared")) != base
        assert config_hash(quick_config(epsilons=(0.4, 0.2))) != base
        assert config_hash(quick_config(n=512)) != base
        assert config_hash(quick_config(t_end=3 * DT)) != base

    def test_whole_float_n_hashes_as_int(self):
        cfg = quick_config(n=1024.0)
        assert type(cfg.n) is int
        assert config_hash(cfg) == config_hash(quick_config(n=1024))

    def test_is_hex_digest(self):
        digest = config_hash(quick_config())
        assert len(digest) == 64
        assert all(c in "0123456789abcdef" for c in digest)


class TestSingleRun:
    def test_returns_trajectory_and_potential(self):
        cfg = quick_config()
        traj = single_run(cfg, 0.2)
        assert isinstance(traj, Trajectory)
        assert traj.times[0] == 0.0
        assert np.array_equal(traj.states[0].values, prepared_datum(cfg, 0.2).values)
        potential = regularize_potential(cfg.potential, cfg.grid, 0.2)
        assert traj.potential.grid == cfg.grid
        assert np.array_equal(traj.potential.values, potential.field.values)

    def test_rejects_width_out_of_range(self):
        with pytest.raises(ValueError):
            single_run(quick_config(), 1.5)

    def test_mollify_data_changes_datum(self):
        plain = single_run(quick_config(), 0.4).states[0]
        smoothed = single_run(quick_config(mollify_data=True), 0.4).states[0]
        assert np.max(np.abs(plain.values - smoothed.values)) > 1e-6


class TestEpsilonSweep:
    def test_records_follow_config_order(self):
        report = epsilon_sweep(quick_config())
        assert tuple(r.epsilon for r in report.records) == (0.4, 0.2, 0.1)

    def test_delta_potential_slope_near_one(self):
        report = epsilon_sweep(quick_config(epsilons=(0.8, 0.4, 0.2, 0.1)))
        assert abs(report.potential_moderateness_n - 1.0) < 0.05
        assert not report.potential_fit_flagged

    def test_delta_squared_slope_near_two(self):
        report = epsilon_sweep(quick_config(kind="delta_squared",
                                            epsilons=(0.8, 0.4, 0.2, 0.1)))
        assert abs(report.potential_moderateness_n - 2.0) < 0.05

    def test_zero_potential_has_no_potential_fit(self):
        report = epsilon_sweep(quick_config(kind="zero"))
        assert report.potential_moderateness_n is None
        assert report.solution_moderateness_n is not None
        assert abs(report.solution_moderateness_n) < 1e-8

    def test_two_widths_leave_fits_empty(self):
        report = epsilon_sweep(quick_config(epsilons=(0.4, 0.2)))
        assert report.potential_moderateness_n is None
        assert not report.potential_fit_flagged

    def test_sup_composite_norm_is_max_over_states(self):
        cfg = fractional_config()
        report = epsilon_sweep(cfg)
        for rec in report.records:
            tr = single_run(cfg, rec.epsilon)
            assert rec.sup_composite_norm == max(
                composite_norm(u, cfg.solver.order) for u in tr.states)
            assert rec.final_composite_norm == composite_norm(tr.states[-1], cfg.solver.order)

    def test_disjoint_supports_give_zero_window_mass_at_start(self):
        report = epsilon_sweep(quick_config(t_end=0.214))
        for rec in report.records:
            assert rec.window_mass_at_site > 0.0
            assert rec.final_mass == pytest.approx(0.009848179605063479, rel=1e-6)


class TestUniqueness:
    def test_quadratic_perturbation_decays_quadratically(self):
        cfg = quick_config(epsilons=(0.4, 0.2, 0.1, 0.05), t_end=0.214)
        report = uniqueness_experiment(cfg, m=2.0)
        assert 1.8 < report.decay_rate < 2.3

    def test_linear_perturbation_on_constant_background(self):
        cfg = quick_config(kind="constant_one", epsilons=(0.4, 0.2, 0.1, 0.05),
                           t_end=0.214)
        report = uniqueness_experiment(cfg, m=1.0)
        assert 0.8 < report.decay_rate < 1.3

    def test_two_widths_give_no_fit(self):
        report = uniqueness_experiment(quick_config(epsilons=(0.4, 0.2)), m=2.0)
        assert len(report.distances) == 2 and all(d > 0.0 for d in report.distances)
        assert report.decay_rate is None
        assert report.residual is None

    def test_distances_match_per_state_l2_gap(self):
        cfg = fractional_config()
        report = uniqueness_experiment(cfg, m=2.0)
        assert all(d > 0.0 for d in report.distances)
        assert report.distances == one_call_distances(cfg, 2.0)

    @staticmethod
    def check_chain_matches_one_call(backend, every, dt, t_end):
        order = FractionalOrder(0.75 if backend == "spectral_strang" else 1.0)
        solver = SolverConfig(backend=backend, dt=dt, t_end=t_end, order=order,
                              record_every=every)
        chain = run_pieces(solver, fracschrod.harness.PIECE_RECORDS)
        assert sum(steps(piece) for piece, _ in chain) == steps(solver)
        cfg = quick_config(epsilons=(0.4, 0.1), n=256, solver=solver)
        distances = uniqueness_experiment(cfg, m=2.0).distances
        assert np.array_equal(distances, one_call_distances(cfg, 2.0))

    @chain_cases
    def test_pieces_match_one_call(self, pieces, backend, every, dt, t_end):
        self.check_chain_matches_one_call(backend, every, dt, t_end)

    @chain_cases
    def test_default_pieces_match_one_call(self, backend, every, dt, t_end):
        # most of these runs record at most PIECE_RECORDS intervals: a chain
        # of one whole piece, and a shortened step off t_end's grid
        self.check_chain_matches_one_call(backend, every, dt, t_end)

    def test_pieces_skip_the_step_the_run_does_not_record(self, monkeypatch, pieces):
        # 299 full steps and a shortened one at record_every 7: the run does
        # not record step 299, the last of a piece.  A strong perturbation
        # makes the gap swing from step to step, so comparing that step
        # would raise the distance at eps 0.1
        monkeypatch.setattr(fracschrod.harness, "default_perturbation",
                            lambda grid, site: RealField(
                                grid, 3000 * default_perturbation(grid, site).values))
        solver = SolverConfig(dt=0.001, t_end=0.2996, record_every=7)
        assert [last for _, last in run_pieces(solver, pieces)].count(False) == 1
        cfg = quick_config(epsilons=(0.4, 0.1), n=256, solver=solver)
        distances = uniqueness_experiment(cfg, m=2.0).distances
        assert np.array_equal(distances, one_call_distances(cfg, 2.0))

    def test_abort_in_a_later_piece_is_the_whole_runs(self, monkeypatch, pieces):
        # a Crank-Nicolson state turns NaN once the spreading packet's peak
        # falls below 0.0085, at step 6, the last of the second piece: the
        # fault follows the state, as each piece builds its own stepper
        original = fracschrod.solver._ThomasFactor.solve

        def fading(self, rhs, out):
            original(self, rhs, out)
            if np.abs(out).max() < 0.0085:
                out[:] = np.nan
            return out

        monkeypatch.setattr(fracschrod.solver._ThomasFactor, "solve", fading)
        cfg = quick_config(epsilons=(0.4, 0.2, 0.1), n=256, t_end=8 * DT)
        assert len(run_pieces(cfg.solver, pieces)) == 3
        with pytest.raises(NumericalAbort) as whole:
            single_run(cfg, 0.4)
        with pytest.raises(NumericalAbort) as err:
            uniqueness_experiment(cfg)
        assert whole.value.step == 6
        assert (err.value.step, err.value.time, err.value.worst, err.value.epsilon) == \
            (whole.value.step, whole.value.time, whole.value.worst, 0.4)
        assert err.value.__context__ is None

    def test_rejects_exponent_below_one(self):
        with pytest.raises(ValueError):
            uniqueness_experiment(quick_config(), m=0.5)

    def test_default_perturbation_is_unit_bump(self):
        g = make_grid(0.0, 8.0, 1024)  # center lands on a node
        bump = default_perturbation(g, 3.0)
        assert np.max(bump.values) == pytest.approx(1.0, rel=1e-12)
        assert np.min(bump.values) >= 0.0
        assert np.all(bump.values[np.abs(g.nodes - 3.0) >= 1.0] == 0.0)

    @pytest.mark.parametrize("x_min, x_max", [(2.5, 12.5), (-5.0, 3.5)])
    def test_default_perturbation_rejects_support_cut_by_domain(self, x_min, x_max):
        with pytest.raises(ValueError, match="perturbation support"):
            default_perturbation(make_grid(x_min, x_max, 256), 3.0)

    def test_default_perturbation_may_touch_the_ends(self):
        bump = default_perturbation(make_grid(2.0, 4.0, 256), 3.0)
        assert bump.values[0] == 0.0


class TestConsistency:
    def test_rejects_singular_kinds(self):
        with pytest.raises(ValueError):
            consistency_experiment(quick_config(kind="delta"))

    def test_rejects_unknown_reference(self):
        with pytest.raises(ValueError):
            consistency_experiment(quick_config(kind="zero"), reference="coarse")

    def test_zero_potential_is_exact(self):
        cfg = quick_config(kind="zero", t_end=0.0535)
        report = consistency_experiment(cfg, reference="matched")
        assert all(e <= 1e-12 for e in report.errors)

    def test_constant_potential_is_exact(self):
        cfg = quick_config(kind="constant_one", t_end=0.0535)
        report = consistency_experiment(cfg, reference="matched")
        assert all(e <= 1e-10 for e in report.errors)

    def test_harmonic_errors_shrink_with_width(self):
        cfg = quick_config(kind="harmonic_shifted", epsilons=(0.8, 0.4, 0.2, 0.1),
                           t_end=0.0535)
        report = consistency_experiment(cfg, reference="matched")
        assert report.strictly_decreasing
        assert report.errors[-1] < report.errors[0]

    @pytest.mark.parametrize("mollify_data", [False, True])
    @pytest.mark.parametrize("reference", ["fine", "matched"])
    def test_errors_match_a_hand_built_reference(self, reference, mollify_data):
        # the reference grid, datum, exact potential and solve, built one by one
        cfg = quick_config(kind="harmonic_shifted", n=256, mollify_data=mollify_data)
        refine, substeps = REFERENCES[reference]
        solver = replace(cfg.solver, record_every=10**9)
        ref_grid = make_grid(cfg.x_min, cfg.x_max, refine * cfg.n)
        exact = regularize_potential(cfg.potential, ref_grid, cfg.epsilons[0])
        ref = simulate(initial_datum(ref_grid), exact, replace(solver, dt=solver.dt / substeps))
        ref_values = ref.states[-1].values[::refine]
        expected = []
        for eps in cfg.epsilons:
            samples = regularize_potential(cfg.potential, cfg.grid, eps).field.values
            smoothed = RegularizedPotential(
                eps, RealField(cfg.grid, mollify_samples(samples, cfg.grid, eps)))
            final = simulate(prepared_datum(cfg, eps), smoothed, solver).states[-1]
            expected.append(l2_norm(ComplexField(cfg.grid, final.values - ref_values)))
        report = consistency_experiment(cfg, reference=reference)
        assert report.errors == tuple(expected)

    @pytest.mark.parametrize("reference", ["fine", "matched"])
    def test_reference_abort_names_the_largest_width(self, monkeypatch, reference):
        # the unsmoothed reference runs first, sampled at the largest width
        monkeypatch.setattr(fracschrod.solver._SplitStep, "_column_flow",
                            lambda self, rc: np.multiply(rc, np.nan, out=rc))
        solver = SolverConfig(backend="spectral_strang", dt=DT, t_end=2 * DT)
        cfg = quick_config(kind="harmonic_shifted", n=256, solver=solver)
        with pytest.raises(NumericalAbort) as err:
            consistency_experiment(cfg, reference=reference)
        assert err.value.epsilon == cfg.epsilons[0] == 0.4


class TestEnergyScaling:
    def test_zero_potential_peaks_are_flat(self):
        cfg = quick_config(kind="zero", t_end=0.0535)
        report = delta_squared_energy_scaling(cfg)
        assert report.ratio == pytest.approx(1.0, abs=1e-9)
        assert not report.in_band

    def test_report_counts_one_peak_per_width(self):
        cfg = quick_config(kind="delta_squared", epsilons=(0.4, 0.2, 0.1),
                           t_end=0.0535)
        report = delta_squared_energy_scaling(cfg)
        assert len(report.max_energies) == 3
        assert all(e > 0 for e in report.max_energies)


class TestObservablesOnDemand:
    """A trajectory computes its observables on first read, once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counted = []
        original = fracschrod.solver.state_observables

        def counting(*args, **kwargs):
            counted.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fracschrod.solver, "state_observables", counting)
        return counted

    def test_uniqueness_computes_none(self, calls):
        uniqueness_experiment(fractional_config())
        assert len(calls) == 0

    def test_matched_consistency_computes_none(self, calls):
        cfg = replace(fractional_config(), potential=PotentialSpec("harmonic_shifted"))
        consistency_experiment(cfg, reference="matched")
        assert len(calls) == 0

    def test_sweep_computes_one_pass_per_width(self, calls):
        cfg = fractional_config()
        epsilon_sweep(cfg)
        assert len(calls) == len(cfg.epsilons) == 3

    def test_repeated_reads_compute_once(self, calls):
        tr = single_run(fractional_config(), 0.1)
        for _ in range(2):
            parts = (tr.mass, tr.hs_part, tr.potential_part, tr.energy)
            assert all(len(a) == len(tr.times) for a in parts)
        assert len(calls) == 1


class TestOneWidthAtATime:
    """No driver keeps an earlier width's trajectories while the next runs."""

    @pytest.fixture
    def alive(self, monkeypatch):
        """Per simulate call, how many earlier runs are still alive.

        A run is alive while its trajectory or its record array is: a kept
        row or state keeps the whole array.
        """
        counts, refs = [], []
        original = fracschrod.harness.simulate

        def tracking(*args, **kwargs):
            counts.append(sum(any(ref() is not None for ref in pair) for pair in refs))
            trajectory = original(*args, **kwargs)
            refs.append((weakref.ref(trajectory), weakref.ref(trajectory.values)))
            return trajectory

        monkeypatch.setattr(fracschrod.harness, "simulate", tracking)
        return counts

    def test_uniqueness_keeps_one_pair(self, alive):
        uniqueness_experiment(fractional_config())
        assert alive == [0, 1] * 3

    def test_uniqueness_pieces_keep_one_pair(self, alive, pieces):
        # 6 recorded steps: two pieces of 3 per run
        cfg = fractional_config()
        assert len(run_pieces(cfg.solver, pieces)) == 2
        uniqueness_experiment(cfg)
        assert alive == [0, 1] * (2 * 3)

    def test_sweep_keeps_one_run(self, alive):
        epsilon_sweep(fractional_config())
        assert alive == [0] * 3

    def test_energy_scaling_keeps_one_run(self, alive):
        delta_squared_energy_scaling(fractional_config())
        assert alive == [0] * 3

    @pytest.mark.parametrize("reference", ["fine", "matched"])
    def test_consistency_keeps_only_the_reference(self, alive, reference):
        # the reference run's final state is compared with every width's
        cfg = replace(fractional_config(), potential=PotentialSpec("harmonic_shifted"))
        consistency_experiment(cfg, reference=reference)
        assert alive == [0, 1, 1, 1]

    @pytest.mark.parametrize("figure, runs", [
        ("fig1", 1), ("fig2", 3), ("fig3", 4), ("fig4", 3), ("fig5", 5)])
    def test_figures_keep_one_run(self, alive, tmp_path, figure, runs):
        cfg = quick_config(n=256)
        emit_figure_data(cfg, figure, str(tmp_path))
        assert alive == [0] * runs


class TestFigureEmission:
    def test_fig1_six_density_tables(self, tmp_path):
        cfg = quick_config(n=256, solver=SolverConfig(dt=DT, t_end=0.2996))
        files = emit_figure_data(cfg, "fig1", str(tmp_path))
        assert len(files) == 6
        assert sorted(os.listdir(tmp_path)) == sorted(files)

    def test_fig3_one_table_per_width(self, tmp_path):
        cfg = quick_config(n=256, t_end=0.214)
        assert len(emit_figure_data(cfg, "fig3", str(tmp_path))) == 4

    def test_fig4_energy_traces_stay_flat(self, tmp_path):
        cfg = quick_config(n=1024, solver=SolverConfig(dt=DT, t_end=0.2996))
        files = emit_figure_data(cfg, "fig4", str(tmp_path))
        assert len(files) == 3
        for name in files:
            rows = np.genfromtxt(tmp_path / name, delimiter=",", names=True)
            energies = rows["energy"]
            assert np.max(np.abs(energies - energies[0])) < 0.01 * energies[0]

    def test_fig5_density_and_energy_tables(self, tmp_path):
        cfg = quick_config(n=256, kind="delta_squared",
                           solver=SolverConfig(dt=DT, t_end=0.2996))
        assert len(emit_figure_data(cfg, "fig5", str(tmp_path))) == 8

    def test_density_table_recovers_squared_mass(self, tmp_path):
        cfg = quick_config(n=1024, t_end=0.214)
        emit_figure_data(cfg, "fig1", str(tmp_path))
        rows = np.genfromtxt(tmp_path / "density_t0.2140_eps0.05.csv",
                             delimiter=",", names=True)
        dx = 10.0 / 1024
        total = dx * np.sum(rows["density"])
        assert total == pytest.approx(0.009848179605063479**2, rel=1e-9)

    def test_emission_is_deterministic(self, tmp_path):
        cfg = quick_config(n=256, t_end=0.214)
        emit_figure_data(cfg, "fig3", str(tmp_path / "a"))
        emit_figure_data(cfg, "fig3", str(tmp_path / "b"))
        for name in os.listdir(tmp_path / "a"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize("solver", [
        SolverConfig(dt=0.01, t_end=0.2996),
        SolverConfig(backend="spectral_strang", dt=0.01, t_end=0.2996,
                     order=FractionalOrder(0.75)),
    ], ids=["crank_nicolson", "spectral_strang"])
    def test_off_grid_times_advance_the_dense_run(self, tmp_path, monkeypatch, solver):
        steps = []
        original = fracschrod.harness.simulate

        def counting(datum, potential, config):
            trajectory = original(datum, potential, config)
            steps.append(len(trajectory.times) - 1)  # every step is recorded
            return trajectory

        monkeypatch.setattr(fracschrod.harness, "simulate", counting)
        cfg = quick_config(n=256, solver=solver)
        emit_figure_data(cfg, "fig1", str(tmp_path))
        # 30 steps to 0.2996, then one shortened step to each of 0.0428,
        # 0.107, 0.1391 and 0.214; a run from t = 0 per missed time takes 82
        assert sum(steps) == 34
        grid = cfg.grid
        p = regularize_potential(PotentialSpec("delta"), grid, 0.05)
        for t in FIG1_TIMES[1:]:
            rerun = original(initial_datum(grid), p, replace(solver, t_end=t)).states[-1]
            write_csv(str(tmp_path / "rerun.csv"), DENSITY_HEADER, density_columns(rerun))
            assert (tmp_path / f"density_t{t:.4f}_eps0.05.csv").read_bytes() == \
                (tmp_path / "rerun.csv").read_bytes()

    def test_run_tables_records_every_step(self, tmp_path):
        # at record_every 3 the run's eleventh row is its final state, not step 10
        solver = SolverConfig(dt=DT, t_end=0.2996, record_every=3)
        cfg = quick_config(n=256, epsilons=(0.05,), solver=solver)
        files, trajectory = run_tables(cfg, 0.05, (0.1070, 0.2996), DENSITY_NAME, True,
                                       str(tmp_path))
        assert len(trajectory.times) == 29
        p = regularize_potential(cfg.potential, cfg.grid, 0.05)
        for name, t in zip(files, (0.1070, 0.2996)):
            rerun = simulate(initial_datum(cfg.grid), p, replace(solver, t_end=t)).states[-1]
            write_csv(str(tmp_path / "rerun.csv"), DENSITY_HEADER, density_columns(rerun))
            assert (tmp_path / name).read_bytes() == (tmp_path / "rerun.csv").read_bytes()

    def test_snapshots_before_the_first_full_step(self, tmp_path):
        # at dt 0.05 fig5's times 0.0214 and 0.0428 come before the first
        # full step and 0.0642 one full step plus a shortened one
        solver = SolverConfig(dt=0.05, t_end=0.2996)
        cfg = quick_config(n=256, solver=solver)
        emit_figure_data(cfg, "fig5", str(tmp_path))
        grid = cfg.grid
        p = regularize_potential(PotentialSpec("delta_squared"), grid, 0.05)
        for t in FIG5_TIMES[1:]:
            run = replace(solver, dt=min(t, solver.dt), t_end=t)
            rerun = simulate(initial_datum(grid), p, run).states[-1]
            write_csv(str(tmp_path / "rerun.csv"), DENSITY_HEADER, density_columns(rerun))
            assert (tmp_path / f"density_t{t:.4f}_eps0.05.csv").read_bytes() == \
                (tmp_path / "rerun.csv").read_bytes()

    @pytest.mark.parametrize("figure", ["fig1", "fig2", "fig3", "fig4", "fig5"])
    def test_abort_names_the_width(self, tmp_path, monkeypatch, figure):
        monkeypatch.setattr(fracschrod.solver._SplitStep, "_column_flow",
                            lambda self, rc: np.multiply(rc, np.nan, out=rc))
        solver = SolverConfig(backend="spectral_strang", dt=DT, t_end=2 * DT)
        with pytest.raises(NumericalAbort) as err:
            emit_figure_data(quick_config(n=256, solver=solver), figure, str(tmp_path))
        # the first width the figure runs
        assert err.value.epsilon == (0.035 if figure == "fig3" else 0.05)

    def test_rejects_unknown_figure(self, tmp_path):
        with pytest.raises(ValueError):
            emit_figure_data(quick_config(), "fig9", str(tmp_path))

    def test_requires_output_directory(self):
        with pytest.raises(TypeError):
            emit_figure_data(quick_config(), "fig1")


class TestCsvFormat:
    def test_floats_round_trip(self, tmp_path):
        path = tmp_path / "t.csv"
        vals = [0.009848179605063479, 1 / 3, 2.190344e-3]
        write_csv(str(path), ("a", "b", "c"), [[v] for v in vals])
        line = path.read_text().splitlines()[1]
        assert [float(tok) for tok in line.split(",")] == vals

    def test_unix_line_endings(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("a", "b"), [(1.0, 3.0), (2.0, 4.0)])
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_header_is_first_line(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("epsilon", "distance"), [(0.4,), (1e-5,)])
        assert path.read_text().splitlines()[0] == "epsilon,distance"

    def test_integer_cells_have_no_point(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(str(path), ("n", "x"), [(16,), (0.5,)])
        assert path.read_text().splitlines()[1] == "16,0.5"

    def test_cells_match_repr_of_float(self, tmp_path):
        path = tmp_path / "t.csv"
        rows = [(-0.0, 1e-05, 1.5e+16, 7, True),
                (np.float64(-0.0), np.float64(1e-05), np.float64(1.5e+16), np.int64(7),
                 np.bool_(False))]
        write_csv(str(path), ("a", "b", "c", "n", "flag"), zip(*rows))
        expected = [",".join(str(int(v)) if isinstance(v, (int, np.integer, np.bool_))
                             else repr(float(v)) for v in row) for row in rows]
        assert path.read_text().splitlines()[1:] == expected
        assert expected == ["-0.0,1e-05,1.5e+16,7,1", "-0.0,1e-05,1.5e+16,7,0"]

    def test_numpy_columns_match_lists(self, tmp_path):
        columns = (np.array([-0.0, 1e-05, 1.5e+16]), np.array([7, -3, 0], dtype=np.int64),
                   np.array([True, False, True]))
        write_csv(str(tmp_path / "a.csv"), ("x", "n", "flag"), columns)
        write_csv(str(tmp_path / "l.csv"), ("x", "n", "flag"), [c.tolist() for c in columns])
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "l.csv").read_bytes() == \
            b"x,n,flag\n-0.0,7,1\n1e-05,-3,0\n1.5e+16,0,1\n"

    def test_unequal_columns_raise(self, tmp_path):
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(str(path), ("a", "b"), ([1.0, 2.0], [3.0]))
        assert not path.exists()
