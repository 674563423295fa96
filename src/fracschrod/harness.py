"""Experiment drivers on top of the solver.

Each driver takes one ExperimentConfig and returns a frozen report object:

* epsilon_sweep: run every width in the family, tabulate observables, fit
  log-log growth rates of the potential and of the solution.
* uniqueness_experiment: perturb the potential by eps^m times the unit bump
  on (site - 1, site + 1) and measure how fast the solutions pull together,
  by their largest L2 gap over every step.
* consistency_experiment: smooth a regular potential and compare against the
  unsmoothed reference as the width shrinks.
* emit_figure_data: write the density and energy tables behind the standard
  plots through run_tables; returns their names.
* delta_squared_energy_scaling: track the largest energy per width for the
  squared-bump model.

single_run builds one width's run and returns its trajectory, which holds
the potential samples and, as states[0], the datum; simulate's aborts
name the width.  The sweep, the energy scaling and the figures run every
width through it, one at a time, as does consistency's refined
reference.  Three kinds of run call simulate themselves: consistency's
smoothed runs, uniqueness's base and shifted runs, which it builds piece
by piece in lockstep, each piece recording every step (solver.run_pieces),
and a figure snapshot's shortened step.  Each driver keeps only what it
reports (a record, a gap, a peak, a file name), so at most one width's
runs are alive at once, and of uniqueness's runs at most one pair of
pieces.  run_tables is the one writer of density and energy tables, for
the simulate command and for every figure.  The figures are one table,
FIGURE_RUNS, and their snapshot times follow simulate's own step plan
(solver.step_plan).

CSV output is byte-deterministic: write_csv takes a table's columns, one
type per column, and writes floats by their shortest round-trip repr,
integers and flags as integers, with LF line endings; it makes its table's
directory.  Run metadata (config digest, timestamp) goes into
manifest.json next to the tables (cli.main writes it), never into the CSVs
or the reports.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .grid import ComplexField, Grid, RealField, l2_norm, make_grid, require_inside
from .mollifier import (
    REGULAR_KINDS,
    PotentialSpec,
    RegularizedPotential,
    _check_epsilon,
    bump,
    mollify_samples,
    moderateness_exponent,
    regularize_potential,
    sup_norm,
)
from .observables import count_local_maxima, position_density, window_mass
from .solver import (
    NumericalAbort,
    SolverConfig,
    Trajectory,
    initial_datum,
    run_pieces,
    simulate,
    step_plan,
)

__all__ = [
    "DEFAULT_EPSILONS",
    "REFERENCES",
    "ExperimentConfig",
    "SweepRecord",
    "SweepReport",
    "UniquenessReport",
    "ConsistencyReport",
    "EnergyScalingReport",
    "config_hash",
    "prepared_datum",
    "single_run",
    "epsilon_sweep",
    "default_perturbation",
    "uniqueness_experiment",
    "consistency_experiment",
    "delta_squared_energy_scaling",
    "check_figure",
    "emit_figure_data",
    "run_tables",
    "write_csv",
    "write_manifest",
]

DEFAULT_EPSILONS = (0.8, 0.4, 0.3, 0.15, 0.11, 0.08, 0.05, 0.035)

DENSITY_HEADER = ("x", "re_u", "im_u", "density")
ENERGY_HEADER = ("t", "mass", "energy", "hs_part", "potential_part")

WINDOW_HALF_WIDTH = 0.3
MAXIMA_FLOOR_FRACTION = 0.01
ENERGY_BAND = (50.0, 800.0)  # peak-energy ratio range of the squared-bump model

FIG1_TIMES = (0.0, 0.0428, 0.1070, 0.1391, 0.2140, 0.2996)
FIG2_TIMES = (0.0, 0.1070, 0.2140, 0.2996)
FIG3_TIME = 0.2140
FIG3_EPSILONS = (0.035, 0.08, 0.3, 0.8)
FIG4_EPSILONS = (0.05, 0.11, 0.49)
FIG5_TIMES = (0.0, 0.0214, 0.0428, 0.0642)
FIG5_ENERGY_EPSILONS = (0.05, 0.15, 0.25, 0.5)
# each potential kind's short name, in CLI flags and fig2's file names
POTENTIAL_TAGS = {"zero": "zero", "constant_one": "one", "harmonic_shifted": "harmonic",
                  "delta": "delta", "delta_squared": "delta2"}
DENSITY_NAME = "density_t{t:.4f}_eps{eps:g}.csv"
ENERGY_NAME = "energy_eps{eps:g}.csv"

# per figure, in run order: (potential kind, widths, snapshot times, density
# file name template, whether to write the energy table); a run with no
# snapshot times runs to cfg's t_end
FIGURE_RUNS = {
    "fig1": [("delta", (0.05,), FIG1_TIMES, DENSITY_NAME, False)],
    "fig2": [(kind, (0.05,), FIG2_TIMES, f"density_p{POTENTIAL_TAGS[kind]}_t{{t:.4f}}.csv", False)
             for kind in REGULAR_KINDS],
    "fig3": [("delta", FIG3_EPSILONS, (FIG3_TIME,), DENSITY_NAME, False)],
    "fig4": [("delta", FIG4_EPSILONS, (), None, True)],
    "fig5": [("delta_squared", (0.05,), FIG5_TIMES, DENSITY_NAME, False),
             ("delta_squared", FIG5_ENERGY_EPSILONS, (), None, True)],
}
FIGURES = tuple(FIGURE_RUNS)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: potential family, width list, solver, grid."""

    potential: PotentialSpec = PotentialSpec("delta")
    epsilons: tuple[float, ...] = DEFAULT_EPSILONS
    solver: SolverConfig = SolverConfig()
    x_min: float = 0.0
    x_max: float = 10.0
    n: int = 1024
    mollify_data: bool = False

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.epsilons)
        if not eps:
            raise ValueError("need at least one width")
        for e in eps:
            _check_epsilon(e)
        if len(set(eps)) != len(eps):
            raise ValueError("widths must be distinct")
        object.__setattr__(self, "epsilons", tuple(sorted(eps, reverse=True)))
        object.__setattr__(self, "n", self.grid.n)  # fail fast on a bad grid; n is an int

    @cached_property
    def grid(self) -> Grid:
        return make_grid(self.x_min, self.x_max, self.n)


def config_hash(cfg: ExperimentConfig) -> str:
    """sha256 over canonical key=value lines; stable across processes."""
    items = (
        ("backend", cfg.solver.backend),
        ("boundary", cfg.solver.boundary),
        ("dt", repr(float(cfg.solver.dt))),
        ("t_end", repr(float(cfg.solver.t_end))),
        ("order_s", repr(float(cfg.solver.order.s))),
        ("record_every", str(cfg.solver.record_every)),
        ("potential", cfg.potential.kind),
        ("site", repr(float(cfg.potential.site))),
        ("weight", repr(float(cfg.potential.weight))),
        ("epsilons", ";".join(repr(float(e)) for e in cfg.epsilons)),
        ("x_min", repr(float(cfg.x_min))),
        ("x_max", repr(float(cfg.x_max))),
        ("n", str(cfg.n)),
        ("mollify_data", str(int(cfg.mollify_data))),
    )
    blob = "\n".join(f"{k}={v}" for k, v in items) + "\n"
    return hashlib.sha256(blob.encode("ascii")).hexdigest()


def prepared_datum(cfg: ExperimentConfig, epsilon: float) -> ComplexField:
    """The standard packet on cfg.grid, smoothed at width epsilon when mollify_data is set."""
    grid = cfg.grid
    u0 = initial_datum(grid)
    if cfg.mollify_data:
        u0 = ComplexField(grid, mollify_samples(u0.values, grid, epsilon))
    return u0


def single_run(cfg: ExperimentConfig, epsilon: float) -> Trajectory:
    """One solve at one width; its trajectory holds the potential and, as states[0], the datum."""
    potential = regularize_potential(cfg.potential, cfg.grid, epsilon)
    return simulate(prepared_datum(cfg, epsilon), potential, cfg.solver)


@dataclass(frozen=True)
class SweepRecord:
    epsilon: float
    sup_norm_p: float
    final_mass: float
    final_energy: float
    final_composite_norm: float
    window_mass_at_site: float
    n_maxima: int
    sup_composite_norm: float


@dataclass(frozen=True)
class SweepReport:
    """Per-width records plus fitted growth exponents.

    A fit whose RMS residual in log space exceeds 0.1 is flagged rather than
    silently accepted; flagged slopes should not be quoted as rates.
    """

    records: tuple[SweepRecord, ...]
    potential_moderateness_n: float | None
    potential_residual: float | None
    potential_fit_flagged: bool
    solution_moderateness_n: float | None
    solution_residual: float | None
    solution_fit_flagged: bool


RESIDUAL_FLAG_THRESHOLD = 0.1


def _fit_or_none(epsilons, norms):
    if len(norms) < 3 or any(v <= 0 for v in norms):
        return None, None, False
    slope, residual = moderateness_exponent(epsilons, norms)
    return slope, residual, residual > RESIDUAL_FLAG_THRESHOLD


def epsilon_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Run every width and fit log-log growth rates.

    The slopes are exponents N with quantity ~ eps^(-N): a bounded family
    fits N close to 0, the scaled bump close to 1, its square close to 2.
    The potential slope is None when the potential vanishes identically.
    """

    def one(epsilon: float) -> SweepRecord:
        trajectory = single_run(cfg, epsilon)
        final = trajectory.states[-1]
        density = position_density(final)
        floor = MAXIMA_FLOOR_FRACTION * float(np.max(density.values))
        site = cfg.potential.site
        return SweepRecord(
            epsilon=epsilon,
            sup_norm_p=sup_norm(trajectory.potential),
            final_mass=float(trajectory.mass[-1]),
            final_energy=float(trajectory.energy[-1]),
            # composite_norm of the last and of every state: the same
            # l2_norm + hs_seminorm sums the trajectory records
            final_composite_norm=float(trajectory.mass[-1] + trajectory.hs_part[-1]),
            window_mass_at_site=window_mass(
                final, site - WINDOW_HALF_WIDTH, site + WINDOW_HALF_WIDTH),
            n_maxima=count_local_maxima(density, floor),
            sup_composite_norm=float(np.max(trajectory.mass + trajectory.hs_part)),
        )

    records = tuple(one(e) for e in cfg.epsilons)

    p_slope, p_res, p_flag = _fit_or_none(cfg.epsilons, [r.sup_norm_p for r in records])
    u_slope, u_res, u_flag = _fit_or_none(cfg.epsilons, [r.sup_composite_norm for r in records])
    return SweepReport(
        records=records,
        potential_moderateness_n=p_slope,
        potential_residual=p_res,
        potential_fit_flagged=p_flag,
        solution_moderateness_n=u_slope,
        solution_residual=u_res,
        solution_fit_flagged=u_flag,
    )


def default_perturbation(grid: Grid, center: float) -> RealField:
    """Unit-height smooth bump supported on (center - 1, center + 1), inside the domain."""
    require_inside(grid, center, 1.0, "perturbation")
    return RealField(grid, np.e * bump(grid.nodes - center))


PIECE_RECORDS = 64  # steps per piece of a uniqueness run


@dataclass(frozen=True)
class UniquenessReport:
    config: ExperimentConfig  # perfbench pairs config.epsilons with the distances
    distances: tuple[float, ...]
    decay_rate: float | None
    residual: float | None


def uniqueness_experiment(cfg: ExperimentConfig, m: float = 2.0) -> UniquenessReport:
    """Measure how fast an eps^m potential perturbation dies out.

    For each width the potential is shifted by eps^m times the unit bump on
    (site - 1, site + 1) and both runs start from the same datum.  The
    distance is the largest L2 gap over every step, whatever
    cfg.solver.record_every is; the decay rate is the fitted exponent q with
    distance ~ eps^q, ideally q = m.

    The base and shifted runs go in lockstep pieces of at most PIECE_RECORDS
    steps, each piece recording every step (solver.run_pieces): each piece
    of each run is one simulate call from the last state of its previous
    piece, compared row by row and dropped before the next one runs, so at
    most one pair of pieces is alive.  Every run is such a chain, however
    short.  A piece's abort counts its steps from the piece's start, so on
    one the two runs go again whole, base first, recording every step, and
    raise the whole run's abort.
    """
    if not (np.isfinite(m) and m >= 1):
        raise ValueError(f"perturbation exponent must be at least 1, got {m}")
    grid = cfg.grid
    perturbation = default_perturbation(grid, cfg.potential.site)
    root_dx = np.sqrt(grid.dx)
    plan = run_pieces(cfg.solver, PIECE_RECORDS)

    def chained_gap(pair, datum: ComplexField, chain) -> float:
        starts, gaps = (datum, datum), [0.0]  # both runs start from the datum
        for piece in chain:
            a, b = (simulate(u, p, piece).values for u, p in zip(starts, pair))
            gaps += (float(root_dx * np.linalg.norm(x - y)) for x, y in zip(a[1:], b[1:]))
            starts = [ComplexField.from_checked(grid, run[-1].copy()) for run in (a, b)]
            del a, b  # before the next piece runs
        return max(gaps)

    def gap(epsilon: float) -> float:
        base = regularize_potential(cfg.potential, grid, epsilon)
        pair = (base, RegularizedPotential(
            epsilon, RealField(grid, base.field.values + epsilon**m * perturbation.values)))
        datum = prepared_datum(cfg, epsilon)
        try:
            return chained_gap(pair, datum, plan)
        except NumericalAbort:
            pass  # its step, time and worst count from its piece's start
        # the whole run, recording every step, raises the whole run's abort
        return chained_gap(pair, datum, [replace(cfg.solver, record_every=1)])

    # one width's runs at a time: both die when gap() returns
    distances = [gap(e) for e in cfg.epsilons]

    slope, residual, _ = _fit_or_none(cfg.epsilons, distances)
    decay_rate = None if slope is None else -slope
    return UniquenessReport(cfg, tuple(distances), decay_rate, residual)


REFERENCES = {"fine": (4, 8), "matched": (1, 1)}  # (grid refinement, substeps per step)


@dataclass(frozen=True)
class ConsistencyReport:
    errors: tuple[float, ...]
    strictly_decreasing: bool


def consistency_experiment(cfg: ExperimentConfig, reference: str = "fine") -> ConsistencyReport:
    """Final-time L2 gap between smoothed-potential runs and the exact one.

    Only regular potentials have an exact counterpart to compare against.
    The exact run is a single_run of cfg, datum unsmoothed, at its REFERENCES
    entry's grid refinement and substeps per step: "fine" is 4x the resolution
    at an eighth of the step, restricted to the run's nodes; "matched" isolates
    the smoothing error from the scheme's.  Each width smooths the exact samples.
    """
    if cfg.potential.is_singular:
        raise ValueError(
            "consistency needs a regular potential; the singular kinds have no "
            "unsmoothed counterpart"
        )
    if reference not in REFERENCES:
        raise ValueError(f"reference must be {' or '.join(map(repr, REFERENCES))}, "
                         f"got {reference!r}")
    # only final states are compared, and a kept final state keeps its run's
    # whole record array alive: record nothing in between
    solver = replace(cfg.solver, record_every=10**9)

    refine, substeps = REFERENCES[reference]
    ref_cfg = replace(cfg, n=refine * cfg.n, mollify_data=False,
                      solver=replace(solver, dt=solver.dt / substeps))
    ref_values = single_run(ref_cfg, cfg.epsilons[0]).values[-1, ::refine]  # run's nodes
    exact = regularize_potential(cfg.potential, cfg.grid, cfg.epsilons[0]).field.values

    def error(epsilon: float) -> float:
        smoothed = RealField(cfg.grid, mollify_samples(exact, cfg.grid, epsilon))
        final = simulate(prepared_datum(cfg, epsilon), RegularizedPotential(epsilon, smoothed),
                         solver).values[-1]
        return l2_norm(ComplexField(cfg.grid, final - ref_values))

    errors = [error(e) for e in cfg.epsilons]  # one run at a time: each dies in error()
    return ConsistencyReport(tuple(errors), all(b < a for a, b in zip(errors, errors[1:])))


@dataclass(frozen=True)
class EnergyScalingReport:
    max_energies: tuple[float, ...]
    ratio: float
    monotone_nondecreasing: bool
    in_band: bool


def delta_squared_energy_scaling(cfg: ExperimentConfig) -> EnergyScalingReport:
    """Largest recorded energy per width, meant for the squared-bump model.

    Reports the ratio between the smallest-width and largest-width peaks,
    whether it lies in ENERGY_BAND, and whether the peaks grow monotonically
    as the width shrinks.  Nothing is asserted here; the report just states
    what the discrete runs produced.  Any potential kind is accepted (a
    width-independent one gives ratio 1).
    """
    def peak(epsilon: float) -> float:
        return float(np.max(single_run(cfg, epsilon).energy))

    peaks = [peak(e) for e in cfg.epsilons]
    ratio = peaks[-1] / peaks[0]  # smallest width over largest width
    monotone = all(b >= a for a, b in zip(peaks, peaks[1:]))
    in_band = ENERGY_BAND[0] <= ratio <= ENERGY_BAND[1]
    return EnergyScalingReport(tuple(peaks), ratio, monotone, in_band)


# ---------------------------------------------------------------------------
# CSV and manifest output


def write_csv(path: str, header, columns) -> None:
    """Write equal-length columns under header as plain CSV; creates path's directory.

    Each column has one type and one cell rule: floats are written as the
    shortest round-trip repr of their tolist() values, integers and flags
    as integers.  LF line endings; the table is written in one call.
    Columns of unequal length raise ValueError.
    """
    cells = []
    for values in map(np.asarray, columns):
        if values.dtype.kind != "f":  # integers and flags
            values = values.astype(int)
        cells.append(map(repr, values.tolist()))  # a numpy scalar's repr names its type
    lines = [",".join(header), *map(",".join, zip(*cells, strict=True)), ""]
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines))


def write_manifest(out: str, cfg: ExperimentConfig, command: str, files, **extra) -> None:
    """Write out/manifest.json: the command, config digest, time and files."""
    payload = {
        "command": command,
        "config_hash": config_hash(cfg),
        "created": datetime.now(timezone.utc).isoformat(),
        "files": sorted(files),
        **extra,
    }
    with open(os.path.join(out, "manifest.json"), "w", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Figure data


def run_tables(cfg: ExperimentConfig, epsilon: float, times, name: str | None,
               energy: bool, out: str) -> tuple[list[str], Trajectory]:
    """Run cfg at one width, write its tables into out; returns their names and the run.

    One density table per snapshot time, named by name, then the energy table
    if energy is set.  The run records every step, whatever cfg's
    record_every, so a snapshot reads the row step_plan counts: t_end is the
    run's last row; an earlier time off the step grid (custom dt) is one
    shortened step from that row, as a run ending there.
    """
    cfg = replace(cfg, solver=replace(cfg.solver, record_every=1))
    trajectory = single_run(cfg, epsilon)
    potential = RegularizedPotential(epsilon, trajectory.potential)
    files = []
    for t in times:
        n_full, remainder = step_plan(t, cfg.solver.dt)
        state = trajectory.states[-1 if t == cfg.solver.t_end else n_full]
        if remainder > 0.0 and t < cfg.solver.t_end:
            last = replace(cfg.solver, dt=remainder, t_end=remainder)
            state = simulate(state, potential, last).states[-1]
        files.append(name.format(t=t, eps=epsilon))
        values = state.values
        write_csv(os.path.join(out, files[-1]), DENSITY_HEADER,
                  (state.grid.nodes, values.real, values.imag, position_density(state).values))
    if energy:
        files.append(ENERGY_NAME.format(eps=epsilon))
        write_csv(os.path.join(out, files[-1]), ENERGY_HEADER,
                  (trajectory.times, trajectory.mass, trajectory.energy, trajectory.hs_part,
                   trajectory.potential_part))
    return files, trajectory


def check_figure(cfg: ExperimentConfig, figure: str) -> None:
    """Raise ValueError unless figure is known and each snapshot run is a step long."""
    if figure not in FIGURES:
        raise ValueError(f"unknown figure {figure!r}; expected one of {FIGURES}")
    for _, _, times, _, _ in FIGURE_RUNS[figure]:
        if times and max(times) < cfg.solver.dt:
            raise ValueError(f"{figure}: last snapshot time {max(times):g} "
                             f"is shorter than dt {cfg.solver.dt:g}")


def emit_figure_data(cfg: ExperimentConfig, figure: str, out: str) -> list[str]:
    """Write the CSV tables behind one standard figure into out; returns their names.

    The potential family and widths are fixed per figure by FIGURE_RUNS;
    the grid, solver backend, step and datum smoothing come from cfg.  Every
    run records every step (run_tables) and ends at its last snapshot time,
    if it has any.
    """
    check_figure(cfg, figure)
    files: list[str] = []
    for kind, epsilons, times, name, energy in FIGURE_RUNS[figure]:
        solver = replace(cfg.solver, t_end=max(times, default=cfg.solver.t_end))
        run_cfg = replace(cfg, potential=PotentialSpec(kind), solver=solver)
        for epsilon in epsilons:
            # keep only the names, so each run dies before the next one starts
            files += run_tables(run_cfg, epsilon, times, name, energy, out)[0]
    return files
