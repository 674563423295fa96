"""Command line front end.

Subcommands: simulate, sweep, uniqueness, consistency, figures,
energy-scaling.  Settings resolve in three layers: built-in defaults, then a
flat key=value config file (--config), then explicit flags.  Exit codes:

* 0: success
* 2: invalid settings (bad flag values, inconsistent backend/order, ...)
* 3: the run produced a non-finite state
* 4: file system trouble (unreadable config, unwritable output, ...)
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (
    DEFAULT_EPSILONS,
    ExperimentConfig,
    consistency_experiment,
    delta_squared_energy_scaling,
    density_rows,
    emit_figure_data,
    energy_rows,
    epsilon_sweep,
    manifest_payload,
    single_run,
    uniqueness_experiment,
    write_consistency_csv,
    write_csv,
    write_energy_scaling_csv,
    write_manifest,
    write_sweep_csv,
    write_uniqueness_csv,
)
from .harness import DENSITY_HEADER, ENERGY_HEADER, FIGURES
from .mollifier import PotentialSpec
from .operators import FractionalOrder
from .solver import NumericalAbort, SolverConfig

BACKEND_MAP = {"cn": "crank_nicolson", "spectral": "spectral_strang"}
POTENTIAL_MAP = {
    "zero": "zero",
    "one": "constant_one",
    "harmonic": "harmonic_shifted",
    "delta": "delta",
    "delta2": "delta_squared",
}
COMMANDS = ("simulate", "sweep", "uniqueness", "consistency", "figures", "energy-scaling")

# keys a config file may set, with the same spelling as the long flags
CONFIG_KEYS = (
    "out", "backend", "eps", "potential", "s", "dt", "nx", "domain",
    "mollify-data", "t-end", "m", "figure", "reference",
)

_DEFAULTS = {
    "out": "fracschrod_out",
    "backend": "cn",
    "potential": "delta",
    "s": 1.0,
    "dt": 0.0107,
    "nx": 1024,
    "domain": (0.0, 10.0),
    "mollify-data": False,
    "m": 2.0,
    "figure": None,
    "reference": "fine",
}

_PER_COMMAND = {
    "simulate": {"eps": (0.05,), "t-end": 0.2996},
    "sweep": {"eps": DEFAULT_EPSILONS, "t-end": 0.214},
    "uniqueness": {"eps": DEFAULT_EPSILONS, "t-end": 0.214},
    "consistency": {"eps": (0.8, 0.4, 0.2, 0.1), "t-end": 0.214,
                    "potential": "harmonic", "backend": "spectral"},
    "figures": {"eps": (0.05,), "t-end": 0.2996},
    "energy-scaling": {"eps": DEFAULT_EPSILONS, "t-end": 0.2996, "potential": "delta2"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracschrod",
        description="Numerical experiments for the regularized singular-potential flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", help="flat key=value settings file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--backend", choices=sorted(BACKEND_MAP))
        p.add_argument("--eps", help="comma separated list of widths")
        p.add_argument("--potential", choices=sorted(POTENTIAL_MAP))
        p.add_argument("--s", type=float, help="order of the fractional Laplacian")
        p.add_argument("--dt", type=float, help="time step")
        p.add_argument("--nx", type=int, help="number of grid nodes (power of two)")
        p.add_argument("--domain", help="domain endpoints a,b")
        p.add_argument("--mollify-data", action="store_true", default=None,
                       help="smooth the initial datum at each width")
        p.add_argument("--t-end", type=float, help="final time")
        if name == "uniqueness":
            p.add_argument("--m", type=float, help="perturbation exponent")
        if name == "figures":
            p.add_argument("--figure", choices=FIGURES + ("all",), help="which figure to emit")
        if name == "consistency":
            p.add_argument("--reference", choices=("fine", "matched"),
                           help="reference run: refined exact solve or same resolution")
    return parser


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"could not parse {what} from {text!r}") from None
    if not values:
        raise ValueError(f"empty {what} in {text!r}")
    return values


def read_config_file(path: str) -> dict:
    """Flat key=value lines; blank lines and # comments are skipped."""
    mapping: dict[str, str] = {}
    with open(path) as fh:
        for line_no, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown setting {key!r}")
            mapping[key] = value.strip()
    return mapping


def _coerce(key: str, value):
    """Parse a config-file string into the type the flag would produce."""
    if not isinstance(value, str):
        return value
    if key in ("s", "dt", "t-end", "m"):
        return float(value)
    if key == "nx":
        return int(value)
    if key == "eps":
        return _parse_floats(value, "widths")
    if key == "domain":
        endpoints = _parse_floats(value, "domain endpoints")
        if len(endpoints) != 2:
            raise ValueError(f"domain needs exactly two endpoints, got {value!r}")
        return endpoints
    if key == "mollify-data":
        lowered = value.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"could not parse boolean from {value!r}")
    if key == "backend" and value not in BACKEND_MAP:
        raise ValueError(f"unknown backend {value!r}; expected one of {sorted(BACKEND_MAP)}")
    if key == "potential" and value not in POTENTIAL_MAP:
        raise ValueError(f"unknown potential {value!r}; expected one of {sorted(POTENTIAL_MAP)}")
    if key == "figure" and value not in FIGURES + ("all",):
        raise ValueError(f"unknown figure {value!r}")
    if key == "reference" and value not in ("fine", "matched"):
        raise ValueError(f"reference must be 'fine' or 'matched', got {value!r}")
    return value


def resolve_settings(args: argparse.Namespace) -> dict:
    """Layer defaults, config file, then explicit flags."""
    settings = dict(_DEFAULTS)
    settings.update(_PER_COMMAND[args.command])
    if args.config is not None:
        for key, value in read_config_file(args.config).items():
            settings[key] = _coerce(key, value)
    for key in CONFIG_KEYS:
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            settings[key] = _coerce(key, value)
    return settings


def build_experiment(settings: dict) -> ExperimentConfig:
    domain = settings["domain"]
    solver = SolverConfig(
        backend=BACKEND_MAP[settings["backend"]],
        dt=settings["dt"],
        t_end=settings["t-end"],
        order=FractionalOrder(settings["s"]),
        record_every=1,
    )
    return ExperimentConfig(
        potential=PotentialSpec(POTENTIAL_MAP[settings["potential"]]),
        epsilons=tuple(settings["eps"]),
        solver=solver,
        x_min=float(domain[0]),
        x_max=float(domain[1]),
        n=settings["nx"],
        output_dir=settings["out"],
        mollify_data=bool(settings["mollify-data"]),
    )


def _ensure_out(settings: dict) -> str:
    out = settings["out"]
    os.makedirs(out, exist_ok=True)
    return out


def cmd_simulate(settings: dict) -> int:
    cfg = build_experiment(settings)
    if len(cfg.epsilons) != 1:
        raise ValueError("simulate runs a single width; pass exactly one --eps value")
    epsilon = cfg.epsilons[0]
    trajectory, _, _ = single_run(cfg, epsilon)
    out = _ensure_out(settings)
    dname = f"density_t{cfg.solver.t_end:.4f}_eps{epsilon:g}.csv"
    ename = f"energy_eps{epsilon:g}.csv"
    write_csv(os.path.join(out, dname), DENSITY_HEADER, density_rows(trajectory.states[-1]))
    write_csv(os.path.join(out, ename), ENERGY_HEADER, energy_rows(trajectory))
    payload = manifest_payload(
        cfg, "simulate", [dname, ename],
        epsilon=epsilon,
        final_mass=float(trajectory.mass[-1]),
        final_energy=float(trajectory.energy[-1]),
    )
    write_manifest(os.path.join(out, "manifest.json"), payload)
    print(f"simulate: eps={epsilon:g} final mass {trajectory.mass[-1]:.6g} "
          f"final energy {trajectory.energy[-1]:.6g}; wrote {out}/{dname}")
    return 0


def cmd_sweep(settings: dict) -> int:
    cfg = build_experiment(settings)
    report = epsilon_sweep(cfg)
    out = _ensure_out(settings)
    write_sweep_csv(report, os.path.join(out, "sweep.csv"))
    payload = manifest_payload(
        cfg, "sweep", ["sweep.csv"],
        potential_moderateness_n=report.potential_moderateness_n,
        potential_residual=report.potential_residual,
        potential_fit_flagged=report.potential_fit_flagged,
        solution_moderateness_n=report.solution_moderateness_n,
        solution_residual=report.solution_residual,
        solution_fit_flagged=report.solution_fit_flagged,
    )
    write_manifest(os.path.join(out, "manifest.json"), payload)
    p_slope = "n/a" if report.potential_moderateness_n is None \
        else f"{report.potential_moderateness_n:.4f}"
    u_slope = "n/a" if report.solution_moderateness_n is None \
        else f"{report.solution_moderateness_n:.4f}"
    print(f"sweep: potential growth exponent {p_slope}, solution growth exponent {u_slope}")
    return 0


def cmd_uniqueness(settings: dict) -> int:
    cfg = build_experiment(settings)
    report = uniqueness_experiment(cfg, m=settings["m"])
    out = _ensure_out(settings)
    write_uniqueness_csv(report, os.path.join(out, "uniqueness.csv"))
    payload = manifest_payload(
        cfg, "uniqueness", ["uniqueness.csv"],
        m=report.m, decay_rate=report.decay_rate, residual=report.residual,
    )
    write_manifest(os.path.join(out, "manifest.json"), payload)
    rate = "n/a" if report.decay_rate is None else f"{report.decay_rate:.4f}"
    print(f"uniqueness: m={report.m:g} fitted decay rate {rate}")
    return 0


def cmd_consistency(settings: dict) -> int:
    cfg = build_experiment(settings)
    report = consistency_experiment(cfg, reference=settings["reference"])
    out = _ensure_out(settings)
    write_consistency_csv(report, os.path.join(out, "consistency.csv"))
    payload = manifest_payload(
        cfg, "consistency", ["consistency.csv"],
        reference=report.reference,
        strictly_decreasing=report.strictly_decreasing,
    )
    write_manifest(os.path.join(out, "manifest.json"), payload)
    trend = "decreasing" if report.strictly_decreasing else "not monotone"
    print(f"consistency: errors {trend}; smallest {min(report.errors):.3e}")
    return 0


def cmd_figures(settings: dict) -> int:
    cfg = build_experiment(settings)
    figure = settings["figure"]
    if figure is None:
        raise ValueError("figures needs --figure (fig1..fig5 or all)")
    out = _ensure_out(settings)
    if figure == "all":
        for name in FIGURES:
            emit_figure_data(cfg, name, os.path.join(out, name))
        print(f"figures: wrote {len(FIGURES)} figure directories under {out}")
    else:
        payload = emit_figure_data(cfg, figure, out)
        print(f"figures: wrote {len(payload['files'])} tables for {figure} to {out}")
    return 0


def cmd_energy_scaling(settings: dict) -> int:
    cfg = build_experiment(settings)
    report = delta_squared_energy_scaling(cfg)
    out = _ensure_out(settings)
    write_energy_scaling_csv(report, os.path.join(out, "energy_scaling.csv"))
    payload = manifest_payload(
        cfg, "energy-scaling", ["energy_scaling.csv"],
        ratio=report.ratio,
        monotone_nondecreasing=report.monotone_nondecreasing,
        in_band=report.in_band,
    )
    write_manifest(os.path.join(out, "manifest.json"), payload)
    print(f"energy-scaling: peak ratio {report.ratio:.4f} "
          f"(monotone={report.monotone_nondecreasing}, in band={report.in_band})")
    return 0


_RUNNERS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "uniqueness": cmd_uniqueness,
    "consistency": cmd_consistency,
    "figures": cmd_figures,
    "energy-scaling": cmd_energy_scaling,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        settings = resolve_settings(args)
        return _RUNNERS[args.command](settings)
    except NumericalAbort as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
