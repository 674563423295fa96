"""Command line front end.

Subcommands: simulate, sweep, uniqueness, consistency, figures,
energy-scaling.  Settings resolve in three layers: built-in defaults, then a
flat key=value config file (--config), then explicit flags.  One table,
SETTINGS, gives each setting its parser, default (the paper's numbers are
the library's own), help and the commands that take it, as a flag or as a
config-file line; flag values and config-file lines go through the same
parser, so an invalid value is reported the same way from either.  Flags
are never abbreviated.  One table, COMMANDS, gives each subcommand its
runner and the defaults it sets over the settings' own.

Each command, figures included, writes its tables and returns their names,
the headline numbers for the manifest and a one-line summary; main writes
out/manifest.json and prints the summary.  A failed command writes no
manifest, and no directory before its first table.  Exit codes:

* 0: success
* 2: a malformed command line (unknown flag, missing value, ...) or invalid
  settings (bad flag or config-file values, inconsistent backend/order, ...)
* 3: a run produced a non-finite state (the message names its width)
* 4: file system trouble (unreadable config, unwritable output, ...)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, NamedTuple

from .harness import (
    POTENTIAL_TAGS,
    REFERENCES,
    ExperimentConfig,
    check_figure,
    consistency_experiment,
    delta_squared_energy_scaling,
    emit_figure_data,
    epsilon_sweep,
    run_tables,
    uniqueness_experiment,
    write_csv,
    write_manifest,
)
from .harness import DENSITY_NAME, FIGURES
from .mollifier import PotentialSpec
from .operators import FractionalOrder
from .solver import NumericalAbort, SolverConfig

BACKEND_MAP = {"cn": "crank_nicolson", "spectral": "spectral_strang"}
POTENTIAL_MAP = {tag: kind for kind, tag in POTENTIAL_TAGS.items()}


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"could not parse {what} from {text!r}") from None
    if not values:
        raise ValueError(f"empty {what} in {text!r}")
    return values


def _widths(text: str) -> tuple[float, ...]:
    return _parse_floats(text, "widths")


def _domain(text: str) -> tuple[float, ...]:
    endpoints = _parse_floats(text, "domain endpoints")
    if len(endpoints) != 2:
        raise ValueError(f"expected exactly two endpoints, got {text!r}")
    return endpoints


def _boolean(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"could not parse boolean from {text!r}")


class _Choice(tuple):
    """Parser that accepts one word of a fixed set."""

    def __call__(self, text: str) -> str:
        if text not in self:
            raise ValueError(f"expected one of {list(self)}, got {text!r}")
        return text


def _table(out: str, name: str, header, columns) -> str:
    """Write one CSV table from its columns into out; returns the name."""
    write_csv(os.path.join(out, name), header, columns)
    return name


def _or_na(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def cmd_simulate(cfg: ExperimentConfig, settings: dict, out: str):
    if len(cfg.epsilons) != 1:
        raise ValueError("simulate runs a single width; pass exactly one --eps value")
    epsilon = cfg.epsilons[0]
    files, trajectory = run_tables(cfg, epsilon, (cfg.solver.t_end,), DENSITY_NAME, True, out)
    mass, energy = float(trajectory.mass[-1]), float(trajectory.energy[-1])
    return (files, {"epsilon": epsilon, "final_mass": mass, "final_energy": energy},
            f"simulate: eps={epsilon:g} final mass {mass:.6g} "
            f"final energy {energy:.6g}; wrote {out}/{files[0]}")


def cmd_sweep(cfg: ExperimentConfig, settings: dict, out: str):
    report = epsilon_sweep(cfg)
    header = ("epsilon", "sup_norm_p", "final_mass", "final_energy",
              "final_composite_norm", "window_mass", "n_maxima")
    columns = zip(*((r.epsilon, r.sup_norm_p, r.final_mass, r.final_energy,
                     r.final_composite_norm, r.window_mass_at_site, r.n_maxima)
                    for r in report.records))
    extras = {key: getattr(report, key) for key in (
        "potential_moderateness_n", "potential_residual", "potential_fit_flagged",
        "solution_moderateness_n", "solution_residual", "solution_fit_flagged")}

    def fit(which: str) -> str:  # a flagged slope is no rate: name the residual
        text = f"{which} growth exponent {_or_na(extras[which + '_moderateness_n'])}"
        if extras[which + "_fit_flagged"]:
            text += f" (flagged fit, residual {extras[which + '_residual']:.4f})"
        return text

    return ([_table(out, "sweep.csv", header, columns)], extras,
            f"sweep: {fit('potential')}, {fit('solution')}")


def cmd_uniqueness(cfg: ExperimentConfig, settings: dict, out: str):
    m = settings["m"]
    report = uniqueness_experiment(cfg, m=m)
    columns = (cfg.epsilons, report.distances)
    return ([_table(out, "uniqueness.csv", ("epsilon", "distance"), columns)],
            {"m": m, "decay_rate": report.decay_rate, "residual": report.residual},
            f"uniqueness: m={m:g} fitted decay rate {_or_na(report.decay_rate)}")


def cmd_consistency(cfg: ExperimentConfig, settings: dict, out: str):
    reference = settings["reference"]
    report = consistency_experiment(cfg, reference=reference)
    columns = (cfg.epsilons, report.errors)
    trend = "decreasing" if report.strictly_decreasing else "not monotone"
    return ([_table(out, "consistency.csv", ("epsilon", "error"), columns)],
            {"reference": reference, "strictly_decreasing": report.strictly_decreasing},
            f"consistency: errors {trend}; smallest {min(report.errors):.3e}")


def cmd_figures(cfg: ExperimentConfig, settings: dict, out: str):
    """With --figure all, each figure's tables go to out/figN, listed as figN/name."""
    figure = settings["figure"]
    if figure is None:
        raise ValueError("figures needs --figure (fig1..fig5 or all)")
    extras = {"figure": figure}
    if figure == "all":
        for name in FIGURES:  # check them all first, so a bad dt writes nothing
            check_figure(cfg, name)
        files = [f"{name}/{table}" for name in FIGURES
                 for table in emit_figure_data(cfg, name, os.path.join(out, name))]
        return files, extras, f"figures: wrote {len(FIGURES)} figure directories under {out}"
    files = emit_figure_data(cfg, figure, out)
    return files, extras, f"figures: wrote {len(files)} tables for {figure} to {out}"


def cmd_energy_scaling(cfg: ExperimentConfig, settings: dict, out: str):
    report = delta_squared_energy_scaling(cfg)
    columns = (cfg.epsilons, report.max_energies)
    return ([_table(out, "energy_scaling.csv", ("epsilon", "max_energy"), columns)],
            {"ratio": report.ratio, "monotone_nondecreasing": report.monotone_nondecreasing,
             "in_band": report.in_band},
            f"energy-scaling: peak ratio {report.ratio:.4f} "
            f"(monotone={report.monotone_nondecreasing}, in band={report.in_band})")


class Command(NamedTuple):
    run: Callable[[ExperimentConfig, dict, str], tuple]
    defaults: dict  # over the settings' own defaults, under the config file


# every subcommand, in the order --help lists them
COMMANDS = {
    "simulate": Command(cmd_simulate, {"eps": (0.05,)}),
    "sweep": Command(cmd_sweep, {"t-end": 0.214}),
    "uniqueness": Command(cmd_uniqueness, {"t-end": 0.214}),
    "consistency": Command(cmd_consistency, {"eps": (0.8, 0.4, 0.2, 0.1), "t-end": 0.214,
                                             "potential": "harmonic", "backend": "spectral"}),
    "figures": Command(cmd_figures, {}),
    "energy-scaling": Command(cmd_energy_scaling, {"potential": "delta2"}),
}


class Setting(NamedTuple):
    parse: Callable[[str], object]
    default: object = None
    commands: tuple[str, ...] = tuple(COMMANDS)  # the subcommands that take it
    help: str | None = None


# figures runs the potentials and widths FIGURE_RUNS fixes, so it takes neither
WIDTH_COMMANDS = tuple(name for name in COMMANDS if name != "figures")

# every setting, in flag order; a config file may set those its command
# takes, spelled as the long flag
SETTINGS = {
    "out": Setting(str, "fracschrod_out", help="output directory"),
    "backend": Setting(_Choice(sorted(BACKEND_MAP)), "cn"),
    "eps": Setting(_widths, ExperimentConfig.epsilons, WIDTH_COMMANDS,
                   "comma separated list of widths"),
    "potential": Setting(_Choice(sorted(POTENTIAL_MAP)), "delta", WIDTH_COMMANDS),
    "s": Setting(float, SolverConfig.order.s, help="order of the fractional Laplacian"),
    "dt": Setting(float, SolverConfig.dt, help="time step"),
    "nx": Setting(int, ExperimentConfig.n, help="number of grid nodes (power of two)"),
    "domain": Setting(_domain, (ExperimentConfig.x_min, ExperimentConfig.x_max),
                      help="domain endpoints a,b"),
    "mollify-data": Setting(_boolean, ExperimentConfig.mollify_data,
                            help="smooth the initial datum at each width"),
    "t-end": Setting(float, SolverConfig.t_end, help="final time"),
    "m": Setting(float, 2.0, ("uniqueness",), "perturbation exponent"),
    "figure": Setting(_Choice(FIGURES + ("all",)), None, ("figures",), "which figure to emit"),
    "reference": Setting(_Choice(REFERENCES), "fine", ("consistency",),
                         "reference run: refined exact solve or same resolution"),
}


class _Parser(argparse.ArgumentParser):
    """Raises a malformed command line as ValueError, so main reports it in one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    """Flags come from SETTINGS and stay strings until resolve_settings parses them."""
    parser = _Parser(
        prog="fracschrod",
        description="Numerical experiments for the regularized singular-potential flow.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        p.add_argument("--config", help="flat key=value settings file")
        for key, setting in SETTINGS.items():
            if name not in setting.commands:
                continue
            options = {"help": setting.help}
            if setting.parse is _boolean:
                options.update(nargs="?", const="yes", metavar="{yes,no}")
            elif isinstance(setting.parse, _Choice):
                options["metavar"] = "{" + ",".join(setting.parse) + "}"
            p.add_argument(f"--{key}", **options)
    return parser


def read_config_file(path: str) -> dict:
    """Flat key=value lines, each key at most once; blank lines and # comments are skipped."""
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
            if key not in SETTINGS:
                raise ValueError(f"{path}:{line_no}: unknown setting {key!r}")
            if key in mapping:
                raise ValueError(f"{path}:{line_no}: setting {key!r} given a second time")
            mapping[key] = value.strip()
    return mapping


def _parse(key: str, text: str, source: str):
    try:
        return SETTINGS[key].parse(text)
    except ValueError as exc:
        raise ValueError(f"{source}: {exc}") from None


def resolve_settings(args: argparse.Namespace) -> dict:
    """Layer defaults, config file, then explicit flags.

    Every config-file value is parsed as the file is read, so a bad one is
    reported even when a flag overrides it.
    """
    settings = {key: setting.default for key, setting in SETTINGS.items()}
    settings.update(COMMANDS[args.command].defaults)
    if args.config is not None:
        for key, text in read_config_file(args.config).items():
            if args.command not in SETTINGS[key].commands:
                raise ValueError(f"{args.config}: {key}: not a setting of {args.command}")
            settings[key] = _parse(key, text, f"{args.config}: {key}")
    for key in SETTINGS:
        text = getattr(args, key.replace("-", "_"), None)
        if text is not None:
            settings[key] = _parse(key, text, f"--{key}")
    return settings


def build_experiment(settings: dict) -> ExperimentConfig:
    domain = settings["domain"]
    solver = SolverConfig(
        backend=BACKEND_MAP[settings["backend"]],
        dt=settings["dt"],
        t_end=settings["t-end"],
        order=FractionalOrder(settings["s"]),
    )
    return ExperimentConfig(
        potential=PotentialSpec(POTENTIAL_MAP[settings["potential"]]),
        epsilons=tuple(settings["eps"]),
        solver=solver,
        x_min=float(domain[0]),
        x_max=float(domain[1]),
        n=settings["nx"],
        mollify_data=bool(settings["mollify-data"]),
    )


def _reject_flag_before_command(argv: list[str]) -> None:
    """A setting's flag before the subcommand is an error that says where it goes.

    argparse would take the flag's value for the subcommand and call it an
    invalid choice.
    """
    for word in argv:
        flag = word.partition("=")[0]
        if not flag.startswith("-") or flag in ("-h", "--help"):
            return
        if flag == "--config" or flag[2:] in SETTINGS:
            raise ValueError(f"{flag}: flags go after the subcommand, as in "
                             f"'fracschrod COMMAND {flag} ...'")


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        _reject_flag_before_command(argv)
        args = build_parser().parse_args(argv)
        settings = resolve_settings(args)
        cfg = build_experiment(settings)
        out = settings["out"]
        files, extras, summary = COMMANDS[args.command].run(cfg, settings, out)
        write_manifest(out, cfg, args.command, files, **extras)
        print(summary)
        return 0
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
