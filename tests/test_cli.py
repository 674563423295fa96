import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fracschrod.cli as cli
from fracschrod.cli import (
    BACKEND_MAP,
    COMMANDS,
    POTENTIAL_MAP,
    SETTINGS,
    build_experiment,
    build_parser,
    main,
    read_config_file,
    resolve_settings,
)
from fracschrod.harness import FIGURES, REFERENCES, ExperimentConfig, SweepReport, config_hash
from fracschrod.mollifier import PotentialSpec
from fracschrod.solver import NumericalAbort, SolverConfig

FAST = ["--nx", "256", "--dt", "0.0107", "--t-end", "0.0214"]
SRC = Path(__file__).resolve().parents[1] / "src"

# one small run per command, added to FAST; every value kind appears once
RUNS = {
    "simulate": ["--eps", "0.2", "--backend", "spectral", "--s", "0.75"],
    "sweep": ["--eps", "0.4,0.2,0.1", "--mollify-data", "--domain", "0,10"],
    "uniqueness": ["--eps", "0.4,0.2,0.1", "--m", "2.5"],
    "consistency": ["--eps", "0.4,0.2", "--reference", "matched", "--potential", "one"],
    "figures": ["--figure", "fig4"],
    "energy-scaling": ["--eps", "0.4,0.2,0.1", "--potential", "zero"],
}
SUMMARY_PREFIX = {
    "simulate": "simulate: eps=0.2 final mass ",
    "sweep": "sweep: potential growth exponent ",
    "uniqueness": "uniqueness: m=2.5 fitted decay rate ",
    "consistency": "consistency: errors ",
    "figures": "figures: wrote 3 tables for fig4 to ",
    "energy-scaling": "energy-scaling: peak ratio ",
}
# perfbench/checks.py reads the headline numbers by these names
MANIFEST_KEYS = {
    "simulate": {"epsilon", "final_mass", "final_energy"},
    "sweep": {"potential_moderateness_n", "potential_residual", "potential_fit_flagged",
              "solution_moderateness_n", "solution_residual", "solution_fit_flagged"},
    "uniqueness": {"m", "decay_rate", "residual"},
    "consistency": {"reference", "strictly_decreasing"},
    "figures": {"figure"},
    "energy-scaling": {"ratio", "monotone_nondecreasing", "in_band"},
}


def test_command_enums():
    assert BACKEND_MAP == {"cn": "crank_nicolson", "spectral": "spectral_strang"}
    assert set(POTENTIAL_MAP) == {"zero", "one", "harmonic", "delta", "delta2"}


def test_reference_choices_are_the_harness_table():
    assert tuple(cli.SETTINGS["reference"].parse) == tuple(REFERENCES)


def test_bad_width_reads_the_mollifier_rule(tmp_path, capsys):
    assert main(["sweep", "--eps", "0.4,1.5", "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: regularization width must lie in (0, 1], got 1.5\n"
    assert not (tmp_path / "o").exists()


def test_missing_subcommand_is_usage_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main([]) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["simulate", "--m"], ["sweep", "--mollify"],
                                  ["consistency", "--ref", "matched"]],
                         ids=["m", "mollify", "ref"])
def test_abbreviated_flag_is_usage_error(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path / "o")]) == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["sweep", "--bogus", "1"], ["simulate", "--dt"], [],
                                  ["bogus"]],
                         ids=["unknown-flag", "missing-value", "no-command", "unknown-command"])
def test_malformed_command_line_is_one_error_line(tmp_path, monkeypatch, capsys, argv):
    # the default --out is relative, so nothing may appear in the working directory
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--out", "run24"], ["--nx", "256", "simulate"],
                                  ["--out=run24", "sweep"], ["--config", "x.cfg", "sweep"],
                                  ["--mollify-data", "sweep"]],
                         ids=["out-alone", "value-then-command", "joined-value", "config",
                              "bare-boolean"])
def test_flag_before_subcommand_names_the_flag(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    flag = argv[0].partition("=")[0]
    assert captured.out == ""
    assert captured.err == (f"error: {flag}: flags go after the subcommand, "
                            f"as in 'fracschrod COMMAND {flag} ...'\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--help", "--out", "run24"]])
def test_top_level_help_still_exits_zero(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fracschrod")
    assert not any(tmp_path.iterdir())


class TestSimulate:
    def test_happy_path(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path), "--eps", "0.2"] + FAST)
        assert rc == 0
        assert (tmp_path / "density_t0.0214_eps0.2.csv").exists()
        assert (tmp_path / "energy_eps0.2.csv").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["epsilon"] == 0.2
        assert len(manifest["config_hash"]) == 64
        assert "final mass" in capsys.readouterr().out

    def test_rejects_multiple_widths(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--eps", "0.2,0.1"] + FAST)
        assert rc == 2

    def test_cn_rejects_fractional_order(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--backend", "cn",
                   "--s", "0.5", "--eps", "0.2"] + FAST)
        assert rc == 2

    def test_spectral_accepts_fractional_order(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--backend", "spectral",
                   "--s", "0.5", "--eps", "0.2"] + FAST)
        assert rc == 0

    def test_unparsable_eps(self, tmp_path):
        rc = main(["simulate", "--out", str(tmp_path), "--eps", "0.2,oops"] + FAST)
        assert rc == 2

    def test_out_path_blocked_by_file(self, tmp_path):
        blocker = tmp_path / "taken"
        blocker.write_text("")
        rc = main(["simulate", "--out", str(blocker), "--eps", "0.2"] + FAST)
        assert rc == 4

    def test_numerical_abort_exit_code(self, tmp_path, monkeypatch):
        def explode(cfg, epsilon):
            raise NumericalAbort(3, 0.0321, 2.0e5, epsilon=epsilon)

        monkeypatch.setattr("fracschrod.harness.single_run", explode)
        rc = main(["simulate", "--out", str(tmp_path), "--eps", "0.2"] + FAST)
        assert rc == 3

    def test_tables_are_figure_tables(self, tmp_path):
        # simulate's default run is fig1's last snapshot run and fig4's eps 0.05 run
        for command in (["simulate"], ["figures", "--figure", "fig1"],
                        ["figures", "--figure", "fig4"]):
            assert main(command + ["--out", str(tmp_path / command[-1]), "--nx", "256"]) == 0
        density, energy = "density_t0.2996_eps0.05.csv", "energy_eps0.05.csv"
        simulated = tmp_path / "simulate"
        assert (simulated / density).read_bytes() == (tmp_path / "fig1" / density).read_bytes()
        assert (simulated / energy).read_bytes() == (tmp_path / "fig4" / energy).read_bytes()


def test_flags_and_config_keys_agree():
    # resolve_settings reads each SETTINGS key from the flag's dest
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    dests = {key.replace("-", "_") for key in SETTINGS}
    seen = set()
    for name, sub in subparsers.choices.items():
        for action in sub._actions:
            longs = [o for o in action.option_strings if o.startswith("--")]
            if not longs or longs[0] in ("--config", "--help"):
                continue
            assert action.dest in dests, (name, longs[0])
            seen.add(action.dest)
    assert seen == dests


@pytest.mark.parametrize("command,expected", [
    ("simulate", ExperimentConfig(epsilons=(0.05,))),
    ("sweep", ExperimentConfig(solver=SolverConfig(t_end=0.214))),
    ("energy-scaling", ExperimentConfig(potential=PotentialSpec("delta_squared"))),
])
def test_default_run_is_the_library_default(command, expected):
    # the CLI restates none of the paper's defaults, only its per-command overrides
    settings = resolve_settings(build_parser().parse_args([command]))
    assert build_experiment(settings) == expected


def _as_config_file(argv) -> str:
    lines, rest = [], list(argv)
    while rest:
        key = rest.pop(0).removeprefix("--")
        lines.append(f"{key} = {'yes' if key == 'mollify-data' else rest.pop(0)}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command", COMMANDS)
def test_summary_line_and_manifest_keys(tmp_path, capsys, command):
    assert main([command, "--out", str(tmp_path)] + FAST + RUNS[command]) == 0
    out = capsys.readouterr().out
    assert out.startswith(SUMMARY_PREFIX[command]) and out.count("\n") == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert set(manifest) == {"command", "config_hash", "created", "files"} | MANIFEST_KEYS[command]


@pytest.mark.parametrize("command", COMMANDS)
def test_flags_and_config_file_give_the_same_run(tmp_path, command):
    argv = FAST + RUNS[command]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(_as_config_file(argv))
    flags, from_file = tmp_path / "flags", tmp_path / "file"
    assert main([command, "--out", str(flags)] + argv) == 0
    assert main([command, "--config", str(cfg), "--out", str(from_file)]) == 0

    def tables(root):
        return {p.relative_to(root): p.read_bytes() for p in root.rglob("*.csv")}

    def config_hash(root):
        return json.loads((root / "manifest.json").read_text())["config_hash"]

    assert tables(flags) and tables(flags) == tables(from_file)
    assert config_hash(flags) == config_hash(from_file)


@pytest.mark.parametrize("overridden", [False, True])
@pytest.mark.parametrize("command, line, flag", [
    ("simulate", "backend = foo", ["--backend", "cn"]),
    ("figures", "figure = fig9", ["--figure", "fig1"]),
    ("consistency", "reference = coarse", ["--reference", "fine"]),
    ("simulate", "mollify-data = maybe", ["--mollify-data"]),
    ("simulate", "nx = 2.5", ["--nx", "256"]),
])
def test_bad_config_value_is_an_error(tmp_path, capsys, command, line, flag, overridden):
    # parsed as the file is read, so a flag for the same key does not hide it
    cfg = tmp_path / "run.cfg"
    cfg.write_text(line + "\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "o")]
    assert main(argv + (flag if overridden else [])) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["simulate", "--backend", "foo"],
    ["figures", "--figure", "fig9"],
    ["simulate", "--s", "abc"],
])
def test_bad_flag_value_is_an_error(tmp_path, argv):
    proc = subprocess.run([sys.executable, "-m", "fracschrod", *argv, "--out", str(tmp_path / "o")],
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {argv[1]}: ")
    assert not (tmp_path / "o").exists()


class TestConfigFile:
    def test_file_settings_apply(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\n\nnx = 256\neps = 0.2\nt-end = 0.0214\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "density_t0.0214_eps0.2.csv").exists()

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 256\neps = 0.2\nt-end = 0.0214\n")
        rc = main(["simulate", "--config", str(cfg), "--eps", "0.1",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["epsilon"] == 0.1

    def test_hyphenated_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx = 256\neps = 0.2\nt-end = 0.0214\n")
        rc = main(["simulate", "--config", str(cfg), "--t-end", "0.0107",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert (tmp_path / "o" / "density_t0.0107_eps0.2.csv").exists()
        assert not (tmp_path / "o" / "density_t0.0214_eps0.2.csv").exists()

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid_points = 256\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("command, line", [
        ("simulate", "m = 3"),
        ("sweep", "figure = fig1"),
        ("uniqueness", "reference = matched"),
        ("figures", "eps = 0.3"),
        ("figures", "potential = zero"),
    ])
    def test_rejects_setting_of_another_command(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        rc = main([command, "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        key = line.split(" ")[0]
        assert capsys.readouterr().err.startswith(f"error: {cfg}: {key}: ")
        assert not (tmp_path / "o").exists()

    def test_mollify_data_flag_overrides_file(self, tmp_path):
        argv = FAST + ["--eps", "0.4,0.2,0.1"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mollify-data = yes\n")
        plain, on, off = tmp_path / "plain", tmp_path / "on", tmp_path / "off"
        assert main(["sweep", "--out", str(plain)] + argv) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(on)] + argv) == 0
        assert main(["sweep", "--config", str(cfg), "--mollify-data", "no",
                     "--out", str(off)] + argv) == 0

        def run(root):
            manifest = json.loads((root / "manifest.json").read_text())
            return (root / "sweep.csv").read_bytes(), manifest["config_hash"]

        assert run(off) == run(plain)
        assert run(on)[0] != run(plain)[0] and run(on)[1] != run(plain)[1]

    def test_missing_file(self, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "absent.cfg"),
                   "--out", str(tmp_path / "o")])
        assert rc == 4

    def test_parser_details(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mollify-data = yes\ndomain = 0,10\n")
        parsed = read_config_file(str(cfg))
        assert parsed == {"mollify-data": "yes", "domain": "0,10"}

    def test_rejects_repeated_key(self, tmp_path, capsys):
        # the run would otherwise take the last line silently
        cfg = tmp_path / "run.cfg"
        cfg.write_text("eps = 0.3\n# the smaller width\neps = 0.05\n")
        rc = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {cfg}:3: setting 'eps' given a second time\n"
        assert not (tmp_path / "o").exists()
        with pytest.raises(ValueError, match=":3: setting 'eps'"):
            read_config_file(str(cfg))

    def test_rejects_line_without_equals(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nx 256\n")
        with pytest.raises(ValueError):
            read_config_file(str(cfg))

    def test_rejects_empty_width_list(self):
        with pytest.raises(ValueError, match=r"^empty widths in ' , '$"):
            SETTINGS["eps"].parse(" , ")

    def test_rejects_one_ended_domain(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("domain = 0\n")
        rc = main(["simulate", "--config", str(cfg), "--eps", "0.2",
                   "--out", str(tmp_path / "o")])
        assert rc == 2


class TestOtherCommands:
    def test_sweep(self, tmp_path, capsys):
        rc = main(["sweep", "--out", str(tmp_path), "--eps", "0.4,0.2,0.1"] + FAST)
        assert rc == 0
        assert (tmp_path / "sweep.csv").exists()
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == ("epsilon,sup_norm_p,final_mass,final_energy,"
                          "final_composite_norm,window_mass,n_maxima")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert "potential_moderateness_n" in manifest
        assert "growth exponent" in capsys.readouterr().out

    def test_sweep_summary_names_a_flagged_fit(self, tmp_path, capsys):
        # at dx = 10/64 the spike samples are far from the eps^-1 law
        rc = main(["sweep", "--out", str(tmp_path), "--nx", "64",
                   "--dt", "0.0107", "--t-end", "0.0214"])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["potential_fit_flagged"] and not manifest["solution_fit_flagged"]
        summary = capsys.readouterr().out
        assert (f"potential growth exponent {manifest['potential_moderateness_n']:.4f} "
                f"(flagged fit, residual {manifest['potential_residual']:.4f}), ") in summary
        assert summary.count("flagged") == 1

    @pytest.mark.parametrize("flags", [(False, False), (True, False), (False, True)])
    def test_sweep_summary_reads_the_report_flags(self, tmp_path, capsys, monkeypatch, flags):
        # residuals under 0.1 with the flag set: the summary follows the report alone
        report = SweepReport((), 1.0, 0.05, flags[0], 0.5, 0.02, flags[1])
        monkeypatch.setattr(cli, "epsilon_sweep", lambda cfg: report)
        assert main(["sweep", "--out", str(tmp_path)]) == 0
        potential = " (flagged fit, residual 0.0500)" if flags[0] else ""
        solution = " (flagged fit, residual 0.0200)" if flags[1] else ""
        assert capsys.readouterr().out == (f"sweep: potential growth exponent 1.0000{potential}, "
                                           f"solution growth exponent 0.5000{solution}\n")

    @pytest.mark.parametrize("argv", [["simulate", "--eps", "0.035"],
                                      ["figures", "--figure", "fig3"]])
    def test_unsampled_spike_is_rejected(self, tmp_path, capsys, argv):
        # at dx = 0.625 no node lies within 0.035 of site 3
        rc = main(argv + ["--out", str(tmp_path / "o"), "--nx", "16"])
        assert rc == 2
        assert capsys.readouterr().err == "error: no node within 0.035 of site 3: dx = 0.625\n"
        # the first table makes the output directory, and no table was written
        assert not (tmp_path / "o").exists()

    def test_uniqueness(self, tmp_path):
        rc = main(["uniqueness", "--out", str(tmp_path),
                   "--eps", "0.4,0.2,0.1", "--m", "2"] + FAST)
        assert rc == 0
        lines = (tmp_path / "uniqueness.csv").read_text().splitlines()
        assert lines[0] == "epsilon,distance"
        assert len(lines) == 4

    def test_uniqueness_rejects_small_m(self, tmp_path):
        rc = main(["uniqueness", "--out", str(tmp_path), "--m", "0.5"] + FAST)
        assert rc == 2

    def test_uniqueness_rejects_perturbation_cut_by_domain(self, tmp_path):
        # the perturbation bump on (2, 4) is cut at x = 2.5
        rc = main(["uniqueness", "--out", str(tmp_path), "--domain", "2.5,12.5",
                   "--eps", "0.4,0.2,0.1"] + FAST)
        assert rc == 2

    def test_consistency_defaults_to_regular_potential(self, tmp_path):
        rc = main(["consistency", "--out", str(tmp_path),
                   "--eps", "0.4,0.2", "--reference", "matched"] + FAST)
        assert rc == 0
        lines = (tmp_path / "consistency.csv").read_text().splitlines()
        assert lines[0] == "epsilon,error"

    def test_consistency_rejects_singular_potential(self, tmp_path):
        rc = main(["consistency", "--out", str(tmp_path),
                   "--potential", "delta"] + FAST)
        assert rc == 2

    def test_figures_requires_figure_flag(self, tmp_path):
        rc = main(["figures", "--out", str(tmp_path)] + FAST)
        assert rc == 2

    @pytest.mark.parametrize("figure", ["all", "fig5"])
    def test_figures_dt_longer_than_a_figure_writes_nothing(self, tmp_path, capsys, figure):
        # fig1..fig4 fit a step of 0.07; fig5's snapshots end at 0.0642
        out = tmp_path / "o"
        rc = main(["figures", "--out", str(out), "--figure", figure, "--nx", "256",
                   "--dt", "0.07"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == "error: fig5: last snapshot time 0.0642 is shorter than dt 0.07\n"
        assert not out.exists()

    def test_figure_with_no_snapshots_takes_any_step(self, tmp_path):
        # fig4 is energy runs only, so no snapshot time bounds the step; fig5's
        # snapshot run still does (the test above)
        assert main(["figures", "--out", str(tmp_path), "--figure", "fig4", "--nx", "256",
                     "--dt", "0.07"]) == 0
        assert sorted(os.listdir(tmp_path)) == ["energy_eps0.05.csv", "energy_eps0.11.csv",
                                                "energy_eps0.49.csv", "manifest.json"]

    @pytest.mark.parametrize("flag", [["--eps", "0.3"], ["--potential", "zero"]],
                             ids=["eps", "potential"])
    def test_figures_takes_no_potential_or_widths(self, tmp_path, flag):
        # FIGURE_RUNS fixes both, so a value would only change the config hash
        subparsers = next(a for a in build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = subparsers.choices["figures"]._option_string_actions
        assert flag[0] not in options
        out = tmp_path / "o"
        assert main(["figures", "--out", str(out), "--figure", "fig4"] + flag) == 2
        assert not out.exists()

    def test_figures_single(self, tmp_path):
        rc = main(["figures", "--out", str(tmp_path), "--figure", "fig3",
                   "--nx", "256", "--t-end", "0.214"])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "figures"
        assert manifest["figure"] == "fig3"
        # figures sets nothing over the defaults; FIGURE_RUNS picks its widths
        expected = ExperimentConfig(n=256, solver=SolverConfig(t_end=0.214))
        assert manifest["config_hash"] == config_hash(expected)
        assert len(manifest["files"]) == 4
        assert sorted(manifest["files"] + ["manifest.json"]) == sorted(os.listdir(tmp_path))

    def test_figures_all_writes_one_manifest(self, tmp_path):
        assert main(["figures", "--out", str(tmp_path), "--figure", "all", "--nx", "256"]) == 0
        assert list(tmp_path.rglob("manifest.json")) == [tmp_path / "manifest.json"]
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["figure"] == "all"
        tables = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv"))
        assert len(tables) == 33
        assert manifest["files"] == tables
        assert {name.split("/")[0] for name in tables} == set(FIGURES)
        assert all(name.count("/") == 1 for name in tables)

    def test_failed_figures_all_keeps_its_tables_but_writes_no_manifest(
            self, tmp_path, monkeypatch):
        original = cli.emit_figure_data

        def abort_at_fig3(cfg, figure, out):
            if figure == "fig3":
                raise NumericalAbort(1, 0.0107, 1.0, 0.035)
            return original(cfg, figure, out)

        monkeypatch.setattr(cli, "emit_figure_data", abort_at_fig3)
        assert main(["figures", "--out", str(tmp_path), "--figure", "all", "--nx", "256"]) == 3
        assert sorted(os.listdir(tmp_path)) == ["fig1", "fig2"]
        assert not list(tmp_path.rglob("manifest.json"))

    def test_energy_scaling_zero_potential_ratio_one(self, tmp_path, capsys):
        rc = main(["energy-scaling", "--out", str(tmp_path), "--potential", "zero",
                   "--eps", "0.4,0.2,0.1"] + FAST)
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["ratio"] == pytest.approx(1.0, abs=1e-9)
        lines = (tmp_path / "energy_scaling.csv").read_text().splitlines()
        assert lines[0] == "epsilon,max_energy"
        assert "ratio" in capsys.readouterr().out


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run([sys.executable, "-m", "fracschrod", "--help"],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        for name in ("simulate", "sweep", "uniqueness", "consistency",
                     "figures", "energy-scaling"):
            assert name in proc.stdout

    def test_console_script(self, tmp_path):
        # run the `fracschrod` script this checkout declares, the way the
        # wrapper an installer generates for it does, so no install is needed
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
        module, _, attr = pyproject["project"]["scripts"]["fracschrod"].partition(":")
        wrapper = (f"import sys; from {module} import {attr}; "
                   f"sys.argv[0] = 'fracschrod'; sys.exit({attr}())")
        proc = subprocess.run(
            [sys.executable, "-c", wrapper,
             "simulate", "--out", str(tmp_path), "--eps", "0.2"] + FAST,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "manifest.json").exists()

    def test_import_loads_no_scipy(self):
        # scipy costs most of a command's start-up; the package must not need it
        code = ("import sys, fracschrod, fracschrod.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=str(SRC)),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
