"""fracschrod benchmark: one workload per run, or all four in sequence.

    python3 perfbench/run.py --workload cn-sweep --seed 3 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a checkout.  The program is imported from `src/` of
that checkout; nothing is installed.  See perfbench/README.md for the
workloads, the metrics and the correctness gate.

With --trace 0 the last line of standard output is the JSON object of
end-to-end metrics; with --trace 1 it holds the per-layer metrics.  A table
of every metric with its unit and sample count is printed before it, and the
full record (samples, provenance, problems) is written to .perfbench/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDEN = HERE / "golden.json"

SETUP_REPEATS = 3
MIN_PASSES = 3
# floors that turn the relative regression bound into an absolute tolerance
# for metrics that sit at zero or at roundoff on a correct program; the
# golden error's floor is the gate's own tolerance
MASS_DRIFT_FLOOR = 1e-11
ENERGY_DRIFT_FLOOR = 1e-9

E2E_UNITS = {
    "wall_s": "s", "setup_s": "s", "node_steps_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_frac": "frac", "golden_max_abs_err": "abs", "mass_drift_max": "rel",
    "energy_drift_max": "rel",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


median = statistics.median


# -- setup ------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh interpreter until `import fracschrod` returns and the inputs are built."""
    samples = []
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import workloads; "
            "workloads.build_inputs(sys.argv[2], int(sys.argv[3])); print(repr(time.monotonic()))")
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", code, str(HERE), workload, str(seed)],
                              env=child_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]) - t0)
    return samples


# -- one pass -----------------------------------------------------------------


class Pass:
    """Operations of one pass, their outputs and how long the pass took."""

    def __init__(self):
        self.wall_s = 0.0
        self.outputs: dict[str, dict] = {}
        self.errors: dict[str, str] = {}
        self.peak_rss_kb = 0
        self.command_s: dict[str, float] = {}


def cli_pass(argvs: dict, out_root: Path) -> Pass:
    """Each command in a fresh `python -m fracschrod` process, one after another."""
    import checks

    result = Pass()
    env = child_env()
    t0 = time.perf_counter()
    for command, argv in argvs.items():
        out_dir = out_root / command
        started = time.perf_counter()
        with open(out_root / f"{command}.log", "w") as log:
            proc = subprocess.Popen(
                [sys.executable, "-m", "fracschrod", *argv, "--out", str(out_dir)],
                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        result.command_s[command] = time.perf_counter() - started
        result.peak_rss_kb = max(result.peak_rss_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            result.errors[command] = f"exit code {proc.returncode}"
    result.wall_s = time.perf_counter() - t0
    for command in argvs:
        if command not in result.errors:
            try:
                result.outputs[command] = checks.cli_outputs(command, str(out_root / command))
            except (OSError, ValueError, KeyError, IndexError) as exc:
                result.errors[command] = f"unreadable output: {exc!r}"
    return result


def in_process_pass(workload: str, inputs, argvs: dict | None, out_root: Path,
                    recorder=None) -> Pass:
    """One pass in this process; cli-paper goes through `fracschrod.cli.main(argv)`."""
    import checks
    import workloads

    result = Pass()
    if argvs is not None:
        from fracschrod import cli
        operations = [(c, lambda c=c, a=a: cli.main([*a, "--out", str(out_root / c)]))
                      for c, a in argvs.items()]
    else:
        operations = list(workloads.run_operations(workload, inputs))
    returned = {}
    with open(out_root / "stdout.log", "w") as log, contextlib.redirect_stdout(log):
        root = recorder.open("bench.pass") if recorder is not None else None
        t0 = time.perf_counter()
        for name, call in operations:
            try:
                returned[name] = call()
            except Exception as exc:  # one failed operation must not stop the pass
                result.errors[name] = repr(exc)
        result.wall_s = time.perf_counter() - t0
        if root is not None:
            recorder.close(root)
    for name, value in returned.items():
        try:
            if argvs is not None:
                if value != 0:
                    result.errors[name] = f"exit code {value}"
                    continue
                result.outputs[name] = checks.cli_outputs(name, str(out_root / name))
            elif name == "sweep":
                result.outputs[name] = checks.sweep_outputs(value)
            elif name == "uniqueness":
                result.outputs[name] = checks.uniqueness_outputs(value)
            else:
                result.outputs[name] = checks.trajectory_outputs(value)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result.errors[name] = f"unreadable output: {exc!r}"
    return result


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# -- correctness ----------------------------------------------------------------


class Verdicts:
    """Operations attempted and failed, the largest golden error and the drifts."""

    def __init__(self, workload: str, seed: int, golden: dict):
        import workloads

        self.golden = golden[workload]
        self.eps = workloads.widths(seed)
        self.kind = workloads.SWEEP_POTENTIAL.get(workload)
        self.attempted = 0
        self.failed = 0
        self.max_err = 0.0
        self.mass_drift = 0.0
        self.energy_drift = 0.0
        self.problems: list[str] = []

    def judge(self, result: Pass) -> None:
        import checks

        for name, error in result.errors.items():
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{name}: {error}")
        for name, out in result.outputs.items():
            self.attempted += 1
            expected = checks.expected_scalars(self.golden, name, self.eps)
            check = checks.check_outputs(name, out, self.golden, expected)
            kind = self.kind if name == "sweep" else None
            checks.check_invariants(check, out, kind)
            self.max_err = max(self.max_err, check.max_err)
            self.mass_drift = max(self.mass_drift, out["mass_drift"])
            self.energy_drift = max(self.energy_drift, out["energy_drift"])
            if not check.ok:
                self.failed += 1
                self.problems.extend(check.problems)

    def add_drifts(self, mass: float, energy: float) -> None:
        """Drifts of every simulate call of a pass judged just before."""
        import checks

        self.mass_drift = max(self.mass_drift, mass)
        self.energy_drift = max(self.energy_drift, energy)
        if mass > checks.MASS_DRIFT_CEILING:
            self.failed = min(self.attempted, self.failed + 1)
            self.problems.append(
                f"mass drifts by {mass:.3e}, ceiling {checks.MASS_DRIFT_CEILING:g}")


# -- a run -------------------------------------------------------------------


def keep_going(done: int, start: float, last_s: float, seconds: float) -> bool:
    """At least MIN_PASSES; after that, start a pass only if it should end in time."""
    return done < MIN_PASSES or time.perf_counter() - start + last_s <= seconds


def timed_passes(run_one, seconds: float) -> list[Pass]:
    passes = []
    start = time.perf_counter()
    while keep_going(len(passes), start, passes[-1].wall_s if passes else 0.0, seconds):
        passes.append(run_one())
    return passes


def count_pass(workload, inputs, argvs, out_root):
    """Untimed pass with counting hooks only: node-steps, steps and drifts."""
    from tracing import Recorder

    recorder = Recorder(spans=False).install()
    try:
        result = in_process_pass(workload, inputs, argvs, out_root)
    finally:
        recorder.uninstall()
    return result, recorder


def run_end_to_end(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, dict]:
    import checks
    import workloads

    out_root = fresh_dir(OUT / f"{workload}-seed{seed}")
    inputs = workloads.build_inputs(workload, seed)
    setup = measure_setup(workload, seed)
    verdicts = Verdicts(workload, seed, golden)
    argvs = inputs if workload == "cli-paper" else None

    warm, counter = count_pass(workload, inputs, argvs, fresh_dir(out_root / "count"))
    verdicts.judge(warm)
    verdicts.add_drifts(counter.mass_drift, counter.energy_drift)

    if argvs is not None:
        passes = timed_passes(lambda: cli_pass(argvs, fresh_dir(out_root / "pass")), seconds)
        peak_rss_kb = max(p.peak_rss_kb for p in passes)
    else:
        passes = timed_passes(
            lambda: in_process_pass(workload, inputs, None, out_root), seconds)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for result in passes:
        verdicts.judge(result)

    walls = [p.wall_s for p in passes]
    wall = median(walls)
    metrics = {
        "wall_s": (wall, len(walls)),
        "setup_s": (median(setup), len(setup)),
        "node_steps_per_s": (counter.counters["node_steps"] / wall, len(walls)),
        "peak_rss_mb": (peak_rss_kb / 1024.0, len(passes)),
        "ok_frac": ((verdicts.attempted - verdicts.failed) / verdicts.attempted,
                    verdicts.attempted),
        "golden_max_abs_err": (max(verdicts.max_err, checks.GOLDEN_TOL), verdicts.attempted),
        "mass_drift_max": (max(verdicts.mass_drift, MASS_DRIFT_FLOOR), 1),
        "energy_drift_max": (max(verdicts.energy_drift, ENERGY_DRIFT_FLOOR), 1),
    }
    record = {
        "samples": {"wall_s": walls, "setup_s": setup},
        "node_steps_per_pass": counter.counters["node_steps"],
        "raw": {"golden_max_abs_err": verdicts.max_err, "mass_drift_max": verdicts.mass_drift,
                "energy_drift_max": verdicts.energy_drift},
        "problems": verdicts.problems[:50],
    }
    return _result(verdicts, metrics, E2E_UNITS), record


def run_traced(workload: str, seed: int, seconds: float, golden: dict) -> tuple[dict, dict]:
    import probes
    import tracing
    import workloads

    out_root = fresh_dir(OUT / f"{workload}-seed{seed}-trace")
    inputs = workloads.build_inputs(workload, seed)
    verdicts = Verdicts(workload, seed, golden)
    argvs = inputs if workload == "cli-paper" else None
    env = child_env()

    layer = {"cli.interp_start_s": probes.interp_start_s(env, ROOT)}
    layer.update(probes.import_profile(env, ROOT))
    layer.update(probes.kernel_metrics())
    for command in workloads.CLI_COMMANDS:
        layer[f"cli.cmd.{command}_s"] = 0.0
    layer["cli.startup_share"] = 0.0
    if argvs is not None:
        cli = cli_pass(argvs, fresh_dir(out_root / "cli"))
        verdicts.judge(cli)
        for command in workloads.CLI_COMMANDS:
            layer[f"cli.cmd.{command}_s"] = cli.command_s[command]
        startup = median(measure_setup(workload, seed))
        layer["cli.startup_share"] = len(argvs) * startup / cli.wall_s

    # untraced and traced passes alternate, so that drift in machine speed
    # does not land on one side of the overhead
    plain, traced, recorders = [], [], []
    start = time.perf_counter()
    while keep_going(len(traced), start,
                     plain[-1].wall_s + traced[-1].wall_s if traced else 0.0, seconds):
        plain.append(in_process_pass(workload, inputs, argvs, fresh_dir(out_root / "plain")))
        recorder = tracing.Recorder().install()
        try:
            traced.append(in_process_pass(workload, inputs, argvs,
                                          fresh_dir(out_root / "traced"), recorder))
        finally:
            recorder.uninstall()
        recorders.append(recorder)
    for result in plain + traced:
        verdicts.judge(result)
    recorders[-1].write_spans(str(out_root / "spans.tsv"))

    per_pass = [r.aggregate() for r in recorders]
    for name in tracing.SPAN_NAMES:
        layer[f"{name}.calls"] = per_pass[-1]["calls"].get(name, 0)
        layer[f"{name}.self_s"] = median([a["self_s"].get(name, 0.0) for a in per_pass])
    for fft in ("numpy.fft.fft", "numpy.fft.ifft"):
        for where in ("stepping", "observables", "other"):
            layer[f"{fft}.calls_{where}"] = per_pass[-1]["fft_where"].get(f"{fft}.calls_{where}", 0)
    layer["harness.simulate_calls"] = per_pass[-1]["harness_simulate_calls"]
    layer["harness.csv_bytes"] = recorders[-1].counters["harness.csv_bytes"]
    layer["solver.steps"] = recorders[-1].counters["solver.steps"]

    traced_wall = median([a["wall_s"] for a in per_pass])
    plain_wall = median([p.wall_s for p in plain])
    layer["trace.wall_s"] = traced_wall
    layer["trace.untraced_wall_s"] = plain_wall
    layer["trace.overhead_s"] = traced_wall - plain_wall
    layer["trace.unattributed_s"] = median([a["layer_self_s"].get("bench", 0.0) for a in per_pass])
    for name in tracing.LAYERS:
        layer[f"share.{name}"] = median(
            [a["layer_self_s"].get(name, 0.0) / a["wall_s"] for a in per_pass])
    layer["share.stepping"] = median([a["stepping_s"] / a["wall_s"] for a in per_pass])
    layer["share.observables_incl"] = median(
        [a["observables_incl_s"] / a["wall_s"] for a in per_pass])

    units = {name: _layer_unit(name) for name in layer}
    metrics = {name: (value, len(per_pass)) for name, value in layer.items()}
    record = {"problems": verdicts.problems[:50], "traced_passes": len(per_pass),
              "untraced_passes": len(plain)}
    return _result(verdicts, metrics, units), record


def _layer_unit(name: str) -> str:
    if name.endswith(".calls") or ".calls_" in name or name in (
            "harness.simulate_calls", "solver.steps"):
        return "count"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith(".bytes") or name == "harness.csv_bytes":
        return "B"
    if "_us." in name:
        return "us"
    if name.startswith("share.") or name.endswith("_share"):
        return "frac"
    return "s"


def _result(verdicts: Verdicts, metrics: dict, units: dict) -> dict:
    return {
        "correct": verdicts.failed == 0 and not verdicts.problems,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name], "samples": n}
                    for name, (value, n) in metrics.items()},
    }


def print_table(workload: str, result: dict) -> None:
    print(f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']:<6} n={m['samples']}")


def strip_samples(metrics: dict) -> dict:
    return {name: {"value": m["value"], "unit": m["unit"]} for name, m in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fracschrod" / "__init__.py").is_file():
        print(f"error: no fracschrod sources under {SRC}", file=sys.stderr)
        return 2
    if not GOLDEN.is_file():
        print(f"error: golden snapshot {GOLDEN} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import probes
    import workloads

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{workloads.WORKLOADS} or all", file=sys.stderr)
        return 2
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    OUT.mkdir(exist_ok=True)
    info = probes.provenance(ROOT)
    info.update(seed=args.seed, widths=list(workloads.widths(args.seed)),
                seconds=args.seconds, trace=args.trace)
    print("provenance " + json.dumps(info, sort_keys=True))

    runner = run_traced if args.trace else run_end_to_end
    results = {}
    for name in names:
        result, record = runner(name, args.seed, args.seconds, golden)
        print_table(name, result)
        for problem in record["problems"][:10]:
            print(f"  problem: {problem}")
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        with open(OUT / f"{tag}.json", "w") as fh:
            json.dump({"provenance": info, "result": result, **record}, fh, indent=1)
        results[name] = result

    if len(names) == 1:
        final = dict(results[names[0]], metrics=strip_samples(results[names[0]]["metrics"]))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{k}": v for w, r in results.items()
                        for k, v in strip_samples(r["metrics"]).items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
