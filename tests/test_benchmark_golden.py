"""The benchmark's correctness gate, run on one seed-0 pass of each workload.

perfbench/run.py judges every pass against perfbench/golden.json with a 1e-10
absolute tolerance; a refactor that moves an output past it fails the
benchmark, not the tests.  This runs the same judgement in process: the
seed-0 passes of cn-sweep, spectral-sweep and spectral-long through
perfbench/workloads.py, and the six cli-paper commands through cli.main.
Only checks.py and workloads.py are loaded; run.py pins the BLAS threads
when it is imported.  Unlike run.py, this also compares cli-paper's fitted
and manifest scalars with the snapshot (see _widths_keyed_by_repr).
"""

import importlib.util
import json
from pathlib import Path

import pytest

from fracschrod import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SEED = 0


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checks = _load("checks")
workloads = _load("workloads")


@pytest.fixture(scope="module")
def golden():
    with open(PERFBENCH / "golden.json") as fh:
        return json.load(fh)


def _widths_keyed_by_repr(snapshot):
    """The snapshot with every per-width row keyed by repr(float(eps)).

    golden.json keys cli-paper's rows as 'np.float64(0.035)', as
    checks.cli_outputs reads them, while checks.expected_scalars looks
    widths up as '0.035'; given the snapshot as stored, it finds no width
    and expects no cli-paper scalar at all.
    """
    def short(key):
        return repr(float(key.removeprefix("np.float64(").removesuffix(")")))

    rows = {section: {short(key): row for key, row in keyed.items()}
            for section, keyed in snapshot["per_width"].items()}
    return {**snapshot, "per_width": rows}


def _in_process_outputs(workload):
    outputs = {}
    for name, call in workloads.run_operations(workload, workloads.build_inputs(workload, SEED)):
        value = call()
        if name == "sweep":
            outputs[name] = checks.sweep_outputs(value)
        elif name == "uniqueness":
            outputs[name] = checks.uniqueness_outputs(value)
        else:
            outputs[name] = checks.trajectory_outputs(value)
    return outputs


def _cli_outputs(tmp_path):
    outputs = {}
    for command, argv in workloads.cli_argvs(workloads.widths(SEED)).items():
        out_dir = tmp_path / command
        assert cli.main([*argv, "--out", str(out_dir)]) == 0, command
        outputs[command] = checks.cli_outputs(command, str(out_dir))
    return outputs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_pass_matches_the_golden_snapshot(workload, golden, tmp_path):
    snapshot = golden[workload]
    outputs = (_cli_outputs(tmp_path) if workload == "cli-paper"
               else _in_process_outputs(workload))
    scalar_snapshot = _widths_keyed_by_repr(snapshot)
    problems = []
    for name, out in outputs.items():
        # as perfbench/run.py's Verdicts.judge, but with every fitted and
        # manifest scalar compared
        expected = checks.expected_scalars(scalar_snapshot, name, workloads.widths(SEED))
        if workload == "cli-paper" and name != "figures":
            assert expected, name
        check = checks.check_outputs(name, out, snapshot, expected)
        kind = workloads.SWEEP_POTENTIAL.get(workload) if name == "sweep" else None
        checks.check_invariants(check, out, kind)
        problems += check.problems
    assert not problems, "\n".join(problems)
