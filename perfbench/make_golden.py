"""Write perfbench/golden.json: the outputs of every workload at the current commit.

    python3 perfbench/make_golden.py

Run it from the root of a checkout whose outputs are trusted, and only when
a change to the program is meant to change its results; say so, with the
size of the change, where the change is described.  The width sweeps are
run once over the whole width ladder, so the snapshot covers every width a
seed can draw (see workloads.py).
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench" / "golden"


def _outputs_by_command(commands: dict[str, list[str]]) -> dict[str, dict]:
    import checks
    from fracschrod import cli

    outputs = {}
    for command, argv in commands.items():
        out_dir = OUT / command
        if cli.main([*argv, "--out", str(out_dir)]) != 0:
            raise SystemExit(f"{command} failed while taking the snapshot")
        outputs[command] = checks.cli_outputs(command, str(out_dir))
    return outputs


def cli_paper() -> dict:
    import workloads
    from fracschrod import cli, harness

    fixed = {c: a for c, a in workloads.cli_argvs(workloads.PAPER_EPSILONS).items()
             if c in ("simulate", "consistency", "figures")}
    ladder = {c: a for c, a in workloads.cli_argvs(workloads.LADDER).items() if c not in fixed}
    golden = {"per_width": {}, "scalars": {}, "tables": {}}
    for command, out in _outputs_by_command(fixed).items():
        golden["scalars"][command] = out["scalars"]
        golden["tables"][command] = out["tables"]
    for command, out in _outputs_by_command(ladder).items():
        golden["per_width"].update(out["per_width"])
    # the sweep table omits the per-width sup of the composite norm behind the
    # solution slope, so take it from the library under the same settings
    args = cli.build_parser().parse_args(ladder["sweep"])
    report = harness.epsilon_sweep(cli.build_experiment(cli.resolve_settings(args)))
    golden["per_width"]["sweep_sup"] = {
        repr(float(r.epsilon)): [float(r.sup_composite_norm)] for r in report.records}
    return golden


def sweep(name: str) -> dict:
    import checks
    import workloads
    from fracschrod import harness

    cfg = workloads.sweep_config(name, workloads.LADDER)
    per_width = {}
    per_width.update(checks.sweep_outputs(harness.epsilon_sweep(cfg))["per_width"])
    per_width.update(checks.uniqueness_outputs(
        harness.uniqueness_experiment(cfg, m=2.0))["per_width"])
    return {"per_width": per_width, "scalars": {}, "tables": {}}


def spectral_long() -> dict:
    import checks
    import workloads
    from fracschrod import solver

    out = checks.trajectory_outputs(solver.simulate(*workloads.long_inputs()))
    return {"per_width": {}, "scalars": {}, "tables": {"simulate": out["tables"]}}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import probes
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    golden = {
        "meta": {"src_sha256": probes.source_digest(ROOT / "src"),
                 "ladder": list(workloads.LADDER)},
        "cli-paper": cli_paper(),
        "cn-sweep": sweep("cn-sweep"),
        "spectral-sweep": sweep("spectral-sweep"),
        "spectral-long": spectral_long(),
    }
    with open(HERE / "golden.json", "w") as fh:
        json.dump(golden, fh, indent=None, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"wrote {HERE / 'golden.json'} ({os.path.getsize(HERE / 'golden.json')} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
