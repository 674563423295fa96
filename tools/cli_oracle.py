"""Golden oracle for the command line: run a fixed set of invocations, print hashes.

Usage:

    python tools/cli_oracle.py OUT_DIR > oracle.txt

Each invocation runs in a fresh ``python -m fracschrod`` process with
``PYTHONPATH`` set to this tree's ``src``, ``cwd=OUT_DIR`` and a relative
``--out`` (except the bare ``fracschrod``), so the printout names no
absolute path.  The printout gives each invocation's exit code, stdout
(lines marked ``  ``) and stderr (lines marked ``! ``), then one
``sha256  path`` line per output file, sorted by path.  A manifest is
hashed without its ``created`` timestamp.  CSV output is byte-deterministic,
so two trees compute the same tables exactly when the printouts of this
script run from each tree agree:

    python A/tools/cli_oracle.py /tmp/a > a.txt
    python B/tools/cli_oracle.py /tmp/b > b.txt
    diff a.txt b.txt

OUT_DIR must not exist yet or be empty.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
SPECTRAL = ["--backend", "spectral", "--s", "0.75"]

# the six commands at their defaults, then the reference, fractional-order,
# off-grid-step and smoothed-datum variants that take other code paths
INVOCATIONS = [
    ["simulate"],
    ["sweep"],
    ["uniqueness"],
    ["consistency"],
    ["figures", "--figure", "all"],
    ["energy-scaling"],
    ["consistency", "--reference", "matched"],
    ["simulate", *SPECTRAL],
    ["uniqueness", *SPECTRAL],
    ["figures", "--figure", "all", *SPECTRAL],
    ["figures", "--figure", "all", "--dt", "0.01"],
    ["figures", "--figure", "all", "--dt", "0.01", "--backend", "spectral"],
    ["sweep", "--mollify-data"],
    ["uniqueness", "--mollify-data"],
    ["figures", "--figure", "fig5", "--mollify-data"],
    # settings outside a command, an abbreviated flag, smoothing switched off
    ["simulate", "--config", "m.cfg"],
    ["simulate", "--m"],
    ["sweep", "--config", "mollify.cfg", "--mollify-data", "no"],
    # snapshots before the first full step; a step longer than fig5's snapshots
    ["figures", "--figure", "fig5", "--dt", "0.05"],
    ["figures", "--figure", "all", "--dt", "0.07"],
    # widths that figures does not take, as a flag and as a config-file line
    ["figures", "--figure", "fig4", "--eps", "0.3"],
    ["figures", "--figure", "fig4", "--config", "eps.cfg"],
    # malformed command lines and help text
    ["sweep", "--bogus", "1"],
    ["simulate", "--dt"],
    [],
    ["--help"],
    ["figures", "--help"],
]
CONFIG_FILES = {"m.cfg": "m = 3\n", "mollify.cfg": "mollify-data = yes\n",
                "eps.cfg": "eps = 0.3\n"}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        payload = json.loads(data)
        payload.pop("created", None)
        data = json.dumps(payload, indent=2, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(argv[0])
    root.mkdir(parents=True, exist_ok=True)
    if any(root.iterdir()):
        print(f"{root} is not empty", file=sys.stderr)
        return 2
    for name, text in CONFIG_FILES.items():
        (root / name).write_text(text)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for k, args in enumerate(INVOCATIONS):
        # a bare command line stays bare: without a subcommand, --out's value
        # would be read as one
        argv = [*args, "--out", f"run{k:02d}"] if args else []
        proc = subprocess.run([sys.executable, "-m", "fracschrod", *argv],
                              cwd=root, env=env, capture_output=True, text=True)
        print(" ".join(["$", "fracschrod", *argv]))
        print(f"exit {proc.returncode}")
        for line in proc.stdout.splitlines():
            print(f"  {line}")
        for line in proc.stderr.splitlines():
            print(f"! {line}")
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{digest(path)}  {path.relative_to(root).as_posix()}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
