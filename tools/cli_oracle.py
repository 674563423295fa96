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

A change that alters the arithmetic on purpose changes every hash it
touches.  The compare mode then reads two finished OUT_DIRs, one from each
tree, and measures how far apart their outputs are:

    python tools/cli_oracle.py --compare /tmp/a /tmp/b --tol 1e-12

For each CSV it prints the largest absolute difference over its numeric
cells; for each manifest, every numeric key whose values differ, with both
values.  Any other file, and every non-numeric cell or key, must be equal
(a manifest's ``created`` is skipped).  The last line gives the largest
gap and where it is: the file and, for a manifest, the key.  It exits 1
when the two file sets differ, a non-numeric value differs or a gap
exceeds the tolerance (default 0), else 0.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
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
    ["--nx", "256", "simulate"],
    ["--help"],
    ["figures", "--help"],
    # Strang at n >= 8192: a run, a harmonic run that records every step, and
    # the fine reference (4x nodes) of a consistency check
    ["simulate", "--backend", "spectral", "--nx", "16384", "--eps", "0.035",
     "--potential", "delta2"],
    ["simulate", "--backend", "spectral", "--nx", "8192", "--potential", "harmonic"],
    ["consistency", "--backend", "spectral", "--nx", "2048"],
    # a sweep whose potential fit is flagged, and a spike no grid node samples
    ["sweep", "--nx", "64"],
    ["simulate", "--eps", "0.035", "--nx", "16"],
    # uniqueness runs of several pieces, their step on t_end's grid and off it,
    # and a short run off the grid: one whole piece and the shortened step
    ["uniqueness", "--dt", "0.0005"],
    ["uniqueness", "--dt", "0.0006"],
    ["uniqueness", "--dt", "0.03"],
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


def run_oracle(root: Path) -> int:
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


def _gap(a: str, b: str) -> float:
    """|a - b| of two cells: 0 when equal, inf when they differ and either is no number."""
    if a == b:
        return 0.0
    try:
        gap = abs(float(a) - float(b))
    except ValueError:
        return math.inf
    return math.inf if math.isnan(gap) else gap


def csv_gap(a: Path, b: Path) -> float:
    """Largest absolute difference between two CSV tables of the same shape."""
    with open(a, newline="") as fa, open(b, newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    return max((_gap(x, y) for ra, rb in zip(rows_a, rows_b) for x, y in zip(ra, rb)),
               default=0.0)


def manifest_gaps(a: Path, b: Path) -> list[tuple[str, object, object, float]]:
    """(key, value in a, value in b, gap) for every key whose values differ."""
    ma, mb = json.loads(a.read_text()), json.loads(b.read_text())
    differing = []
    for key in sorted((ma.keys() | mb.keys()) - {"created"}):
        va, vb = ma.get(key), mb.get(key)
        if va == vb:
            continue
        numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                      for v in (va, vb))
        differing.append((key, va, vb, _gap(str(va), str(vb)) if numeric else math.inf))
    return differing


def compare(a: Path, b: Path, tol: float) -> int:
    """Print how far the outputs of two oracle runs are apart; 1 if beyond tol."""
    names_a = {p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()}
    names_b = {p.relative_to(b).as_posix() for p in b.rglob("*") if p.is_file()}
    failed = names_a != names_b
    for name in sorted(names_a - names_b):
        print(f"only in {a}: {name}")
    for name in sorted(names_b - names_a):
        print(f"only in {b}: {name}")
    worst, where = 0.0, ""
    for name in sorted(names_a & names_b):
        pa, pb = a / name, b / name
        if name.endswith(".csv"):
            gaps = [(csv_gap(pa, pb), name)]
            print(f"{gaps[0][0]:.3e}  {name}")
        elif pa.name == "manifest.json":
            differing = manifest_gaps(pa, pb)
            gaps = [(gap, f"{name}: {key}") for key, *_, gap in differing]
            for key, va, vb, gap in differing:
                print(f"{gap:.3e}  {name}: {key}: {va!r} != {vb!r}")
        else:
            gaps = [(0.0 if pa.read_bytes() == pb.read_bytes() else math.inf, name)]
            if gaps[0][0]:
                print(f"differs  {name}")
        for gap, label in gaps:
            if gap > worst:
                worst, where = gap, f" in {label}"
    failed |= worst > tol
    print(f"{len(names_a & names_b)} files compared; largest gap {worst:.3e}{where}, "
          f"tolerance {tol:g}: {'FAIL' if failed else 'ok'}")
    return int(failed)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Golden oracle for the command line.")
    parser.add_argument("out_dir", nargs="?", type=Path, help="directory for a new oracle run")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OUT_A", "OUT_B"),
                        help="compare the outputs of two finished oracle runs")
    parser.add_argument("--tol", type=float, default=0.0,
                        help="largest absolute gap --compare accepts (default 0)")
    args = parser.parse_args(argv)
    if (args.out_dir is None) == (args.compare is None):
        parser.error("give either OUT_DIR or --compare OUT_A OUT_B")
    if args.compare:
        return compare(*args.compare, args.tol)
    return run_oracle(args.out_dir)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
