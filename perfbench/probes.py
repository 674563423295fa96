"""Layer probes outside the workload passes: start-up, import and kernels.

* Interpreter start: wall time of `python -c pass`.
* Import: `python -X importtime -c "import fracschrod"`, parsed into the
  package's cumulative import time and the part spent importing scipy.
* Kernels: the public `cn_step`, `strang_step` and `solve_tridiagonal` at
  n = 1024, 4096 and 16384.  `cn_step` and `strang_step` build their stepper
  (the tridiagonal bands, or the phase and kinetic factors) on every call, so
  their times include that set-up; `solve_tridiagonal` isolates the sweep.
  Flops and bytes are computed from the array sizes (see `kernel_counts`),
  not measured: they ignore caches and the list conversion inside the sweep.
"""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

KERNEL_SIZES = (1024, 4096, 16384)
KERNEL_DT = 0.0107
KERNEL_BUDGET_S = 0.12
KERNEL_MIN_CALLS = 5


def run_python(args, env, cwd) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120, check=True)


def interp_start_s(env, cwd, repeats: int = 3) -> float:
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_python(["-c", "pass"], env, cwd)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def import_profile(env, cwd) -> dict:
    """Cumulative import time of fracschrod and of the scipy packages it pulls in."""
    proc = run_python(["-X", "importtime", "-c", "import fracschrod"], env, cwd)
    entries = []  # (depth, name, cumulative seconds), in the order the tree prints them
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    package = sum(c for d, n, c in entries if n == "fracschrod")
    scipy = 0.0
    # a scipy entry counts when no enclosing entry is scipy; children print before parents
    for i, (depth, name, cumulative) in enumerate(entries):
        if not (name == "scipy" or name.startswith("scipy.")):
            continue
        parent = next((n for d, n, _ in entries[i + 1:] if d < depth), "")
        if not (parent == "scipy" or parent.startswith("scipy.")):
            scipy += cumulative
    return {"cli.import_s": package, "cli.import_scipy_s": scipy}


def kernel_counts(kernel: str, n: int) -> tuple[float, float]:
    """Computed (flops, bytes) of one call at size n.

    A complex multiply counts 6 flops, a complex divide 11, a complex add 2,
    a real-by-complex multiply 2, an FFT of length n 5 n log2 n.  Bytes count
    every array a numpy operation or sweep reads plus the one it writes, once
    each, 16 bytes a complex and 8 a real value.  Stepper set-up is excluded.
    """
    m = n - 2
    log2n = n.bit_length() - 1
    sweep_flops = 46 * m          # forward: 2 mul, 2 sub, 2 div; backward: 1 mul, 1 sub
    sweep_bytes = (4 + 1) * 16 * m
    if kernel == "solve_tridiagonal":
        return float(sweep_flops), float(sweep_bytes)
    if kernel == "cn_step":
        # h = (2u - u[:-2] - u[2:]) a + p u ;  rhs = (i/dt) u + h/2: ten array passes,
        # four reading two complex arrays (48 B/node), one complex and real (40 B/node),
        # five one complex array (32 B/node); then the sweep, the zeroed output and
        # the copy of the solution into it
        flops = 22 * m + sweep_flops
        bytes_ = (4 * 48 + 40 + 5 * 32) * m + sweep_bytes + 16 * n + 32 * m
        return float(flops), float(bytes_)
    if kernel == "strang_step":
        # half phase, fft, kinetic factor, ifft, half phase
        flops = 3 * 6 * n + 2 * 5 * n * log2n
        bytes_ = 3 * (32 + 16) * n + 2 * (16 + 16) * n
        return float(flops), float(bytes_)
    raise ValueError(kernel)


def kernel_metrics() -> dict:
    from fracschrod.grid import make_grid
    from fracschrod.mollifier import PotentialSpec, regularize_potential
    from fracschrod.operators import FractionalOrder
    from fracschrod.solver import cn_step, initial_datum, solve_tridiagonal, strang_step
    import numpy as np

    metrics = {}
    for n in KERNEL_SIZES:
        grid = make_grid(0.0, 10.0, n)
        potential = regularize_potential(PotentialSpec("delta"), grid, 0.05)
        u = initial_datum(grid)
        a = 1.0 / grid.dx ** 2
        lower = np.full(n - 2, 0.5 * a, dtype=complex)
        upper = lower.copy()
        lower[0] = upper[-1] = 0.0
        diag = 1j / KERNEL_DT - (a + 0.5 * potential.field.values[1:-1])
        rhs = (1j / KERNEL_DT) * u.values[1:-1]
        calls = {
            "cn_step": lambda: cn_step(u, potential, KERNEL_DT),
            "strang_step": lambda: strang_step(u, potential, KERNEL_DT, FractionalOrder(1.0)),
            "solve_tridiagonal": lambda: solve_tridiagonal(lower, diag, upper, rhs),
        }
        for kernel, call in calls.items():
            call()  # first call outside the timing
            samples = []
            start = time.perf_counter()
            while len(samples) < KERNEL_MIN_CALLS or time.perf_counter() - start < KERNEL_BUDGET_S:
                t0 = time.perf_counter()
                call()
                samples.append(time.perf_counter() - t0)
            flops, bytes_ = kernel_counts(kernel, n)
            metrics[f"solver.{kernel}_us.n{n}"] = statistics.median(samples) * 1e6
            metrics[f"solver.{kernel}_us.n{n}.flops"] = flops
            metrics[f"solver.{kernel}_us.n{n}.bytes"] = bytes_
    return metrics


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "not a git checkout"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path) -> dict:
    from importlib.metadata import PackageNotFoundError, version

    def pkg(name):
        try:
            return version(name)
        except PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": pkg("numpy"),
        "scipy": pkg("scipy"),
        "git_commit": _git_commit(root),
        "src_sha256": source_digest(root / "src"),
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }
