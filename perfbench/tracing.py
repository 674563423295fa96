"""Spans and counters recorded from outside the program.

`Recorder.install` replaces a public function at every module namespace of
the package that binds it (for example `simulate` is bound in both `solver`
and `harness`), wraps `ComplexField.__post_init__` on the class, and wraps
`numpy.fft.fft`/`ifft`.  `src/` is never modified; `uninstall` puts every
original back.

Each wrapped call records a span (name, start, end, parent) in memory.  A
span's self time is its duration minus the time its child spans cover; the
calls are nested and single-threaded, so that is the sum of the children's
durations.  Counting hooks on `simulate` and `write_csv` feed the step,
node-step, drift and CSV-byte counters; `Recorder(spans=False)` keeps only
those hooks, for the untimed pass that counts work.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np

from checks import relative_drift

TRACED = {
    "cli": ("main",),
    "harness": ("epsilon_sweep", "uniqueness_experiment", "consistency_experiment",
                "emit_figure_data", "delta_squared_energy_scaling", "single_run",
                "prepared_datum", "write_csv"),
    "solver": ("simulate", "solve_tridiagonal", "initial_datum"),
    "observables": ("energy", "composite_norm", "window_mass", "count_local_maxima",
                    "position_density"),
    "grid": ("l2_norm", "hs_seminorm", "make_grid"),
    "mollifier": ("regularize_potential", "mollify_samples", "bump_normalization",
                  "sup_norm", "moderateness_exponent"),
}
POST_INIT = "grid.ComplexField.__post_init__"
FFTS = ("fft", "ifft")
SPAN_NAMES = tuple(f"{layer}.{f}" for layer, fs in TRACED.items() for f in fs) + (
    POST_INIT, *(f"numpy.fft.{f}" for f in FFTS))
ROOT = "bench.pass"
LAYERS = ("cli", "harness", "solver", "observables", "grid", "mollifier", "numpy.fft", "bench")

# nearest enclosing span that decides where an FFT call is charged
_OBSERVABLE_SPANS = {f"observables.{f}" for f in TRACED["observables"]} | {
    "grid.hs_seminorm", "grid.l2_norm"}
_STEPPING_SPANS = {"solver.simulate"}


def layer_of(name: str) -> str:
    return "numpy.fft" if name.startswith("numpy.fft.") else name.split(".", 1)[0]


def scheduled_steps(config) -> int:
    """Steps `simulate` takes: the full steps plus one short one if t_end is off the grid."""
    n_full = int(np.floor(config.t_end / config.dt + 1e-9))
    remainder = config.t_end - n_full * config.dt
    return n_full + (1 if remainder >= config.dt * 1e-9 else 0)


class Recorder:
    def __init__(self, spans: bool = True):
        self.spans = spans
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)
        self.mass_drift = 0.0
        self.energy_drift = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, after=None):
        if not self.spans:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                after(args, kwargs, result)
                return result
            return counted

        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    # -- counting hooks ----------------------------------------------------

    def _after_simulate(self, args, kwargs, trajectory) -> None:
        u0 = args[0] if args else kwargs["u0"]
        config = args[2] if len(args) > 2 else kwargs["config"]
        steps = scheduled_steps(config)
        self.counters["solver.steps"] += steps
        self.counters["node_steps"] += steps * u0.grid.n
        self.mass_drift = max(self.mass_drift, relative_drift(trajectory.mass))
        self.energy_drift = max(self.energy_drift, relative_drift(trajectory.energy))

    def _after_write_csv(self, args, kwargs, result) -> None:
        path = args[0] if args else kwargs["path"]
        self.counters["harness.csv_bytes"] += os.path.getsize(path)

    # -- installation ------------------------------------------------------

    def _rebind(self, original, replacement) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "fracschrod" or mod_name.startswith("fracschrod.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def install(self) -> "Recorder":
        import fracschrod.cli  # noqa: F401  (bind every module before scanning)
        from fracschrod import grid

        hooks = {"solver.simulate": self._after_simulate,
                 "harness.write_csv": self._after_write_csv}
        for layer, functions in TRACED.items():
            module = sys.modules[f"fracschrod.{layer}"]
            for function in functions:
                name = f"{layer}.{function}"
                if not self.spans and name not in hooks:
                    continue
                original = getattr(module, function)
                self._rebind(original, self._wrap(name, original, hooks.get(name)))
        if self.spans:
            original = grid.ComplexField.__post_init__
            grid.ComplexField.__post_init__ = self._wrap(POST_INIT, original)
            self._undo.append((grid.ComplexField, "__post_init__", original))
            for function in FFTS:
                original = getattr(np.fft, function)
                setattr(np.fft, function, self._wrap(f"numpy.fft.{function}", original))
                self._undo.append((np.fft, function, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def aggregate(self) -> dict:
        """Per-name calls and self time, FFT attribution, layer self time.

        stepping_s is the self time of `simulate` plus the FFTs it calls
        directly; observables_incl_s is the whole duration of the outermost
        observable and norm calls, FFTs and field construction included.
        """
        n = len(self.starts)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        fft_where: dict[str, int] = defaultdict(int)
        harness_simulate = 0
        stepping = observables = 0.0
        for i, name in enumerate(self.names):
            calls[name] += 1
            own = dur[i] - child[i]
            self_s[name] += own
            layer_self[layer_of(name)] += own
            if name.startswith("numpy.fft."):
                where = self._fft_context(i)
                fft_where[f"{name}.calls_{where}"] += 1
                if where == "stepping":
                    stepping += own
            elif name == "solver.simulate":
                stepping += own
                if self._has_ancestor(i, lambda a: layer_of(a) == "harness"):
                    harness_simulate += 1
            if name in _OBSERVABLE_SPANS and not self._has_ancestor(
                    i, lambda a: a in _OBSERVABLE_SPANS):
                observables += dur[i]
        roots = [i for i, name in enumerate(self.names) if name == ROOT]
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "layer_self_s": dict(layer_self),
            "fft_where": dict(fft_where),
            "harness_simulate_calls": harness_simulate,
            "stepping_s": stepping,
            "observables_incl_s": observables,
            "wall_s": sum(dur[i] for i in roots),
        }

    def _fft_context(self, i: int) -> str:
        parent = self.parents[i]
        while parent >= 0:
            name = self.names[parent]
            if name in _OBSERVABLE_SPANS:
                return "observables"
            if name in _STEPPING_SPANS:
                return "stepping"
            parent = self.parents[parent]
        return "other"

    def _has_ancestor(self, i: int, matches) -> bool:
        parent = self.parents[i]
        while parent >= 0:
            if matches(self.names[parent]):
                return True
            parent = self.parents[parent]
        return False

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i, name in enumerate(self.names):
                fh.write(f"{i}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\t{self.parents[i]}\n")
