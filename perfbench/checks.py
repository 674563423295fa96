"""Outputs of each operation, and their checks against the golden snapshot.

An operation's outputs are split three ways:

* per-width rows, keyed by the width's repr: one row of a sweep, uniqueness
  or energy-scaling table.  Each width runs independently of the others, so
  the snapshot, taken once over the whole width ladder, holds the exact row
  for every width any seed can draw.
* scalars: fitted slopes, ratios and flags.  For the width sweeps their
  expected values are computed from the snapshot's rows for the seed's widths,
  with the same least-squares fit the program uses.
* tables whose inputs do not depend on the seed (densities, energy
  histories).  The snapshot keeps each table's sha256, shape, column sums and
  every SAMPLE_STRIDE-th row; a table whose bytes differ is compared on those
  rows and on its column means, which bounds its error from below.

Every value must also be finite, mass must drift by at most MASS_DRIFT_CEILING,
the delta (delta_squared) potential must grow like eps^-1 (eps^-2) and the
uniqueness distances like eps^m.  Any failure marks its operation failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

GOLDEN_TOL = 1e-10         # absolute; values are at most ~20, roundoff ~1e-14
MASS_DRIFT_CEILING = 1e-10
SLOPE_SLACK = 0.05
SAMPLE_STRIDE = 32
RESIDUAL_FLAG = 0.1        # the program flags a fit whose log residual exceeds this
ENERGY_BAND = (50.0, 800.0)

PER_WIDTH_CSV = {"sweep": "sweep.csv", "uniqueness": "uniqueness.csv",
                 "energy-scaling": "energy_scaling.csv"}
MANIFEST_SCALARS = {
    "simulate": ("final_mass", "final_energy"),
    "sweep": ("potential_moderateness_n", "potential_residual", "potential_fit_flagged",
              "solution_moderateness_n", "solution_residual", "solution_fit_flagged"),
    "uniqueness": ("decay_rate", "residual"),
    "consistency": ("strictly_decreasing",),
    "figures": (),
    "energy-scaling": ("ratio", "monotone_nondecreasing", "in_band"),
}
RECORD_FIELDS = ("sup_norm_p", "final_mass", "final_energy", "final_composite_norm",
                 "window_mass_at_site", "n_maxima", "sup_composite_norm")
POTENTIAL_SLOPE = {"delta": 1.0, "delta_squared": 2.0}
UNIQUENESS_M = 2.0


def new_outputs() -> dict:
    return {"per_width": {}, "scalars": {}, "tables": {}, "mass_drift": 0.0, "energy_drift": 0.0}


def _num(value):
    if value is None:
        return None
    return float(value)


# -- extraction ------------------------------------------------------------


def read_table(path: str):
    with open(path, "rb") as fh:
        raw = fh.read()
    lines = raw.decode("ascii").splitlines()
    header = lines[0].split(",")
    values = np.array([[float(c) for c in line.split(",")] for line in lines[1:]], dtype=float)
    return raw, header, values.reshape(len(lines) - 1, len(header))


def table_summary(raw: bytes, header, values) -> dict:
    return {
        "sha256": hashlib.sha256(raw).hexdigest(),
        "header": list(header),
        "rows": int(values.shape[0]),
        "sums": values.sum(axis=0).tolist(),
        "sample": values[::SAMPLE_STRIDE].tolist(),
    }


def cli_outputs(command: str, out_dir: str) -> dict:
    """Outputs of one CLI command, read back from the files it wrote."""
    out = new_outputs()
    per_width = PER_WIDTH_CSV.get(command)
    for folder, _, files in sorted(os.walk(out_dir)):
        for fname in sorted(files):
            if not fname.endswith(".csv"):
                continue
            path = os.path.join(folder, fname)
            raw, header, values = read_table(path)
            if fname == per_width:
                out["per_width"][command] = {repr(row[0]): row[1:].tolist() for row in values}
                continue
            out["tables"][os.path.relpath(path, out_dir)] = table_summary(raw, header, values)
            if header[:3] == ["t", "mass", "energy"]:
                out["mass_drift"] = max(out["mass_drift"], relative_drift(values[:, 1]))
                out["energy_drift"] = max(out["energy_drift"], relative_drift(values[:, 2]))
    if MANIFEST_SCALARS[command]:
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        for key in MANIFEST_SCALARS[command]:
            out["scalars"][key] = _num(manifest.get(key))
    return out


def sweep_outputs(report) -> dict:
    out = new_outputs()
    out["per_width"]["sweep"] = {
        repr(float(r.epsilon)): [float(getattr(r, f)) for f in RECORD_FIELDS]
        for r in report.records
    }
    out["scalars"] = {
        "potential_moderateness_n": _num(report.potential_moderateness_n),
        "potential_residual": _num(report.potential_residual),
        "potential_fit_flagged": _num(report.potential_fit_flagged),
        "solution_moderateness_n": _num(report.solution_moderateness_n),
        "solution_residual": _num(report.solution_residual),
        "solution_fit_flagged": _num(report.solution_fit_flagged),
    }
    return out


def uniqueness_outputs(report) -> dict:
    out = new_outputs()
    out["per_width"]["uniqueness"] = {
        repr(float(e)): [float(d)] for e, d in zip(report.config.epsilons, report.distances)
    }
    out["scalars"] = {"decay_rate": _num(report.decay_rate), "residual": _num(report.residual)}
    return out


def trajectory_outputs(trajectory) -> dict:
    out = new_outputs()
    history = np.column_stack([trajectory.times, trajectory.mass, trajectory.energy,
                               trajectory.hs_part, trajectory.potential_part])
    final = np.asarray(trajectory.states[-1].values)
    out["tables"]["history"] = table_summary(history.tobytes(), ["t", "mass", "energy",
                                                                 "hs_part", "potential_part"],
                                             history)
    # every row of the 15-row history, not a stride, is compared
    out["tables"]["history"]["sample"] = history.tolist()
    out["tables"]["final_state"] = table_summary(
        final.tobytes(), ["re_u", "im_u"], np.column_stack([final.real, final.imag]))
    out["mass_drift"] = relative_drift(trajectory.mass)
    out["energy_drift"] = relative_drift(trajectory.energy)
    return out


def relative_drift(series) -> float:
    """Largest |q(t) - q(0)| / |q(0)| over the recorded times."""
    series = np.asarray(series, dtype=float)
    return float(np.max(np.abs(series - series[0])) / abs(series[0]))


# -- expected scalars ------------------------------------------------------


def fit(epsilons, values):
    """(slope, rms residual) of log(value) against log(1/eps), or (None, None)."""
    if len(values) < 3 or any(v <= 0 for v in values):
        return None, None
    t = np.log(1.0 / np.asarray(epsilons, dtype=float))
    y = np.log(np.asarray(values, dtype=float))
    slope, intercept = np.polyfit(t, y, 1)
    return float(slope), float(np.sqrt(np.mean((y - (slope * t + intercept)) ** 2)))


def expected_scalars(golden: dict, operation: str, epsilons) -> dict:
    """Scalars the operation must report for these widths, from the snapshot."""
    rows = golden["per_width"]
    keys = [repr(float(e)) for e in epsilons]
    if any(k not in section for section in rows.values() for k in keys):
        return {}  # check_outputs reports the widths missing from the snapshot
    if operation == "sweep":
        sups = rows["sweep_sup"] if "sweep_sup" in rows else None
        potential = [rows["sweep"][k][0] for k in keys]
        solution = [sups[k][0] for k in keys] if sups else [rows["sweep"][k][6] for k in keys]
        p_slope, p_res = fit(epsilons, potential)
        u_slope, u_res = fit(epsilons, solution)
        return {
            "potential_moderateness_n": p_slope,
            "potential_residual": p_res,
            "potential_fit_flagged": _flag(p_res),
            "solution_moderateness_n": u_slope,
            "solution_residual": u_res,
            "solution_fit_flagged": _flag(u_res),
        }
    if operation == "uniqueness":
        slope, residual = fit(epsilons, [rows["uniqueness"][k][0] for k in keys])
        return {"decay_rate": None if slope is None else -slope, "residual": residual}
    if operation == "energy-scaling":
        peaks = [rows["energy-scaling"][k][0] for k in keys]
        ratio = peaks[-1] / peaks[0]
        return {
            "ratio": ratio,
            "monotone_nondecreasing": float(all(b >= a for a, b in zip(peaks, peaks[1:]))),
            "in_band": float(ENERGY_BAND[0] <= ratio <= ENERGY_BAND[1]),
        }
    return dict(golden.get("scalars", {}).get(operation, {}))


def _flag(residual):
    # the program reports an impossible fit as not flagged
    return 0.0 if residual is None else float(residual > RESIDUAL_FLAG)


# -- comparison ------------------------------------------------------------


class Check:
    """Largest golden error and the problems found for one operation."""

    def __init__(self, operation: str):
        self.operation = operation
        self.max_err = 0.0
        self.problems: list[str] = []

    def fail(self, message: str) -> None:
        self.problems.append(f"{self.operation}: {message}")

    def close_to(self, what: str, got, want) -> None:
        if got is None or want is None:
            if got is not want:
                self.fail(f"{what} is {got!r}, snapshot has {want!r}")
            return
        if not math.isfinite(got):
            self.fail(f"{what} is not finite ({got!r})")
            return
        err = abs(got - want)
        self.max_err = max(self.max_err, err)
        if err > GOLDEN_TOL:
            self.fail(f"{what} = {got!r} differs from the snapshot {want!r} by {err:.3e}")

    def rows(self, what: str, got, want) -> None:
        if len(got) != len(want):
            self.fail(f"{what} has {len(got)} values, snapshot has {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            self.close_to(f"{what}[{i}]", g, w)

    @property
    def ok(self) -> bool:
        return not self.problems


def check_outputs(operation: str, out: dict, golden: dict, expected: dict) -> Check:
    check = Check(operation)
    for section, rows in out["per_width"].items():
        snapshot = golden["per_width"].get(section, {})
        for key, row in rows.items():
            if key not in snapshot:
                check.fail(f"width {key} of {section} is not in the snapshot")
                continue
            check.rows(f"{section}[eps={key}]", row, snapshot[key])
    for name, want in expected.items():
        if name not in out["scalars"]:
            check.fail(f"missing output {name}")
            continue
        check.close_to(name, out["scalars"][name], want)
    snapshot_tables = golden.get("tables", {}).get(operation, {})
    if set(out["tables"]) != set(snapshot_tables):
        check.fail(f"tables {sorted(out['tables'])} differ from the snapshot's "
                   f"{sorted(snapshot_tables)}")
    for name, table in out["tables"].items():
        want = snapshot_tables.get(name)
        if want is None or table["sha256"] == want["sha256"]:
            continue
        if table["header"] != want["header"] or table["rows"] != want["rows"]:
            check.fail(f"{name} has shape {table['rows']}x{table['header']}, snapshot "
                       f"{want['rows']}x{want['header']}")
            continue
        for i, (g, w) in enumerate(zip(table["sample"], want["sample"])):
            check.rows(f"{name} sampled row {i}", g, w)
        means = [s / table["rows"] for s in table["sums"]]
        check.rows(f"{name} column means", means,
                   [s / want["rows"] for s in want["sums"]])
    if out["mass_drift"] > MASS_DRIFT_CEILING:
        check.fail(f"mass drifts by {out['mass_drift']:.3e}, ceiling {MASS_DRIFT_CEILING:g}")
    return check


def check_invariants(check: Check, out: dict, potential_kind: str | None) -> None:
    """Seed-independent properties of the fitted rates and of every value."""
    for section, rows in out["per_width"].items():
        for key, row in rows.items():
            if not all(math.isfinite(v) for v in row):
                check.fail(f"{section}[eps={key}] has a non-finite value")
    for name, value in out["scalars"].items():
        if value is not None and not math.isfinite(value):
            check.fail(f"{name} is not finite")
    slope = out["scalars"].get("potential_moderateness_n")
    if potential_kind in POTENTIAL_SLOPE and slope is not None:
        want = POTENTIAL_SLOPE[potential_kind]
        if abs(slope - want) > SLOPE_SLACK:
            check.fail(f"{potential_kind} potential grows like eps^-{slope:.4f}, "
                       f"expected ~{want:g}")
    rate = out["scalars"].get("decay_rate")
    if rate is not None and abs(rate - UNIQUENESS_M) > SLOPE_SLACK:
        check.fail(f"uniqueness distances decay like eps^{rate:.4f}, expected ~{UNIQUENESS_M:g}")
