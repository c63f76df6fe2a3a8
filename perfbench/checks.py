"""Output checks on written artifacts: finiteness, model identities, golden values.

Every check returns a list of problems as (command, message) pairs so that a
failure is charged to the CLI command that wrote the artifact. Checks read
files by name and column, never the exact file set, so an artifact that a
later version folds into another (fig11 into fig9) may simply be absent.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

# file-name prefix -> CLI command that writes it
WRITERS = (
    ("fig1_", "histogram"),
    ("fig5_", "curves"),
    ("fig7_", "curves"),
    ("fig12_", "curves"),
    ("fig9_", "bev"),
    ("fig11_", "bev"),
    ("fig15_", "lull"),
    ("lull_report", "lull"),
    ("table2", "table2"),
)
HOURS_PER_WEEK = 168.0
HOURS_PER_SAMPLE = 1.0 / 12.0
CURVE_REL_TOL = 1e-12  # allowed drift of a curve value from the golden one
INVERSION_STEP_GWC = 0.1  # allowed drift of a Table-2 capacity from the golden one
IDENTITY_TOL = 1e-9
TARGET_CAPACITY_FACTOR = 0.30  # ScalingSpec default: normalized wind averages 30% of capacity

_NONFINITE = re.compile(rb"(?im)(?:^|,)\s*[+-]?(?:nan|inf|infinity)\s*(?=,|$)")


def command_of(name: str) -> str:
    for prefix, command in WRITERS:
        if name.startswith(prefix):
            return command
    return "unknown"


def csv_files(out_dir: Path) -> list[Path]:
    return sorted(p for p in out_dir.iterdir() if p.suffix == ".csv")


def digest_files(files: list[Path]) -> str:
    """Hash of the files' names and bytes."""
    h = hashlib.sha256()
    for path in files:
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def nonfinite(out_dir: Path) -> list[tuple[str, str]]:
    return [
        (command_of(p.name), f"{p.name}: non-finite value")
        for p in csv_files(out_dir)
        if _NONFINITE.search(p.read_bytes())
    ]


def read_table(path: Path) -> dict[str, list[str]]:
    """Columns of a CSV file with one header row, as strings."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:] if ln]
    return {name: [r[i] for r in rows] for i, name in enumerate(header)}


def read_rows(path: Path) -> list[list[str]]:
    return [ln.split(",") for ln in path.read_text(encoding="utf-8").splitlines()]


def floats(values) -> np.ndarray:
    return np.array([float(v) for v in values])


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1.0)


def curve_shape(name: str, caps: np.ndarray, vals: np.ndarray) -> list[str]:
    """Nondecreasing in capacity and concave through the origin."""
    problems = []
    scale = max(1.0, float(np.abs(vals).max()))
    if np.any(np.diff(vals) < -IDENTITY_TOL * scale):
        problems.append(f"{name}: curve decreases")
    slopes = np.diff(np.concatenate([[0.0], vals])) / np.diff(np.concatenate([[0.0], caps]))
    if np.any(np.diff(slopes) > IDENTITY_TOL * max(1.0, float(np.abs(slopes).max()))):
        problems.append(f"{name}: curve is not concave")
    return problems


def curve_families(path: Path) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    cols = read_table(path)
    out: dict[str, tuple[list[str], list[str]]] = {}
    for cap, val, label in zip(cols["capacity_gwc"], cols["mean_wind_gwe"], cols["family_label"]):
        caps, vals = out.setdefault(label, ([], []))
        caps.append(cap)
        vals.append(val)
    return {k: (floats(c), floats(v)) for k, (c, v) in out.items()}


def check_curve_file(path: Path) -> list[tuple[str, str]]:
    problems = []
    for label, (caps, vals) in curve_families(path).items():
        problems += curve_shape(f"{path.name} {label}", caps, vals)
    return [("curves", p) for p in problems]


def check_fig9(path: Path, fleet_power_gw: float, storage_gwh: float,
               expected_demand: np.ndarray | None = None) -> list[tuple[str, str]]:
    """Leveling exactness, SOC telescoping and weekly energy of one schedule."""
    cols = read_table(path)
    demand, charge = floats(cols["demand_gw"]), floats(cols["charge_gw"])
    consumption, soc = floats(cols["consumption_gw"]), floats(cols["soc_gwh"])
    level = float(demand.mean()) + fleet_power_gw
    problems = []
    if expected_demand is not None and cols["demand_gw"] != [repr(float(v)) for v in expected_demand]:
        problems.append(f"{path.name}: demand differs from the canonical input")
    if np.any(np.abs(demand + charge - level) > IDENTITY_TOL * level):
        problems.append(f"{path.name}: demand + charge != level")
    if abs(float(consumption.mean()) - fleet_power_gw) > IDENTITY_TOL * max(1.0, fleet_power_gw):
        problems.append(f"{path.name}: mean consumption != fleet power")
    steps = np.diff(soc) - (charge[:-1] - consumption[:-1]) * HOURS_PER_SAMPLE
    if not np.isclose(soc[0], 0.8 * storage_gwh) or np.any(np.abs(steps) > IDENTITY_TOL * storage_gwh):
        problems.append(f"{path.name}: SOC does not telescope")
    return [("bev", p) for p in problems]


def check_fig11(path: Path, fig9: Path) -> list[tuple[str, str]]:
    if read_table(path)["soc_gwh"] != read_table(fig9)["soc_gwh"]:
        return [("bev", f"{path.name}: SOC differs from {fig9.name}")]
    return []


def check_lull(fig15: Path, report: Path, base_gwe: float, fleet_power_gw: float,
               expected_demand: np.ndarray | None = None,
               expected_solar: np.ndarray | None = None,
               expected_wind: np.ndarray | None = None,
               annual_wind_mean: float | None = None) -> list[tuple[str, str]]:
    """Dispatch identities of one stressed week and its summary row.

    ``expected_wind`` is the week's metered wind as the input states it and
    ``annual_wind_mean`` the mean of its year; normalization scales the trace
    by one constant, so the wind available at the largest capacity follows.
    """
    cols = read_table(fig15)
    demand, solar = floats(cols["demand_gw"]), floats(cols["solar_gw"])
    used, curtailed = floats(cols["wind_used_gw"]), floats(cols["wind_curtailed_gw"])
    gas, base = floats(cols["gas_turbine_gw"]), floats(cols["base_gw"])
    rows = read_rows(report)
    summary = dict(zip(rows[0], rows[1]))
    level, mean_gt = float(summary["level_gwe"]), float(summary["mean_gt_gwe"])
    gt_energy, peak_gt = float(summary["gt_energy_gwh"]), float(summary["peak_gt_gwe"])
    curve = np.array([[float(c), float(v)] for c, v in rows[4:] if c])
    problems = []
    if expected_demand is not None and cols["demand_gw"] != [repr(float(v)) for v in expected_demand]:
        problems.append(f"{fig15.name}: demand differs from the canonical input")
    if expected_solar is not None and cols["solar_gw"] != [repr(float(v)) for v in expected_solar]:
        problems.append(f"{fig15.name}: solar differs from the canonical input")
    if np.any(base != base_gwe):
        problems.append(f"{fig15.name}: base generation is not {base_gwe}")
    if not close(level, float(demand.mean()) + fleet_power_gw, IDENTITY_TOL):
        problems.append(f"{report.name}: level != mean demand + fleet power")
    if np.any(curtailed * gas != 0.0) or np.any(used < 0) or np.any(gas < 0):
        problems.append(f"{fig15.name}: curtailment and gas overlap or go negative")
    headroom = np.maximum(level - base - solar, 0.0)
    if np.any(np.abs(used + gas - headroom) > IDENTITY_TOL * level):
        problems.append(f"{fig15.name}: wind + gas does not fill the headroom")
    if not close(gt_energy, mean_gt * HOURS_PER_WEEK, IDENTITY_TOL):
        problems.append(f"{report.name}: GT energy != mean GT x 168 h")
    if not close(mean_gt, float(gas.mean()), IDENTITY_TOL) or peak_gt != float(gas.max()):
        problems.append(f"{report.name}: GT summary disagrees with {fig15.name}")
    largest = float(curve[:, 0].max())
    if not close(float(curve[curve[:, 0] == largest, 1][0]), float(used.mean()), IDENTITY_TOL):
        problems.append(f"{report.name}: curve at {largest:g} GWc != mean wind used in {fig15.name}")
    if expected_wind is not None:
        available = expected_wind * (TARGET_CAPACITY_FACTOR * largest / annual_wind_mean)
        if np.any(np.abs(used + curtailed - available) > IDENTITY_TOL * max(1.0, float(available.max()))):
            problems.append(f"{fig15.name}: wind used + curtailed differs from the input's wind")
        if not close(float(summary["min_wind_gwe"]), float(available.min()), IDENTITY_TOL):
            problems.append(f"{report.name}: min wind differs from the input's wind")
    problems += curve_shape(report.name, curve[:, 0], curve[:, 1])
    return [("lull", p) for p in problems]


def compare_golden(out_dir: Path, golden: dict) -> list[tuple[str, str]]:
    """Artifacts against the reference commit: bytes, or the stated tolerances."""
    problems = []
    for name, ref in golden["files"].items():
        path = out_dir / name
        command = command_of(name)
        if not path.exists():
            if name not in golden["optional"]:
                problems.append((command, f"{name}: missing"))
            continue
        if sha256(path) == ref["sha256"]:
            continue
        if ref["kind"] == "curves":
            problems += [(command, p) for p in _compare_curves(path, ref["rows"])]
        elif ref["kind"] == "table2":
            problems += [(command, p) for p in compare_table2(name, read_rows(path)[1:], ref["rows"])]
        else:
            problems.append((command, f"{name}: differs from the reference bytes"))
    return problems


def _compare_curves(path: Path, ref_rows: list[list[str]]) -> list[str]:
    rows = read_rows(path)[1:]
    if len(rows) != len(ref_rows):
        return [f"{path.name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    for row, ref in zip(rows, ref_rows):
        if row[0] != ref[0] or row[2] != ref[2] or not close(float(row[1]), float(ref[1]), CURVE_REL_TOL):
            return [f"{path.name}: {row} differs from reference {ref}"]
    return []


def compare_table2(name: str, rows, ref_rows) -> list[str]:
    """Capacities may move by one inversion step; the other columns are arithmetic."""
    if len(rows) != len(ref_rows):
        return [f"{name}: {len(rows)} rows, reference has {len(ref_rows)}"]
    for row, ref in zip(rows, ref_rows):
        row, ref = [float(v) for v in row], [float(v) for v in ref]
        exact = all(close(a, b, CURVE_REL_TOL) for i, (a, b) in enumerate(zip(row, ref)) if i != 2)
        if not exact or abs(row[2] - ref[2]) > INVERSION_STEP_GWC + 1e-9:
            return [f"{name}: row {row} differs from reference {ref}"]
    return []
