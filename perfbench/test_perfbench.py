"""Tests of the benchmark itself: metric contract, output checks, input generator.

Run from the root of a source checkout:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import dataclasses
import json
import logging
import shutil
import signal
import subprocess
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402
import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
import windfleet  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["reproduce", "sweep", "weekly"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_dirty_export_is_seeded_with_fixed_defect_counts(tmp_path):
    paths = [tmp_path / f"dirty{k}.csv" for k in range(3)]
    first = inputs.write_dirty_export(5, windfleet.synthetic_year, paths[0])
    inputs.write_dirty_export(5, windfleet.synthetic_year, paths[1])
    other = inputs.write_dirty_export(6, windfleet.synthetic_year, paths[2])
    assert paths[0].read_bytes() == paths[1].read_bytes() != paths[2].read_bytes()
    assert other.counts == first.counts

    errors = []
    records = windfleet.parse_csv(paths[0], inputs.COLUMNS, errors)
    series = windfleet.canonicalize(records)
    assert len(errors) == first.counts["row_errors"]
    assert len(records) + len(errors) == first.rows
    assert series.n_samples - inputs.SAMPLES_PER_YEAR == first.counts["trailing_discarded"]
    assert (series.demand[:inputs.SAMPLES_PER_YEAR] == first.demand_gw).all()
    assert (series.wind_metered[:inputs.SAMPLES_PER_YEAR] == first.wind_gw).all()
    assert (series.solar[:inputs.SAMPLES_PER_YEAR] == first.solar_gw).all()
    present = sorted({int((r.timestamp - series.start_time).total_seconds()) // 300 for r in records})
    gaps = [b - a - 1 for a, b in zip(present, present[1:]) if b - a > 1]
    assert len(gaps) == first.counts["gaps"] and max(gaps) <= inputs.MAX_GAP
    assert sum(gaps) == first.counts["samples_interpolated"]
    assert len(records) - len(present) == first.counts["duplicates_dropped"]


@pytest.fixture(scope="module")
def weekly_pass(tmp_path_factory):
    """One smoke pass of the weekly workload, checked clean."""
    work = tmp_path_factory.mktemp("weekly")
    workload = workloads.Weekly(ROOT, work, seed=5, smoke=True)
    logs = workloads.LogCapture()
    logging.getLogger().addHandler(logs)
    logging.getLogger().setLevel(logging.INFO)
    try:
        workload.generate()
        out = work / "out"
        out.mkdir()
        with redirect_stdout(StringIO()):
            outcome = workload.run_pass(out, logs)
    finally:
        logging.getLogger().removeHandler(logs)
    assert workload.check(out, outcome) == []
    return workload, out, outcome


def _edit_cell(path: Path, row: int, column: str, edit) -> None:
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = edit(cells[header.index(column)])
    lines[row] = ",".join(cells)
    path.write_text("\r\n".join(lines) + "\r\n")


@pytest.mark.parametrize("name, row, column, edit, command", [
    ("fig9_schedule.csv", 10, "charge_gw", lambda v: repr(float(v) + 0.5), "bev"),
    ("fig9_schedule.csv", 10, "demand_gw", lambda v: repr(float(v) * (1 + 1e-15)), "bev"),
    ("fig15_gt.csv", 5, "gas_turbine_gw", lambda v: "nan", "lull"),
    ("fig15_gt.csv", 5, "wind_curtailed_gw", lambda v: "0.25", "lull"),
    ("lull_report.csv", 1, "gt_energy_gwh", lambda v: repr(float(v) * 1.01), "lull"),
])
def test_check_fails_on_a_corrupted_artifact(weekly_pass, tmp_path, name, row, column, edit, command):
    workload, out, outcome = weekly_pass
    corrupt = tmp_path / "out"
    shutil.copytree(out, corrupt)
    _edit_cell(corrupt / name, row, column, edit)
    assert command in {op for op, _ in workload.check(corrupt, outcome)}


@pytest.mark.parametrize("misread", [
    lambda dirty: np.roll(dirty.wind_gw, 1),  # shifted by one sample
    lambda dirty: dirty.solar_gw,  # another column
])
def test_check_fails_when_wind_was_misread(weekly_pass, misread):
    """The artifacts of a pass, checked as if the input's wind were different."""
    workload, out, outcome = weekly_pass
    other = copy.copy(workload)
    other._checked = {}
    other.dirty = dataclasses.replace(workload.dirty, wind_gw=misread(workload.dirty))
    problems = other.check(out, outcome)
    assert "lull" in {op for op, _ in problems}
    assert "bev" not in {op for op, _ in problems}


def test_sweep_check_fails_on_a_drifted_curve(tmp_path):
    workload = workloads.Sweep(ROOT, tmp_path, seed=5, smoke=True)
    workload.generate()
    outcome = workload.run_pass(tmp_path, workloads.LogCapture())
    assert workload.check(tmp_path, outcome) == []
    key = next(iter(outcome.results["curves"]))
    outcome.results["curves"][key][2] *= 1 + 1e-9
    assert f"annual_curve {key}" in {op for op, _ in workload.check(tmp_path, outcome)}


def test_table2_tolerates_one_inversion_step_and_nothing_more():
    ref = workloads.load_golden("reproduce")["files"]["table2.csv"]["rows"]
    moved = [list(r) for r in ref]
    moved[3][2] = repr(float(ref[3][2]) - 0.1)
    assert checks.compare_table2("table2", moved, ref) == []
    moved[3][2] = repr(float(ref[3][2]) - 0.2)
    assert checks.compare_table2("table2", moved, ref) != []
    moved = [list(r) for r in ref]
    moved[3][4] = repr(float(ref[3][4]) * (1 + 1e-9))
    assert checks.compare_table2("table2", moved, ref) != []


def test_meter_takes_its_probes_out_of_the_window():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.metered() as window:
        time.sleep(0.45)  # resumed after each probe, so the probes add to the window
    assert len(window.probes) >= 3
    assert window.probe_s == pytest.approx(sum(window.probes))
    assert window.elapsed - window.probe_s == pytest.approx(0.45, abs=0.05)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_meter_probes_once_after_a_window_shorter_than_its_interval():
    with calibrate.metered() as window:
        pass
    assert window.probe_s == 0.0 and len(window.probes) == 1
    assert window.scaled_s == pytest.approx(window.elapsed * calibrate.NOMINAL_S / window.probes[0])
