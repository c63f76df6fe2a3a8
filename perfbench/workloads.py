"""The three benchmark workloads, each driving windfleet's public entry points.

- ``reproduce``: the paper's full artifact chain, ``scripts/reproduce_all.py``
  run in-process on the clean synthetic-year CSV with default settings.
  Dominated by ingest, because every step parses the same file again.
- ``sweep``: a library-level scenario sweep on the in-memory synthetic year,
  normalized inside each pass. Dominated by the curve kernel (curves and
  dispatch); it reads and writes no file.
- ``weekly``: ``bev`` and ``lull`` for all 52 weeks on a seeded dirty export
  of the year. Dominated by export and by the ingest repair paths that the
  clean file never takes.

Workloads call only public names that a leaner package is expected to keep,
and never pass ``workers``. ``generate`` makes the inputs and returns the
seconds spent inside the program's own calls. A pass returns what it observed; ``check`` turns
that and the written artifacts into problems charged to one operation each.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import logging
import random
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import windfleet
from windfleet import cli

import checks
import inputs

BEV_DAILY_KWH = 10.0  # BevFleetSpec default: mean fleet power is size x 10 / 24 GW
BATTERY_KWH = 30.0
DEFAULT_FLEET_M = 35.0
LULL_BASE_GWE = 7.0
TABLE2_BASE_GWE = 13.0
TABLE2_SOLAR_SCALE = 2.0
BASELINE_WIND_GWE = 6.0
DEFAULT_CAPACITIES = 7  # points on the CLI's default capacity grid


def fleet_power_gw(size_millions: float) -> float:
    return size_millions * BEV_DAILY_KWH / 24.0


class LogCapture(logging.Handler):
    """Collects the package's log messages; the ingester reports its repairs there."""

    def __init__(self) -> None:
        super().__init__(logging.INFO)
        self.messages: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.messages.append(record.getMessage())

    def take(self) -> list[str]:
        messages, self.messages = self.messages, []
        return messages


_ROW_ERROR = re.compile(r" line \d+: ")
_SUPPRESSED = re.compile(r"(\d+) further row errors suppressed")
_DUPLICATES = re.compile(r"dropped (\d+) duplicate")
_INTERPOLATED = re.compile(r"interpolated (\d+) missing samples across (\d+) gaps")
_TRAILING = re.compile(r"discarding (\d+) trailing samples")


def ingest_counts(messages: list[str]) -> dict[str, int]:
    """Repairs and rejections that the ingester logged."""
    counts = dict.fromkeys(
        ("row_errors", "duplicates_dropped", "samples_interpolated", "gaps", "trailing_discarded"), 0)
    for msg in messages:
        if m := _SUPPRESSED.search(msg):
            counts["row_errors"] += int(m.group(1))
        elif _ROW_ERROR.search(msg):
            counts["row_errors"] += 1
        elif m := _DUPLICATES.search(msg):
            counts["duplicates_dropped"] += int(m.group(1))
        elif m := _INTERPOLATED.search(msg):
            counts["samples_interpolated"] += int(m.group(1))
            counts["gaps"] += int(m.group(2))
        elif m := _TRAILING.search(msg):
            counts["trailing_discarded"] += int(m.group(1))
    return counts


@dataclass
class Outcome:
    """What one pass observed, before its artifacts are checked."""

    ops: list[str]
    exit_codes: dict[str, int] = field(default_factory=dict)
    logs: dict[str, list[str]] = field(default_factory=dict)
    problems: list[tuple[str, str]] = field(default_factory=list)
    results: dict = field(default_factory=dict)


def load_golden(workload: str) -> dict:
    """Artifacts of the reference commit, written by make_golden.py."""
    return json.loads((Path(__file__).parent / "golden" / f"{workload}.json").read_text())


@functools.cache
def table2_year():
    """The normalized year Table 2 is computed on, for the reach check."""
    return windfleet.normalize(
        windfleet.synthetic_year(), windfleet.ScalingSpec(solar_scale=TABLE2_SOLAR_SCALE))


def table2_reach(rows) -> list[str]:
    """Each Table-2 capacity reaches its target on its own fleet's curve."""
    year, problems = table2_year(), []
    for size, power, required, *_ in rows:
        if not checks.close(power, fleet_power_gw(size), checks.CURVE_REL_TOL):
            problems.append(f"table2 {size:g}M: mean power {power} != fleet arithmetic")
        req = windfleet.CurveRequest(
            year=year, capacities_gwc=(required,), bev=windfleet.BevFleetSpec(fleet_size_millions=size),
            base_generation_gwe=TABLE2_BASE_GWE, solar_scale=TABLE2_SOLAR_SCALE)
        value = float(windfleet.annual_curve(req).mean_wind_gwe[0])
        target = BASELINE_WIND_GWE + power
        if value < target - checks.IDENTITY_TOL * target:
            problems.append(f"table2 {size:g}M: {required} GWc gives {value} GWe < target {target}")
    return problems


class Reproduce:
    name = "reproduce"
    import_module = "windfleet.cli"
    commands = ("ingest", "histogram", "curves", "bev", "lull", "table2")
    curve_points = 4 * DEFAULT_CAPACITIES + 6 * DEFAULT_CAPACITIES + DEFAULT_CAPACITIES + 5

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        # The clean year is closed-form: the seed is recorded but changes nothing.
        self.input = work / "synthetic_year.csv"
        spec = importlib.util.spec_from_file_location("reproduce_all", root / "scripts" / "reproduce_all.py")
        self.script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(self.script)
        self.extra_modules = [self.script]
        self._reached: dict[str, list[str]] = {}

    @functools.cached_property
    def golden(self) -> dict:
        return load_golden(self.name)

    def generate(self) -> float:
        start = time.perf_counter()
        # through the module attribute, so that a traced run sees the call
        windfleet.synth.write_series_csv(windfleet.synthetic_year(), self.input)
        program_s = time.perf_counter() - start
        self.input_rows = inputs.SAMPLES_PER_YEAR
        self.input_bytes = self.input.stat().st_size
        return program_s

    def run_pass(self, out: Path, logs: LogCapture) -> Outcome:
        outcome = Outcome(ops=list(self.commands))
        saved = sys.argv
        sys.argv = ["reproduce_all.py", "--input", str(self.input), "--out-dir", str(out)]
        try:
            outcome.exit_codes["all"] = self.script.main()
        except Exception as exc:  # a crash fails the pass, not the benchmark
            outcome.problems.append(("ingest", f"reproduce_all raised {exc!r}"))
        finally:
            sys.argv = saved
        outcome.logs["all"] = logs.take()
        return outcome

    def check(self, out: Path, outcome: Outcome) -> list[tuple[str, str]]:
        problems = list(outcome.problems)
        code = outcome.exit_codes.get("all")
        if code != 0:
            problems += [(c, f"reproduce_all exited {code}") for c in self.commands]
        repairs = {k: v for k, v in ingest_counts(outcome.logs.get("all", [])).items() if v}
        if repairs:
            problems.append(("ingest", f"clean input needed repairs: {repairs}"))
        problems += checks.nonfinite(out)
        problems += checks.compare_golden(out, self.golden)
        for name in ("fig5_curve.csv", "fig7_families.csv", "fig12_families.csv"):
            if (out / name).exists():
                problems += checks.check_curve_file(out / name)
        fig9 = out / "fig9_schedule.csv"
        if fig9.exists():
            problems += checks.check_fig9(fig9, fleet_power_gw(DEFAULT_FLEET_M), DEFAULT_FLEET_M * BATTERY_KWH)
            if (out / "fig11_soc.csv").exists():
                problems += checks.check_fig11(out / "fig11_soc.csv", fig9)
        if (out / "fig15_gt.csv").exists() and (out / "lull_report.csv").exists():
            problems += checks.check_lull(out / "fig15_gt.csv", out / "lull_report.csv",
                                          LULL_BASE_GWE, fleet_power_gw(DEFAULT_FLEET_M))
        if (out / "table2.csv").exists():
            text = (out / "table2.csv").read_text()
            if text not in self._reached:
                rows = [[float(v) for v in r] for r in checks.read_rows(out / "table2.csv")[1:]]
                self._reached[text] = table2_reach(rows)
            problems += [("table2", p) for p in self._reached[text]]
        return problems


class Sweep:
    name = "sweep"
    import_module = "windfleet"
    extra_modules: list = []

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        self.smoke = smoke
        if smoke:
            headrooms, sizes = [20.0, 30.0], [0.0, 20.0]
            self.caps = tuple(20.0 + 10.0 * i for i in range(7))
            self.table2_sizes = [15.0, 30.0]
        else:
            headrooms, sizes = [15.0 + 2.5 * i for i in range(11)], [5.0 * i for i in range(9)]
            self.caps = tuple(20.0 + i for i in range(61))
            self.table2_sizes = [10.0 + 2.5 * i for i in range(11)]
        # The sweep grid is the scenario set itself; the seed orders the families.
        self.families = [("headroom", h) for h in headrooms] + [("bev", s) for s in sizes]
        random.Random(seed).shuffle(self.families)
        self.curve_points = len(self.families) * len(self.caps) + len(self.table2_sizes)
        self._reached: dict[tuple, list[str]] = {}

    @functools.cached_property
    def golden(self) -> dict:
        return load_golden(self.name)

    def generate(self) -> float:
        start = time.perf_counter()
        self.series = windfleet.synthetic_year()
        program_s = time.perf_counter() - start
        self.mean_demand_gwe = float(self.series.demand.mean())
        self.input_rows = self.series.n_samples
        self.input_bytes = 3 * self.series.demand.nbytes
        return program_s

    def run_pass(self, out: Path, logs: LogCapture) -> Outcome:
        outcome = Outcome(ops=[])
        res = outcome.results

        def call(op: str, fn, *args, **kwargs):
            outcome.ops.append(op)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                outcome.problems.append((op, f"raised {exc!r}"))
                return None

        year = call("normalize", windfleet.normalize, self.series,
                    windfleet.ScalingSpec(solar_scale=TABLE2_SOLAR_SCALE))
        if year is None:
            return outcome
        ref = year.reference_capacity_gwc
        trace = call("extrapolate_wind", windfleet.extrapolate_wind, year, ref)
        hist = call("wind_histogram", windfleet.wind_histogram, trace, 1.0, capacity_gwc=ref)
        res["curves"], res["inversions"], res["approx"] = {}, {}, {}
        for kind, value in self.families:
            key = f"{kind}={value:g}"
            family = ({"headroom_gwe": value} if kind == "headroom"
                      else {"bev": windfleet.BevFleetSpec(fleet_size_millions=value),
                            "base_generation_gwe": TABLE2_BASE_GWE})
            req = windfleet.CurveRequest(year=year, capacities_gwc=self.caps,
                                         solar_scale=TABLE2_SOLAR_SCALE, **family)
            curve = call(f"annual_curve {key}", windfleet.annual_curve, req)
            if curve is None:
                continue
            res["curves"][key] = curve.mean_wind_gwe.tolist()
            res["inversions"][key] = call(f"invert_curve {key}", windfleet.invert_curve,
                                          curve, 0.8 * float(curve.mean_wind_gwe[-1]))
            headroom = value if kind == "headroom" else (
                self.mean_demand_gwe + fleet_power_gw(value) - TABLE2_BASE_GWE)
            res["approx"][key] = [
                call(f"curve_from_histogram {key}", windfleet.curve_from_histogram, hist, c, headroom)
                for c in self.caps
            ]
        rows = call("build_table2", windfleet.build_table2, year, self.table2_sizes)
        if rows is not None:
            res["table2"] = [
                [r.fleet_size_millions, r.mean_power_gwe, r.required_wind_gwc, r.storage_gwh,
                 r.emissions_reduction_mtpa, r.battery_cost_eur_bn] for r in rows]
        return outcome

    def check(self, out: Path, outcome: Outcome) -> list[tuple[str, str]]:
        problems = list(outcome.problems)
        res, gold = outcome.results, self.golden
        index = [gold["caps"].index(c) for c in self.caps]
        for key, vals in res.get("curves", {}).items():
            ref = [gold["curves"][key][i] for i in index]
            if not all(checks.close(a, b, checks.CURVE_REL_TOL) for a, b in zip(vals, ref)):
                problems.append((f"annual_curve {key}", "differs from the reference curve"))
            for p in checks.curve_shape(key, np.array(self.caps), np.array(vals)):
                problems.append((f"annual_curve {key}", p))
            caps0 = np.concatenate([[0.0], self.caps])
            vals0 = np.concatenate([[0.0], vals])
            inv, target = res["inversions"].get(key), 0.8 * vals[-1]
            if inv is not None and float(np.interp(inv, caps0, vals0)) < target - checks.IDENTITY_TOL:
                problems.append((f"invert_curve {key}", f"{inv} GWc does not reach {target}"))
            if not self.smoke and inv is not None and (
                    abs(inv - gold["inversions"][key]) > checks.INVERSION_STEP_GWC + 1e-9):
                problems.append((f"invert_curve {key}", f"{inv} differs from reference"))
            approx = res["approx"][key]
            ref_approx = [gold["approx"][key][i] for i in index]
            if not all(a is not None and checks.close(a, b, checks.CURVE_REL_TOL)
                       for a, b in zip(approx, ref_approx)):
                problems.append((f"curve_from_histogram {key}", "differs from the reference"))
        if "table2" in res:
            ref_rows = [r for r in gold["table2"] if r[0] in self.table2_sizes]
            problems += [("build_table2", p) for p in checks.compare_table2("table2", res["table2"], ref_rows)]
            key = tuple(map(tuple, res["table2"]))
            if key not in self._reached:
                self._reached[key] = table2_reach(res["table2"])
            problems += [("build_table2", p) for p in self._reached[key]]
        return problems


class Weekly:
    name = "weekly"
    import_module = "windfleet.cli"
    extra_modules: list = []
    commands = ("bev", "lull")

    def __init__(self, root: Path, work: Path, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.input = work / "dirty_export.csv"
        self.weeks_flag = "1:52:17" if smoke else "1:52:1"
        self.weeks = list(range(1, 53, 17 if smoke else 1))
        self.curve_points = DEFAULT_CAPACITIES * len(self.weeks)
        self._checked: dict[str, str] = {}  # command -> digest of artifacts that passed

    def generate(self) -> float:
        spent = []

        def synthetic_year(**kwargs):
            start = time.perf_counter()
            series = windfleet.synthetic_year(**kwargs)
            spent.append(time.perf_counter() - start)
            return series

        self.dirty = inputs.write_dirty_export(self.seed, synthetic_year, self.input)
        # normalize's scale: the mean of the weekly means of the metered wind
        self.annual_wind_mean = float(self.dirty.wind_gw.reshape(52, -1).mean(axis=1).mean())
        self.input_rows = self.dirty.rows
        self.input_bytes = self.input.stat().st_size
        return sum(spent)  # the rest of generation is the benchmark's own code

    def run_pass(self, out: Path, logs: LogCapture) -> Outcome:
        outcome = Outcome(ops=list(self.commands))
        for command in self.commands:
            argv = [command, "--input", str(self.input), "--columns", inputs.columns_flag(),
                    "--out-dir", str(out), "--weeks", self.weeks_flag]
            try:
                outcome.exit_codes[command] = cli.main(argv)
            except Exception as exc:
                outcome.problems.append((command, f"raised {exc!r}"))
            outcome.logs[command] = logs.take()
        return outcome

    def check(self, out: Path, outcome: Outcome) -> list[tuple[str, str]]:
        problems = list(outcome.problems)
        expected = {k: self.dirty.counts[k] for k in
                    ("row_errors", "duplicates_dropped", "samples_interpolated", "gaps", "trailing_discarded")}
        for command in self.commands:
            code = outcome.exit_codes.get(command)
            if code != 0:
                problems.append((command, f"exited {code}"))
            seen = ingest_counts(outcome.logs.get(command, []))
            if seen != expected:
                problems.append((command, f"ingest reported {seen}, generator wrote {expected}"))
        for command, prefixes in (("bev", ("fig9_", "fig11_")), ("lull", ("fig15_", "lull_report"))):
            files = [p for p in checks.csv_files(out) if p.name.startswith(prefixes)]
            digest = checks.digest_files(files)
            if self._checked.get(command) == digest:
                continue  # byte-identical to artifacts that already passed every check
            found = self._check_command(out, command)
            problems += found
            if not found and command not in self._checked:
                self._checked[command] = digest
            elif not found:
                problems.append((command, "artifacts differ from the first pass"))
        return problems

    def _check_command(self, out: Path, command: str) -> list[tuple[str, str]]:
        problems = [p for p in checks.nonfinite(out) if p[0] == command]
        power = fleet_power_gw(DEFAULT_FLEET_M)
        for n, week in enumerate(self.weeks):
            suffix = "" if n == 0 else f"_w{week}"
            span = slice((week - 1) * inputs.SAMPLES_PER_WEEK, week * inputs.SAMPLES_PER_WEEK)
            demand, wind, solar = (self.dirty.demand_gw[span], self.dirty.wind_gw[span],
                                   self.dirty.solar_gw[span])
            if command == "bev":
                fig9, fig11 = out / f"fig9_schedule{suffix}.csv", out / f"fig11_soc{suffix}.csv"
                if not fig9.exists():
                    problems.append(("bev", f"{fig9.name}: missing"))
                    continue
                problems += checks.check_fig9(fig9, power, DEFAULT_FLEET_M * BATTERY_KWH, demand)
                if fig11.exists():
                    problems += checks.check_fig11(fig11, fig9)
            else:
                fig15, report = out / f"fig15_gt{suffix}.csv", out / f"lull_report{suffix}.csv"
                if not (fig15.exists() and report.exists()):
                    problems.append(("lull", f"week {week}: fig15 or lull report missing"))
                    continue
                problems += checks.check_lull(fig15, report, LULL_BASE_GWE, power, demand, solar,
                                              wind, self.annual_wind_mean)
        return problems


WORKLOADS = {w.name: w for w in (Reproduce, Sweep, Weekly)}
