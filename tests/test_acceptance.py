"""Acceptance gate: one test per criterion, one printed line per criterion.

Criteria anchored to the public 2017 5-minute dataset run only when that
file is supplied (WINDFLEET_DATA_2017 env var or data/gridwatch_2017.csv);
otherwise they SKIP and the bundled deterministic synthetic year carries the
property criteria. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion report.
"""

import time

import numpy as np
import pytest

from windfleet.bev import (
    BevFleetSpec,
    consumption_profile,
    leveling_schedule,
    soc_trajectory,
)
from windfleet.cli import main as cli_main
from windfleet.curves import CurveRequest, annual_curve, curve_from_histogram
from windfleet.dispatch import DispatchConfig, dispatch_week
from windfleet.report import build_table2, lull_report
from windfleet.scaling import wind_histogram
from conftest import real_data_path
from _helpers import curve_value_at

PUBLISHED_TABLE2_GWC = {15.0: 41.8, 20.0: 49.3, 25.0: 57.5, 30.0: 66.0, 35.0: 75.0}
PUBLISHED_LINEAR = {
    15.0: (6.2, 450.0, 28.4, 115.0),
    20.0: (8.3, 600.0, 37.9, 153.0),
    25.0: (10.4, 750.0, 47.4, 191.0),
    30.0: (12.5, 900.0, 56.8, 229.0),
    35.0: (14.6, 1050.0, 66.3, 268.0),
}
QUOTED_WEEK3_DEFICIT_GWH = 11_551.0


def _report(n, status, detail):
    print(f"[acceptance] criterion {n:>2}: {status:<4} {detail}")


def check(n, cond, detail):
    _report(n, "PASS" if cond else "FAIL", detail)
    assert cond, f"criterion {n}: {detail}"


def require_real_data(n, real_year, what):
    if real_year is None:
        _report(
            n,
            "SKIP",
            f"{what}: requires the 2017 dataset "
            "(set WINDFLEET_DATA_2017 or add data/gridwatch_2017.csv); "
            "synthetic path ran the property criteria",
        )
        pytest.skip("2017 dataset absent; synthetic path ran")


@pytest.fixture(scope="module", autouse=True)
def announce_data_path():
    path = real_data_path()
    which = f"2017 dataset at {path}" if path else "bundled synthetic year (2017 dataset absent)"
    print(f"\n[acceptance] data path: {which}")
    yield


def test_criterion_01_fleet_arithmetic():
    started = time.perf_counter()
    fleet = BevFleetSpec(35.0)
    ok = (
        round(fleet.mean_power_gw, 2) == 14.58
        and round(fleet.mean_power_gw, 1) == 14.6
        and fleet.storage_capacity_gwh == 1050.0
    )
    for size, (power, storage, emissions, cost) in PUBLISHED_LINEAR.items():
        fleet = BevFleetSpec(size)
        ok = ok and abs(fleet.mean_power_gw - power) <= 0.05
        ok = ok and abs(fleet.storage_capacity_gwh - storage) <= 0.5
        ok = ok and abs(66.3 * size / 35.0 - emissions) <= 0.05
        ok = ok and abs(fleet.storage_capacity_gwh * 255.0 / 1000.0 - cost) <= 0.5
    elapsed = time.perf_counter() - started
    check(
        1,
        ok and elapsed < 1.0,
        f"fleet arithmetic matches published rounding for all sizes ({elapsed * 1e3:.0f} ms)",
    )


def test_criterion_02_consumption_profile_oracle(synth_year):
    spec = BevFleetSpec(35.0)
    week = synth_year.weeks[16]
    u = consumption_profile(spec, week)

    p_day_ok = abs(u.max() - spec.mean_power_gw / 0.7) <= 1e-9 * spec.mean_power_gw
    brute = 0.0
    for value in u:
        brute += value / 12.0
    expected = 35.0 * 10.0 * 7.0
    integral_ok = abs(brute - expected) <= 1e-9 * expected
    check(
        2,
        p_day_ok and integral_ok,
        f"P_day = mean/0.7 and weekly integral {brute:.6f} GWh = {expected:.0f} GWh (brute force)",
    )


def test_criterion_03_leveling_soc_and_curve_properties(synth_year):
    started = time.perf_counter()
    spec = BevFleetSpec(35.0)

    leveling_ok = True
    soc_ok = True
    for week in synth_year.weeks:
        schedule = leveling_schedule(week, spec)
        total = week.demand + schedule.charge_gw
        leveling_ok = leveling_ok and np.max(np.abs(total - schedule.level_gwe)) <= 1e-9
        u = consumption_profile(spec, week)
        traj = soc_trajectory(schedule, u, spec)
        brute = 0.0
        for c, cons in zip(schedule.charge_gw, u):
            brute += (c - cons) / 12.0
        soc_ok = soc_ok and abs((traj.energy_gwh[-1] - traj.energy_gwh[0]) - brute) <= 1e-6

    complementarity_ok = True
    cfg = DispatchConfig(13.0)
    for capacity in (20.0, 40.0, 60.0, 80.0):
        for week in synth_year.weeks:
            result = dispatch_week(week, capacity, cfg)
            complementarity_ok = complementarity_ok and bool(
                np.all((result.wind_curtailed == 0.0) | (result.gas_turbine == 0.0))
            )

    curves_ok = True
    for headroom in (20.0, 25.0, 30.0, 35.0):
        curve = annual_curve(CurveRequest(year=synth_year, headroom_gwe=headroom))
        curves_ok = curves_ok and bool(np.all(np.diff(curve.mean_wind_gwe) >= -1e-9))
        slopes = np.diff(np.concatenate([[0.0], curve.mean_wind_gwe])) / np.diff(
            np.concatenate([[0.0], curve.capacities_gwc])
        )
        curves_ok = curves_ok and bool(np.all(np.diff(slopes) <= 1e-9))

    elapsed = time.perf_counter() - started
    check(
        3,
        leveling_ok and soc_ok and complementarity_ok and curves_ok and elapsed < 10.0,
        "leveling exact to 1e-9 GW, SOC telescoping to 1e-6 GWh, "
        f"complementarity and curve shape over full synthetic sweep ({elapsed:.1f} s)",
    )


def test_criterion_04_curve_anchor_2017(real_year):
    require_real_data(4, real_year, "characteristic-curve anchor")
    curve = annual_curve(CurveRequest(year=real_year, headroom_gwe=20.0))
    value = curve_value_at(curve, 20.0)
    check(4, abs(value - 6.0) <= 0.05 * 6.0, f"headroom-20 curve at 20 GWc = {value:.3f} GWe (6.0 +/- 5%)")


def test_criterion_05_table2_wind_fleet_sizes(real_year):
    require_real_data(5, real_year, "fleet-sizing table")
    rows = build_table2(real_year, sorted(PUBLISHED_TABLE2_GWC))
    worst = 0.0
    for row in rows:
        published = PUBLISHED_TABLE2_GWC[row.fleet_size_millions]
        worst = max(worst, abs(row.required_wind_gwc - published) / published)
    check(
        5,
        worst <= 0.10,
        "required wind fleets "
        + ", ".join(f"{r.fleet_size_millions:.0f}M->{r.required_wind_gwc:.1f}GWc" for r in rows)
        + f" (worst deviation {100 * worst:.1f}%)",
    )


def test_criterion_06_week3_lull(real_year):
    require_real_data(6, real_year, "week-3 wind-lull stress case")
    week = real_year.weeks[2]
    report = lull_report(week, BevFleetSpec(35.0), 7.0, [20.0, 40.0, 60.0, 80.0])
    peak_ok = abs(report.peak_gt_gwe - 47.0) <= 0.05 * 47.0
    mean_ok = abs(report.mean_gt_gwe - 40.1) <= 0.05 * 40.1
    expected_energy = report.mean_gt_gwe * 168.0
    quoted_matches = abs(report.gt_energy_gwh - QUOTED_WEEK3_DEFICIT_GWH) <= 0.05 * QUOTED_WEEK3_DEFICIT_GWH
    check(
        6,
        peak_ok and mean_ok and not quoted_matches,
        f"peak GT {report.peak_gt_gwe:.1f} GWe (47.0 +/- 5%), mean GT {report.mean_gt_gwe:.1f} GWe "
        f"(40.1 +/- 5%); computed integral GT dt = {report.gt_energy_gwh:.0f} GWh "
        f"(= mean x 168 h = {expected_energy:.0f} GWh); the quoted {QUOTED_WEEK3_DEFICIT_GWH:.0f} GWh "
        "event total does NOT match and is not reproduced",
    )


def test_criterion_07_histogram_anchor(real_year):
    require_real_data(7, real_year, "low-wind histogram band")
    hist = wind_histogram(real_year.wind, 1.0, capacity_gwc=20.0)
    low_band = float(hist.percent[hist.bin_lower_gwe < 1.0].sum())
    check(7, low_band > 4.0, f"[0,1) GWe band holds {low_band:.2f}% of samples (> 4%)")


def test_criterion_08_cross_method_oracle(synth_year, real_year):
    year = real_year if real_year is not None else synth_year
    which = "2017" if real_year is not None else "synthetic"
    ts_curve = annual_curve(CurveRequest(year=year, headroom_gwe=20.0, solar_scale=0.0))
    hist = wind_histogram(year.wind, 1.0, capacity_gwc=year.reference_capacity_gwc)
    worst = 0.0
    for cap, ts_val in zip(ts_curve.capacities_gwc, ts_curve.mean_wind_gwe):
        approx = curve_from_histogram(hist, cap, 20.0)
        worst = max(worst, abs(approx - ts_val) / ts_val)
    check(
        8,
        worst <= 0.03,
        f"histogram vs time-series curve on {which} year: worst deviation {100 * worst:.2f}% (<= 3%)",
    )


def test_criterion_09_translation_property(synth_year, real_year):
    year = real_year if real_year is not None else synth_year
    which = "2017" if real_year is not None else "synthetic"
    base = year.mean_demand_gwe - 20.0

    worst_flat = 0.0
    for shift in (-7.0, 0.0, 4.2, 15.0):
        means = []
        for flavor_base, flavor_shift in ((base, 0.0), (base + shift, shift)):
            total = 0.0
            for week in year.weeks:
                shifted = week if flavor_shift == 0.0 else _shifted_week(week, flavor_shift)
                cfg = DispatchConfig(flavor_base, float(shifted.demand.mean()))
                total += dispatch_week(shifted, 60.0, cfg).mean_wind_used_gwe
            means.append(total / len(year.weeks))
        worst_flat = max(worst_flat, abs(means[0] - means[1]) / means[0])

    real_time = np.mean(
        [dispatch_week(w, 60.0, DispatchConfig(base)).mean_wind_used_gwe for w in year.weeks]
    )
    flattened = np.mean(
        [
            dispatch_week(w, 60.0, DispatchConfig(base, float(w.demand.mean()))).mean_wind_used_gwe
            for w in year.weeks
        ]
    )
    rt_dev = abs(real_time - flattened) / real_time
    check(
        9,
        worst_flat <= 1e-9 and rt_dev <= 0.02,
        f"flattened translation invariant to {worst_flat:.1e}; real-time vs flattened "
        f"on {which} year differs {100 * rt_dev:.2f}% (<= 2%)",
    )


def _shifted_week(week, shift):
    from dataclasses import replace

    return replace(week, demand=week.demand + shift)


def test_criterion_10_determinism(synth_csv, tmp_path):
    args = [
        "curves", "--input", str(synth_csv), "--capacities", "20,50,80",
        "--headrooms", "20,35", "--fleet-sizes", "35",
    ]
    dirs = [tmp_path / n for n in ("a", "b")]
    for d in dirs:
        assert cli_main(args + ["--out-dir", str(d)]) == 0
    identical = all(
        (dirs[1] / name).read_bytes() == (dirs[0] / name).read_bytes()
        for name in ("fig5_curve.csv", "fig7_families.csv", "fig12_families.csv")
    )
    check(10, identical, "repeated runs produced byte-identical CSVs")


def test_criterion_11_performance(synth_year):
    started = time.perf_counter()
    for headroom in (20.0, 25.0, 30.0, 35.0):
        annual_curve(CurveRequest(year=synth_year, headroom_gwe=headroom))
    elapsed = time.perf_counter() - started
    check(
        11,
        elapsed < 30.0,
        f"annual sweep (7 capacities x 52 weeks x 4 headroom families) in {elapsed:.2f} s (< 30 s)",
    )
