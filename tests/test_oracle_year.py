"""A year whose results are closed form, run from its CSV file.

Demand is constant within each week and solar is 0. Metered wind is 0 or
WIND_ON_GW in whole-day blocks, with d_w windy days in week w. normalize's k
is then cf·ref / (WIND_ON_GW·mean_w p_w), with p_w = d_w / 7. A family's room
h_w = cap_w - base is one number per week, so the annual curve is
f(c) = mean_w p_w·min(h_w, k·WIND_ON_GW·c/ref). Under V2G leveling a week's
level is its demand plus the fleet's mean power P, so the fleet charges at P
at every sample, the gas turbines run at level - base on every windless
sample, and the stored energy comes back to its start at the week's end.

The same year, written again with rows to repair, must give the same
result files byte for byte.
"""

import csv
import math
from datetime import datetime, timedelta

import numpy as np
import pytest

from windfleet import ScalingSpec, ScenarioConstants, cli
from windfleet.bev import BevFleetSpec
from windfleet.cli import DEFAULT_FLEET_SIZE_M
from windfleet.curves import DEFAULT_BASE_GENERATION_GWE, DEFAULT_CAPACITY_GRID_GWC
from windfleet.report import DEFAULT_LULL_BASE_GENERATION_GWE
from windfleet.ingest import (
    SAMPLES_PER_WEEK, SAMPLES_PER_YEAR, WEEKS_PER_YEAR, canonicalize, parse_csv,
)
from windfleet.scaling import normalize
from windfleet.synth import write_series_csv
from _helpers import make_year_series

# cycled over the 52 weeks: each week's demand (GW) and windy days
WEEK_DEMAND_GW = (30.0, 33.0, 36.0, 39.0)
WEEK_WINDY_DAYS = (2, 3, 4, 5)
WIND_ON_GW = 8.0
HEADROOMS_GWE = (20.0, 25.0)
CURVE_FLEETS_M = (5.0, 25.0)
# Table 2's roots for these fleets lie on the pieces where 0, 1, 2 and 3 of
# the four week types are saturated
FLEETS_M = (5.0, 12.5, 20.0, 25.0)
# one week of each type, and the repaired year's quoted week
WEEKS = (1, 2, 3, 4, 21)
FLAGS = {
    "curves": ["--headrooms", ",".join(map(str, HEADROOMS_GWE)),
               "--fleet-sizes", ",".join(map(str, CURVE_FLEETS_M))],
    "table2": ["--fleet-sizes", ",".join(map(str, FLEETS_M))],
    "lull": ["--weeks", ",".join(map(str, WEEKS))],
    "bev": ["--weeks", ",".join(map(str, WEEKS))],
}


def week_file(prefix, week):
    """The name of a lull or bev result file of ``week``."""
    return f"{prefix}.csv" if week == WEEKS[0] else f"{prefix}_w{week}.csv"


RESULTS = ("fig7_families.csv", "fig12_families.csv", "table2.csv",
           *(week_file(prefix, wk) for prefix in ("lull_report", "fig15_gt", "fig9_schedule")
             for wk in WEEKS))
# the repaired year: a duplicate with other values after each of these
# samples, a malformed line after each of these, a gap on a calm day of week
# 1 (demand and wind constant around it), and week 21 with every cell quoted
DUPLICATED = range(7, SAMPLES_PER_YEAR, 4000)
MALFORMED_AFTER = range(500, SAMPLES_PER_YEAR, 1000)
GAP = range(1000, 1012)
QUOTED = range(20 * SAMPLES_PER_WEEK, 21 * SAMPLES_PER_WEEK)
TRAILING_SAMPLES = 288  # one day

SPEC = ScalingSpec()
WINDY_FRACTION = [d / 7 for d in WEEK_WINDY_DAYS]
K = SPEC.target_capacity_factor * SPEC.reference_capacity_gwc / (
    WIND_ON_GW * float(np.mean(WINDY_FRACTION))
)
SLOPE = K * WIND_ON_GW / SPEC.reference_capacity_gwc  # GWe per GWc on a windy sample
FLEET_POWER_GW = BevFleetSpec(DEFAULT_FLEET_SIZE_M).mean_power_gw


def oracle_year_csv(path):
    week_type = np.arange(WEEKS_PER_YEAR) % len(WEEK_DEMAND_GW)
    day = np.arange(SAMPLES_PER_WEEK) * 7 // SAMPLES_PER_WEEK
    windy = day < np.take(WEEK_WINDY_DAYS, week_type)[:, None]
    demand = np.repeat(np.take(WEEK_DEMAND_GW, week_type), SAMPLES_PER_WEEK)
    write_series_csv(make_year_series(demand, WIND_ON_GW * windy.ravel(), 0.0), path)
    return path


def headroom_rooms(headroom_gwe):
    mean_demand = float(np.mean(WEEK_DEMAND_GW))
    return [d - (mean_demand - headroom_gwe) for d in WEEK_DEMAND_GW]


def bev_rooms(fleet_size_millions, base_gwe=DEFAULT_BASE_GENERATION_GWE):
    power = BevFleetSpec(fleet_size_millions).mean_power_gw
    return [d + power - base_gwe for d in WEEK_DEMAND_GW]


def curve(capacity_gwc, rooms):
    return float(np.mean([p * min(h, SLOPE * capacity_gwc) for p, h in zip(WINDY_FRACTION, rooms)]))


def root(target_gwe, rooms):
    """c with curve(c) = target: the week types saturate in order of h, and
    on the piece after the first j of them the curve is linear in c."""
    weeks = sorted(zip(rooms, WINDY_FRACTION))
    n = len(weeks)
    for j in range(n):
        saturated, rest = weeks[:j], weeks[j:]
        c = (n * target_gwe - sum(p * h for h, p in saturated)) / (SLOPE * sum(p for _, p in rest))
        if c <= rest[0][0] / SLOPE:
            return c
    raise AssertionError("target above the curve's plateau")


def malformed(k, stamp, demand, wind, solar):
    """The ``k``-th kind of malformed line, as cells."""
    kinds = ([stamp, "n/a", wind, solar], [stamp, demand, "", solar], [stamp, demand, wind, ""],
             [stamp, "nan", wind, solar], [stamp, demand])
    return kinds[k % len(kinds)]


def repaired_year_csv(clean, path):
    """``clean``'s year again, with its first 52 weeks as they were once
    repaired: duplicates, a gap, malformed and quoted lines, a trailing day."""
    header, *lines = clean.read_text().splitlines(keepends=True)
    out = [header]
    for i, line in enumerate(lines):
        if i in GAP:
            continue
        cells = line.rstrip("\r\n").split(",")
        rows = [cells]
        if i in DUPLICATED:
            rows.append([cells[0], "99999.0", "1.5", "2.5"])
        if i in MALFORMED_AFTER:
            rows.append(malformed(i // 1000, *cells))
        quote = '"{}"'.format if i in QUOTED else str
        out += [",".join(map(quote, row)) + "\r\n" for row in rows]
    last = datetime.fromisoformat(lines[-1].split(",")[0].replace("Z", "+00:00"))
    out += [f"{last + timedelta(minutes=5 * n):%Y-%m-%dT%H:%M:%SZ},30000.0,0.0,0.0\r\n"
            for n in range(1, TRAILING_SAMPLES + 1)]
    path.write_text("".join(out), newline="")
    return path


def run_commands(path, out):
    """Each command of FLAGS on the year at ``path``, read once, with results in ``out``."""
    series = cli.load_series(path)
    for command, flags in FLAGS.items():
        argv = [command, "--input", str(path), "--out-dir", str(out), *flags]
        assert cli.run(argv, series=series) == 0
    return out


@pytest.fixture(scope="module")
def oracle_csv(tmp_path_factory):
    return oracle_year_csv(tmp_path_factory.mktemp("oracle") / "oracle_year.csv")


@pytest.fixture(scope="module")
def oracle_out(oracle_csv, tmp_path_factory):
    return run_commands(oracle_csv, tmp_path_factory.mktemp("oracle_out"))


@pytest.fixture(scope="module")
def repaired_csv(oracle_csv, tmp_path_factory):
    return repaired_year_csv(oracle_csv, tmp_path_factory.mktemp("repaired") / "repaired.csv")


@pytest.fixture(scope="module")
def repaired_out(repaired_csv, tmp_path_factory):
    return run_commands(repaired_csv, tmp_path_factory.mktemp("repaired_out"))


@pytest.fixture(params=["oracle_out", "repaired_out"])
def any_out(request):
    """The results of the oracle year's file, and of its repaired file."""
    return request.getfixturevalue(request.param)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_normalize_k(oracle_csv):
    series = cli.load_series(oracle_csv)
    year = normalize(series, SPEC)
    assert series.wind_metered.max() == WIND_ON_GW
    np.testing.assert_allclose(year.wind, K * series.wind_metered, rtol=1e-12, atol=0.0)


def test_curve_points(oracle_out):
    rooms = {f"headroom={h:g}": headroom_rooms(h) for h in HEADROOMS_GWE}
    rooms.update({f"bev={m:g}M": bev_rooms(m) for m in CURVE_FLEETS_M})
    rows = read_rows(oracle_out / "fig7_families.csv") + read_rows(oracle_out / "fig12_families.csv")
    assert {row["family_label"] for row in rows} == set(rooms)
    for row in rows:
        expected = curve(float(row["capacity_gwc"]), rooms[row["family_label"]])
        assert float(row["mean_wind_gwe"]) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_table2_roots(oracle_out):
    rows = read_rows(oracle_out / "table2.csv")
    assert [float(row["fleet_size_millions"]) for row in rows] == list(FLEETS_M)
    for row, size in zip(rows, FLEETS_M):
        power = BevFleetSpec(size).mean_power_gw
        tenths = 10 * root(ScenarioConstants().baseline_wind_gwe + power, bev_rooms(size))
        # 1e-6 GWc or more from a 0.1 GWc snap boundary, so summation order
        # cannot move the snapped answer
        assert abs(tenths - round(tenths)) >= 1e-5
        assert float(row["required_wind_gwc"]) == math.ceil(tenths) / 10


def test_repaired_year_gives_the_same_results(repaired_csv, oracle_out, repaired_out):
    """Both readers, the repairs and the cut, from a CSV file: the quoted week
    goes through csv.reader, the rest through the byte path."""
    errors = []
    series = canonicalize(parse_csv(repaired_csv, row_errors=errors))
    assert len(errors) == len(MALFORMED_AFTER)
    assert series.provenance[1:] == (
        f"dropped {len(DUPLICATED)} duplicate-timestamp rows (kept first)",
        f"interpolated {len(GAP)} missing samples across 1 gaps",
    )
    assert series.n_samples == SAMPLES_PER_YEAR + TRAILING_SAMPLES
    for name in RESULTS:
        assert (repaired_out / name).read_bytes() == (oracle_out / name).read_bytes()


def week_type(week):
    """The demand (GW) and the windy samples of ``week``, counted from 1."""
    kind = (week - 1) % len(WEEK_DEMAND_GW)
    day = np.arange(SAMPLES_PER_WEEK) * 7 // SAMPLES_PER_WEEK
    return WEEK_DEMAND_GW[kind], day < WEEK_WINDY_DAYS[kind]


def columns(path, *names):
    rows = read_rows(path)
    return [np.array([float(row[name]) for row in rows]) for name in names]


def test_lull_gas_turbines(any_out):
    """Peak GT is level - base, the GT of every windless sample; GT energy
    is mean GT x 168 h; and mean GT is the windless and windy samples' GT."""
    base, largest = DEFAULT_LULL_BASE_GENERATION_GWE, max(DEFAULT_CAPACITY_GRID_GWC)
    for week in WEEKS:
        demand, windy = week_type(week)
        report = read_rows(any_out / week_file("lull_report", week))[0]
        level, peak, mean, energy = (float(report[name]) for name in (
            "level_gwe", "peak_gt_gwe", "mean_gt_gwe", "gt_energy_gwh"))
        room = demand + FLEET_POWER_GW - base
        assert level == pytest.approx(demand + FLEET_POWER_GW, rel=1e-9, abs=0.0)
        assert peak == pytest.approx(room, rel=1e-9, abs=0.0)
        [gas] = columns(any_out / week_file("fig15_gt", week), "gas_turbine_gw")
        np.testing.assert_allclose(gas[~windy], room, rtol=1e-9, atol=0.0)
        assert energy == pytest.approx(mean * 168.0, rel=1e-9, abs=0.0)
        windy_gas = max(room - SLOPE * largest, 0.0)
        expected = room + np.mean(windy) * (windy_gas - room)
        assert mean == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_bev_stored_energy_telescopes(any_out):
    """The fleet charges at its mean power at every sample, and each step of
    stored energy is that less consumption over 5 minutes, so the week ends
    with the energy it began with."""
    spec = BevFleetSpec(DEFAULT_FLEET_SIZE_M)
    start = spec.initial_soc_fraction * spec.storage_capacity_gwh
    for week in WEEKS:
        charge, consumption, soc = columns(any_out / week_file("fig9_schedule", week),
                                           "charge_gw", "consumption_gw", "soc_gwh")
        np.testing.assert_allclose(charge, FLEET_POWER_GW, rtol=1e-9, atol=0.0)
        steps = (charge - consumption) / 12.0
        np.testing.assert_allclose(soc, start + np.concatenate(([0.0], np.cumsum(steps[:-1]))),
                                   rtol=1e-9, atol=0.0)
        assert soc[-1] + steps[-1] == pytest.approx(start, rel=1e-9, abs=0.0)
