"""A year whose annual curves and Table 2 are closed form, run from its CSV file.

Demand is constant within each week and solar is 0. Metered wind is 0 or
WIND_ON_GW in whole-day blocks, with d_w windy days in week w. normalize's k
is then cf·ref / (WIND_ON_GW·mean_w p_w), with p_w = d_w / 7. A family's room
h_w = cap_w - base is one number per week, so the annual curve is
f(c) = mean_w p_w·min(h_w, k·WIND_ON_GW·c/ref).
"""

import csv
import math

import numpy as np
import pytest

from windfleet import ScalingSpec, ScenarioConstants, cli
from windfleet.bev import BevFleetSpec, fleet_aggregates
from windfleet.curves import DEFAULT_BASE_GENERATION_GWE
from windfleet.ingest import SAMPLES_PER_WEEK, WEEKS_PER_YEAR
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

SPEC = ScalingSpec()
WINDY_FRACTION = [d / 7 for d in WEEK_WINDY_DAYS]
K = SPEC.target_capacity_factor * SPEC.reference_capacity_gwc / (
    WIND_ON_GW * float(np.mean(WINDY_FRACTION))
)
SLOPE = K * WIND_ON_GW / SPEC.reference_capacity_gwc  # GWe per GWc on a windy sample


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
    power = fleet_aggregates(BevFleetSpec(fleet_size_millions)).mean_power_gw
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


@pytest.fixture(scope="module")
def oracle_csv(tmp_path_factory):
    return oracle_year_csv(tmp_path_factory.mktemp("oracle") / "oracle_year.csv")


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_normalize_k(oracle_csv):
    series = cli.load_series(oracle_csv)
    year = normalize(series, SPEC)
    assert series.wind_metered.max() == WIND_ON_GW
    np.testing.assert_allclose(year.wind, K * series.wind_metered, rtol=1e-12, atol=0.0)


def test_curve_points(oracle_csv, tmp_path):
    argv = ["curves", "--input", str(oracle_csv), "--out-dir", str(tmp_path),
            "--headrooms", ",".join(map(str, HEADROOMS_GWE)),
            "--fleet-sizes", ",".join(map(str, CURVE_FLEETS_M))]
    assert cli.run(argv) == 0
    rooms = {f"headroom={h:g}": headroom_rooms(h) for h in HEADROOMS_GWE}
    rooms.update({f"bev={m:g}M": bev_rooms(m) for m in CURVE_FLEETS_M})
    rows = read_rows(tmp_path / "fig7_families.csv") + read_rows(tmp_path / "fig12_families.csv")
    assert {row["family_label"] for row in rows} == set(rooms)
    for row in rows:
        expected = curve(float(row["capacity_gwc"]), rooms[row["family_label"]])
        assert float(row["mean_wind_gwe"]) == pytest.approx(expected, rel=1e-9, abs=0.0)


def test_table2_roots(oracle_csv, tmp_path):
    argv = ["table2", "--input", str(oracle_csv), "--out-dir", str(tmp_path),
            "--fleet-sizes", ",".join(map(str, FLEETS_M))]
    assert cli.run(argv) == 0
    rows = read_rows(tmp_path / "table2.csv")
    assert [float(row["fleet_size_millions"]) for row in rows] == list(FLEETS_M)
    for row, size in zip(rows, FLEETS_M):
        power = fleet_aggregates(BevFleetSpec(size)).mean_power_gw
        tenths = 10 * root(ScenarioConstants().baseline_wind_gwe + power, bev_rooms(size))
        # 1e-6 GWc or more from a 0.1 GWc snap boundary, so summation order
        # cannot move the snapped answer
        assert abs(tenths - round(tenths)) >= 1e-5
        assert float(row["required_wind_gwc"]) == math.ceil(tenths) / 10
