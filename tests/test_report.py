import csv

import pytest

from windfleet.bev import BevFleetSpec
from windfleet.curves import TargetUnreachableError
from windfleet.report import (
    ScenarioConstants,
    build_table2,
    format_table2,
    lull_report,
    write_lull_csv,
    write_run_manifest,
    write_table2_csv,
)
from windfleet.dispatch import DispatchConfig, dispatch_week, write_dispatch_csv
from _helpers import make_week

# published fleet-sizing table: size -> (power GWe, storage GWh, emissions MT, cost EUR Bn)
PUBLISHED_LINEAR_COLUMNS = {
    15.0: (6.2, 450.0, 28.4, 115.0),
    20.0: (8.3, 600.0, 37.9, 153.0),
    25.0: (10.4, 750.0, 47.4, 191.0),
    30.0: (12.5, 900.0, 56.8, 229.0),
    35.0: (14.6, 1050.0, 66.3, 268.0),
}


class TestBuildTable2:
    def test_linear_columns_match_published_rounding(self, synth_year):
        rows = build_table2(synth_year, sorted(PUBLISHED_LINEAR_COLUMNS))
        for row in rows:
            power, storage, emissions, cost = PUBLISHED_LINEAR_COLUMNS[row.fleet_size_millions]
            assert abs(row.mean_power_gwe - power) <= 0.05
            assert abs(row.storage_gwh - storage) <= 0.5
            assert abs(row.emissions_reduction_mtpa - emissions) <= 0.05
            assert abs(row.battery_cost_eur_bn - cost) <= 0.5

    def test_required_capacity_monotone_in_fleet_size(self, synth_year):
        rows = build_table2(synth_year, [15.0, 25.0, 35.0])
        required = [r.required_wind_gwc for r in rows]
        assert required == sorted(required)

    def test_zero_fleet_row_is_degenerate(self, synth_year):
        row = build_table2(synth_year, [0.0])[0]
        assert row.mean_power_gwe == 0.0
        assert row.storage_gwh == 0.0
        assert row.emissions_reduction_mtpa == 0.0
        assert row.battery_cost_eur_bn == 0.0
        assert row.required_wind_gwc > 0.0  # still needs the baseline output

    def test_unreachable_target_propagates(self, synth_year):
        with pytest.raises(TargetUnreachableError):
            build_table2(synth_year, [500.0])

    def test_csv_and_display(self, tmp_path, synth_year):
        rows = build_table2(synth_year, [15.0, 35.0])
        path = tmp_path / "table2.csv"
        write_table2_csv(rows, path)
        with open(path, newline="") as fh:
            parsed = list(csv.DictReader(fh))
        assert len(parsed) == 2
        assert float(parsed[1]["storage_gwh"]) == 1050.0
        text = format_table2(rows)
        assert "14.6" in text  # display rounding to one decimal

    def test_display_keeps_the_half_of_the_30m_battery_cost(self, synth_year):
        [row] = build_table2(synth_year, [30.0])
        assert row.battery_cost_eur_bn == 229.5
        line = format_table2([row]).splitlines()[1]
        assert line.split()[0] == "30"
        assert line.split()[-1] == "229.5"  # not 230 (half to even) nor 229


class TestLullReport:
    def test_zero_wind_week_mean_gt_is_level_minus_base(self):
        week = make_week(demand=41.1, wind=0.0, solar=0.0)
        spec = BevFleetSpec(0.0, battery_per_vehicle_kwh=30.0)
        report = lull_report(week, spec, 7.0, [20.0, 80.0])
        assert report.mean_gt_gwe == pytest.approx(report.level_gwe - 7.0, rel=1e-12)
        assert report.peak_gt_gwe == pytest.approx(report.mean_gt_gwe, rel=1e-12)
        assert report.min_wind_gwe == 0.0

    def test_gt_energy_identity(self, synth_year):
        week = synth_year.weeks[42]
        report = lull_report(week, BevFleetSpec(35.0), 7.0, [20.0, 40.0, 80.0])
        assert report.gt_energy_gwh == pytest.approx(report.mean_gt_gwe * 168.0, rel=1e-9)
        assert report.peak_gt_gwe >= report.mean_gt_gwe >= 0.0
        assert set(report.wind_means_gwe) == {20.0, 40.0, 80.0}

    @pytest.mark.parametrize("capacities", [[80.0, 20.0], [20.0, 20.0, 80.0]],
                             ids=["decreasing", "repeated"])
    def test_capacities_must_be_a_capacity_grid(self, capacities):
        week = make_week(demand=41.1, wind=0.0, solar=0.0)
        with pytest.raises(ValueError, match="strictly increasing"):
            lull_report(week, BevFleetSpec(0.0), 7.0, capacities)

    def test_summary_recomputed_from_exported_csv(self, tmp_path, synth_year):
        # independent single-pass oracle over the dispatch export
        week = synth_year.weeks[42]
        spec = BevFleetSpec(35.0)
        report = lull_report(week, spec, 7.0, [20.0, 80.0])
        cfg = DispatchConfig(7.0, level_gwe=report.level_gwe)
        result = dispatch_week(week, 80.0, cfg)
        path = tmp_path / "gt.csv"
        write_dispatch_csv(week, result, cfg.base_generation_gwe, path)

        peak = 0.0
        total = 0.0
        count = 0
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                value = float(row["gas_turbine_gw"])
                peak = max(peak, value)
                total += value
                count += 1
        assert count == 2016
        assert peak == pytest.approx(report.peak_gt_gwe, abs=1e-9)
        assert total / count == pytest.approx(report.mean_gt_gwe, abs=1e-9)

    def test_lull_csv(self, tmp_path, synth_year):
        report = lull_report(synth_year.weeks[42], BevFleetSpec(35.0), 7.0, [20.0, 80.0])
        path = tmp_path / "lull.csv"
        write_lull_csv(report, path)
        text = path.read_text()
        assert "peak_gt_gwe" in text
        assert "capacity_gwc" in text


class TestScenarioConstants:
    def test_defaults_positive(self):
        consts = ScenarioConstants()
        assert consts.battery_unit_cost_eur_per_kwh == 255.0
        assert consts.baseline_wind_gwe == 6.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ScenarioConstants(baseline_wind_gwe=0.0)


class TestRunManifest:
    def test_fields_recorded(self, tmp_path, synth_csv):
        path = tmp_path / "manifest.txt"
        write_run_manifest(path, "curves", synth_csv, {"workers": 2}, version="0.1.0",
                           input_sha256="ab" * 32)
        text = path.read_text()
        assert "version = 0.1.0" in text
        assert "command = curves" in text
        assert f"input_sha256 = {'ab' * 32}\n" in text  # as given, not re-hashed
        assert "workers = 2" in text
        assert "created_utc = " in text

    def test_only_timestamp_varies(self, tmp_path, synth_csv):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        digest = "ab" * 32
        write_run_manifest(a, "bev", synth_csv, {"weeks": [17]}, version="0.1.0", input_sha256=digest)
        write_run_manifest(b, "bev", synth_csv, {"weeks": [17]}, version="0.1.0", input_sha256=digest)
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("created_utc")]
        assert strip(a) == strip(b)
