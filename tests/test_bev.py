from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from windfleet.bev import (
    BevFleetSpec,
    ChargeSchedule,
    consumption_profile,
    leveling_schedule,
    soc_trajectory,
    weekly_levels,
    write_bev_csv,
)
from windfleet.ingest import SAMPLES_PER_WEEK
from _helpers import make_week

demand_arrays = arrays(
    float,
    SAMPLES_PER_WEEK,
    elements=st.floats(min_value=15.0, max_value=60.0),
)


class TestFleetAggregates:
    def test_35_million(self):
        fleet = BevFleetSpec(35.0)
        assert fleet.mean_power_gw == pytest.approx(14.5833, abs=1e-3)
        assert round(fleet.mean_power_gw, 1) == 14.6
        assert fleet.storage_capacity_gwh == pytest.approx(1050.0)

    def test_15_million(self):
        fleet = BevFleetSpec(15.0)
        assert fleet.mean_power_gw == pytest.approx(6.25)
        assert fleet.storage_capacity_gwh == pytest.approx(450.0)

    def test_empty_fleet(self):
        fleet = BevFleetSpec(0.0)
        assert fleet.mean_power_gw == 0.0
        assert fleet.storage_capacity_gwh == 0.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BevFleetSpec(-1.0)
        with pytest.raises(ValueError):
            BevFleetSpec(35.0, night_fraction=0.0)
        with pytest.raises(ValueError):
            BevFleetSpec(35.0, initial_soc_fraction=1.2)


class TestConsumptionProfile:
    def test_day_power_is_mean_over_0_7(self):
        spec = BevFleetSpec(35.0)
        week = make_week()
        u = consumption_profile(spec, week)
        # defaults: (15 h + 9 h * 0.2) / 24 = 0.7
        assert u.max() == pytest.approx(spec.mean_power_gw / 0.7, rel=1e-12)
        assert u.min() == pytest.approx(0.2 * spec.mean_power_gw / 0.7, rel=1e-12)

    def test_weekly_mean_exact(self):
        spec = BevFleetSpec(35.0)
        u = consumption_profile(spec, make_week())
        assert u.mean() == pytest.approx(spec.mean_power_gw, rel=1e-12)

    def test_weekly_energy_conservation(self):
        # integral over the week = fleet_size * daily energy * 7 (brute force)
        spec = BevFleetSpec(35.0)
        u = consumption_profile(spec, make_week())
        total = 0.0
        for value in u:
            total += value / 12.0
        assert total == pytest.approx(35.0 * 10.0 * 7.0, rel=1e-9)

    def test_flat_when_night_fraction_one(self):
        spec = BevFleetSpec(35.0, night_fraction=1.0)
        u = consumption_profile(spec, make_week())
        np.testing.assert_allclose(u, spec.mean_power_gw, rtol=1e-12)

    def test_mean_exact_for_offset_week_start(self):
        # any start clock time still covers 7 whole days
        start = datetime(2017, 3, 5, 14, 35, tzinfo=timezone.utc)
        spec = BevFleetSpec(20.0)
        u = consumption_profile(spec, make_week(start=start))
        assert u.mean() == pytest.approx(spec.mean_power_gw, rel=1e-12)

    def test_day_window_respected(self):
        spec = BevFleetSpec(35.0)
        week = make_week()  # starts at midnight
        u = consumption_profile(spec, week)
        assert u[0] == u.min()  # 00:00 is night
        assert u[12 * 6] == u.max()  # 06:00 is day
        assert u[12 * 21] == u.min()  # 21:00 is night again


class TestWeeklyLevels:
    def test_each_week_is_its_mean_demand_plus_fleet_power(self, synth_year):
        spec = BevFleetSpec(35.0)
        power = spec.mean_power_gw
        levels = weekly_levels(synth_year.demand, spec)
        assert levels.tolist() == [float(w.demand.mean()) + power for w in synth_year.weeks]

    def test_one_week(self):
        [level] = weekly_levels(make_week(demand=33.0).demand, BevFleetSpec(24.0))
        assert level == 33.0 + 10.0


class TestLevelingSchedule:
    def test_level_matches_week_17_arithmetic(self):
        # mean demand 32.1 + fleet mean 14.58 displays as 46.7
        schedule = leveling_schedule(make_week(demand=32.1), BevFleetSpec(35.0))
        assert round(schedule.level_gwe, 1) == 46.7

    def test_sign_convention_export(self):
        demand = np.concatenate(
            [np.full(SAMPLES_PER_WEEK // 2, 40.0), np.full(SAMPLES_PER_WEEK // 2, 60.0)]
        )
        spec = BevFleetSpec(13.68)  # mean power 5.7 GW -> level 55.7
        schedule = leveling_schedule(make_week(demand=demand), spec)
        assert schedule.level_gwe == pytest.approx(55.7)
        assert schedule.charge_gw[-1] == pytest.approx(-4.3)

    def test_flat_demand_charges_at_mean_power(self):
        spec = BevFleetSpec(35.0)
        schedule = leveling_schedule(make_week(demand=33.0), spec)
        np.testing.assert_allclose(
            schedule.charge_gw, spec.mean_power_gw, rtol=1e-12
        )

    @settings(max_examples=25, deadline=None)
    @given(demand=demand_arrays)
    def test_leveling_exactness(self, demand):
        schedule = leveling_schedule(make_week(demand=demand), BevFleetSpec(35.0))
        total = demand + schedule.charge_gw
        np.testing.assert_allclose(total, schedule.level_gwe, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(demand=demand_arrays)
    def test_mean_charge_is_fleet_power(self, demand):
        spec = BevFleetSpec(35.0)
        schedule = leveling_schedule(make_week(demand=demand), spec)
        assert schedule.charge_gw.mean() == pytest.approx(
            spec.mean_power_gw, rel=1e-9
        )

    def test_v2g_limit_clips_and_reports(self):
        demand = np.full(SAMPLES_PER_WEEK, 33.0)
        demand[:100] = 60.0  # deep export needed on these samples
        spec = BevFleetSpec(35.0, v2g_power_limit_gw=5.0)
        schedule = leveling_schedule(make_week(demand=demand), spec)
        assert schedule.clipped_samples == 100
        assert schedule.worst_clip_gw > 0.0
        assert schedule.charge_gw.min() == pytest.approx(-5.0)


class TestSocTrajectory:
    def test_initial_energy_35m(self):
        spec = BevFleetSpec(35.0)
        week = make_week(demand=33.0)
        schedule = leveling_schedule(week, spec)
        u = consumption_profile(spec, week)
        traj = soc_trajectory(schedule, u, spec)
        assert traj.energy_gwh[0] == pytest.approx(0.8 * 1050.0)

    def test_constant_when_charge_equals_consumption(self):
        spec = BevFleetSpec(35.0)
        week = make_week(demand=33.0)
        u = consumption_profile(spec, week)
        schedule = ChargeSchedule(charge_gw=u, level_gwe=33.0 + u.mean())
        traj = soc_trajectory(schedule, u, spec)
        np.testing.assert_allclose(traj.energy_gwh, 840.0, rtol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(demand=demand_arrays)
    def test_telescoping_identity(self, demand):
        spec = BevFleetSpec(35.0)
        week = make_week(demand=demand)
        schedule = leveling_schedule(week, spec)
        u = consumption_profile(spec, week)
        traj = soc_trajectory(schedule, u, spec)
        # brute-force oracle: plain python accumulation
        total = 0.0
        for c, cons in zip(schedule.charge_gw, u):
            total += (c - cons) / 12.0
        assert traj.energy_gwh[-1] - traj.energy_gwh[0] == pytest.approx(total, abs=1e-6)

    def test_infeasible_reported_not_clamped(self):
        spec = BevFleetSpec(1.0)  # 30 GWh pack, initial 24 GWh
        week = make_week(demand=np.linspace(20.0, 60.0, SAMPLES_PER_WEEK))
        schedule = leveling_schedule(week, spec)
        u = consumption_profile(spec, week)
        traj = soc_trajectory(schedule, u, spec)
        assert not traj.feasible
        assert traj.max_energy_gwh > traj.storage_capacity_gwh
        # excursion preserved in the series itself
        assert traj.energy_gwh.max() == pytest.approx(traj.max_energy_gwh)

    def test_round_trip_efficiency_derates_charging(self):
        spec = BevFleetSpec(35.0, round_trip_efficiency=0.9)
        week = make_week(demand=33.0)
        schedule = leveling_schedule(week, spec)  # constant charge 14.58 GW
        u = np.zeros(SAMPLES_PER_WEEK)
        traj = soc_trajectory(schedule, u, spec)
        gained = traj.energy_gwh[-1] - traj.energy_gwh[0]
        expected = 0.9 * spec.mean_power_gw * 168.0
        assert gained == pytest.approx(expected, rel=1e-9)

    def test_synthetic_week_17_feasible(self, synth_year):
        spec = BevFleetSpec(35.0)
        week = synth_year.weeks[16]
        schedule = leveling_schedule(week, spec)
        u = consumption_profile(spec, week)
        traj = soc_trajectory(schedule, u, spec)
        assert traj.feasible
        assert 0.0 <= traj.min_energy_gwh <= traj.max_energy_gwh <= 1050.0


def test_write_bev_csv(tmp_path, synth_year):
    spec = BevFleetSpec(35.0)
    week = synth_year.weeks[16]
    schedule = leveling_schedule(week, spec)
    u = consumption_profile(spec, week)
    traj = soc_trajectory(schedule, u, spec)
    path = tmp_path / "bev.csv"
    write_bev_csv(week, schedule, u, traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "timestamp,demand_gw,charge_gw,consumption_gw,soc_gwh"
    assert len(lines) == 1 + SAMPLES_PER_WEEK
