import csv
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from windfleet.bev import BevFleetSpec, weekly_levels
from windfleet.dispatch import (
    HOURS_PER_SAMPLE,
    MAX_POWER_GWE,
    DispatchConfig,
    dispatch_week,
    headroom,
    write_dispatch_csv,
)
from windfleet.ingest import SAMPLES_PER_WEEK
from windfleet.scaling import DEFAULT_REFERENCE_CAPACITY_GWC
from _helpers import make_week, make_year, two_state_wind


week_arrays = arrays(
    float,
    SAMPLES_PER_WEEK,
    elements=st.floats(min_value=0.0, max_value=30.0),
)


class TestDispatchWeek:
    def test_clamp_at_demand(self):
        week = make_week(demand=20.0, wind=10.0, solar=0.0)
        result = dispatch_week(week, 20.0, DispatchConfig(13.0))
        assert result.wind_used[0] == pytest.approx(7.0)
        assert result.wind_curtailed[0] == pytest.approx(3.0)
        assert result.gas_turbine[0] == 0.0

    def test_floor_at_zero_when_solar_fills_headroom(self):
        week = make_week(demand=20.0, wind=10.0, solar=9.0)
        result = dispatch_week(week, 20.0, DispatchConfig(13.0))
        assert result.wind_used[0] == 0.0
        assert result.wind_curtailed[0] == pytest.approx(10.0)
        assert result.gas_turbine[0] == 0.0

    def test_leveled_lull_peak(self):
        # at the lull floor (wind 1.6 GWe) the turbines carry 55.6 - 7 - 1.6 = 47.0
        week = make_week(demand=50.0, wind=1.6, solar=0.0)
        cfg = DispatchConfig(7.0, level_gwe=55.6)
        result = dispatch_week(week, 20.0, cfg)
        assert result.wind_used[0] == pytest.approx(1.6)
        assert result.peak_gas_turbine_gwe == pytest.approx(47.0)

    def test_leveled_weekly_mean(self):
        # at the weekly mean wind of 8.6 GWe the turbines carry 55.6 - 7 - 8.6 = 40.0
        week = make_week(demand=50.0, wind=8.6, solar=0.0)
        cfg = DispatchConfig(7.0, level_gwe=55.6)
        result = dispatch_week(week, 20.0, cfg)
        assert result.mean_gas_turbine_gwe == pytest.approx(40.0)

    def test_energies_left_riemann(self):
        gas = np.zeros(SAMPLES_PER_WEEK)
        week = make_week(demand=30.0, wind=0.0, solar=0.0)
        result = dispatch_week(week, 20.0, DispatchConfig(10.0))
        gas[:] = 20.0
        assert result.gt_energy_gwh == pytest.approx(gas.sum() / 12.0)
        assert result.gt_energy_gwh == pytest.approx(20.0 * 168.0)

    def test_capacity_scaling_uses_reference(self):
        week = make_week(demand=100.0, wind=6.0, solar=0.0)
        result = dispatch_week(week, 40.0, DispatchConfig(0.0), reference_capacity_gwc=20.0)
        assert result.wind_used[0] == pytest.approx(12.0)

    @pytest.mark.parametrize("level", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_nonpositive_or_non_finite_level(self, level):
        with pytest.raises(ValueError, match="level"):
            DispatchConfig(7.0, level_gwe=level)
        levels = np.full(52, 40.0)
        levels[17] = level
        with pytest.raises(ValueError, match="level"):
            DispatchConfig(7.0, level_gwe=levels)  # one bad week in a year's levels

    @pytest.mark.parametrize("level", [math.nextafter(MAX_POWER_GWE, math.inf), 1e308])
    def test_rejects_level_beyond_the_bound(self, level):
        with pytest.raises(ValueError, match="level_gwe must be > 0 and <= 10,000 GWe"):
            DispatchConfig(7.0, level_gwe=level)
        levels = np.full(52, 40.0)
        levels[17] = level
        with pytest.raises(ValueError, match="level_gwe must be > 0 and <= 10,000 GWe"):
            DispatchConfig(7.0, level_gwe=levels)

    def test_level_and_base_at_the_bounds_give_finite_results(self):
        year = make_year(wind=6.0, solar=0.0, reference=20.0, cf=0.3)
        cfg = DispatchConfig(-MAX_POWER_GWE, np.full(52, MAX_POWER_GWE))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = dispatch_week(year, 1.0, cfg)
        scalars = [result.mean_wind_used_gwe, result.peak_gas_turbine_gwe,
                   result.mean_gas_turbine_gwe, result.gt_energy_gwh]
        assert np.isfinite(scalars).all() and result.peak_gas_turbine_gwe < 2 * MAX_POWER_GWE

    @pytest.mark.parametrize("base", [MAX_POWER_GWE, -MAX_POWER_GWE])
    def test_base_generation_at_the_bound_gives_finite_results(self, base):
        result = dispatch_week(make_week(), 20.0, DispatchConfig(base))
        assert np.isfinite([result.gt_energy_gwh, result.peak_gas_turbine_gwe]).all()

    @pytest.mark.parametrize("base", [np.nextafter(MAX_POWER_GWE, np.inf), -1e308, np.nan, np.inf])
    def test_rejects_base_generation_beyond_the_bound(self, base):
        with pytest.raises(ValueError, match="base_generation must be between -10,000 and 10,000"):
            DispatchConfig(base)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            dispatch_week(make_week(), 0.0, DispatchConfig(13.0))

    @settings(max_examples=30, deadline=None)
    @given(demand=week_arrays, wind=week_arrays, solar=week_arrays,
           base=st.floats(min_value=-5.0, max_value=25.0))
    def test_complementarity_and_balance(self, demand, wind, solar, base):
        week = make_week(demand=demand + 1.0, wind=wind, solar=solar)
        result = dispatch_week(week, 20.0, DispatchConfig(base))
        # curtailment and gas generation never coincide
        assert np.all((result.wind_curtailed == 0.0) | (result.gas_turbine == 0.0))
        # wind splits exactly into used + curtailed
        np.testing.assert_allclose(
            result.wind_used + result.wind_curtailed, week.wind, rtol=1e-12, atol=1e-12
        )
        assert np.all(result.wind_used >= 0.0)
        assert np.all(result.gas_turbine >= 0.0)

    @settings(max_examples=30, deadline=None)
    @given(demand=week_arrays, wind=week_arrays,
           level=st.floats(min_value=5.0, max_value=60.0))
    def test_leveled_supply_identity(self, demand, wind, level):
        week = make_week(demand=demand + 1.0, wind=wind, solar=0.0)
        cfg = DispatchConfig(3.0, level_gwe=level)
        result = dispatch_week(week, 20.0, cfg)
        active = (result.gas_turbine > 0.0) | (result.wind_curtailed > 0.0)
        supply = 3.0 + week.solar + result.wind_used + result.gas_turbine
        np.testing.assert_allclose(supply[active], level, rtol=1e-9)

    def test_monotone_in_capacity(self, synth_year):
        week = synth_year.weeks[10]
        cfg = DispatchConfig(13.0)
        results = [dispatch_week(week, c, cfg) for c in (20.0, 30.0, 50.0, 80.0)]
        means = [r.mean_wind_used_gwe for r in results]
        energies = [r.gt_energy_gwh for r in results]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))

    def test_leveled_mode_ignores_demand_shape(self, synth_year):
        # the leveled cap replaces demand outright, so only wind/solar matter
        base_week = synth_year.weeks[7]
        reshaped = make_week(
            demand=np.linspace(20.0, 45.0, SAMPLES_PER_WEEK),
            wind=base_week.wind,
            solar=base_week.solar,
            index=base_week.index,
            start=base_week.start_time,
        )
        cfg = DispatchConfig(7.0, level_gwe=50.0)
        a = dispatch_week(base_week, 60.0, cfg)
        b = dispatch_week(reshaped, 60.0, cfg)
        np.testing.assert_array_equal(a.gas_turbine, b.gas_turbine)
        np.testing.assert_array_equal(a.wind_used, b.wind_used)

    @settings(max_examples=25, deadline=None)
    @given(shift=st.floats(min_value=-15.0, max_value=30.0))
    def test_flattened_translation_exact(self, synth_year, shift):
        week = synth_year.weeks[4]
        base = 13.0
        shifted = make_week(
            demand=week.demand + shift, wind=week.wind, solar=week.solar,
            index=week.index, start=week.start_time,
        )
        a = dispatch_week(week, 60.0, DispatchConfig(base, float(week.demand.mean())))
        b = dispatch_week(shifted, 60.0, DispatchConfig(base + shift, float(shifted.demand.mean())))
        assert b.mean_wind_used_gwe == pytest.approx(a.mean_wind_used_gwe, rel=1e-12)


# a week's values: a short drawn pattern repeated over its 2016 samples
def week_of(values):
    return st.lists(values, min_size=1, max_size=48).map(
        lambda v: np.resize(np.array(v, dtype=float), SAMPLES_PER_WEEK))


class TestRuleOracle:
    """dispatch_week, which works in place, gives the stacking rule written
    out in full bit for bit, signed zeros included."""

    @settings(max_examples=60, deadline=None)
    @given(
        demand=week_of(st.sampled_from([0.0, 1e-300]) | st.floats(0.0, 60.0)),
        wind=week_of(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 30.0)),
        solar=week_of(st.sampled_from([0.0, -0.0]) | st.floats(0.0, 30.0)),
        base=st.floats(-MAX_POWER_GWE, MAX_POWER_GWE) | st.floats(-10.0, 40.0)
        | st.sampled_from([0.0, -0.0, MAX_POWER_GWE, -MAX_POWER_GWE]),
        level=st.none() | st.floats(1e-3, 60.0) | st.floats(1e-3, MAX_POWER_GWE)
        | st.just(MAX_POWER_GWE),
        capacity=st.floats(1e-3, 200.0) | st.just(20.0),
    )
    def test_matches_the_rule_written_out(self, demand, wind, solar, base, level, capacity):
        week = make_week(demand=demand, wind=wind, solar=solar)
        cfg = DispatchConfig(base, level)
        result = dispatch_week(week, capacity, cfg)

        cap = demand if level is None else np.repeat(level, SAMPLES_PER_WEEK)
        h = cap - base - solar
        avail = wind * (capacity / DEFAULT_REFERENCE_CAPACITY_GWC)
        used = np.minimum(np.maximum(h, 0.0), avail)
        gas = np.maximum(h - used, 0.0)
        for name, expected in [("wind_used", used), ("wind_curtailed", avail - used),
                               ("gas_turbine", gas)]:
            assert getattr(result, name).tobytes() == expected.tobytes(), name
        assert result.mean_wind_used_gwe == float(used.mean())
        assert result.peak_gas_turbine_gwe == float(gas.max())
        assert result.mean_gas_turbine_gwe == float(gas.mean())
        assert result.gt_energy_gwh == float(gas.sum() * HOURS_PER_SAMPLE)

        room = headroom(week, cfg)
        assert room.tobytes() == h.tobytes()
        assert room.flags.writeable and room.flags.owndata
        room[:] = np.nan  # a new array: the week's own arrays keep their values
        assert week.demand.tobytes() == demand.tobytes()
        assert week.solar.tobytes() == solar.tobytes()


class TestYearDispatch:
    """dispatch_week on a NormalizedYear: the weekly rule over every sample."""

    @pytest.mark.parametrize("leveled", [False, True], ids=["headroom", "leveled"])
    def test_equals_the_52_weekly_dispatches(self, synth_year, leveled):
        levels = weekly_levels(synth_year.demand, BevFleetSpec(35.0)) if leveled else None
        ref = synth_year.reference_capacity_gwc
        year = dispatch_week(synth_year, 75.0, DispatchConfig(7.0, levels), ref)
        weeks = [
            dispatch_week(w, 75.0, DispatchConfig(7.0, None if levels is None else levels[k]), ref)
            for k, w in enumerate(synth_year.weeks)
        ]
        for name in ("wind_used", "wind_curtailed", "gas_turbine"):
            np.testing.assert_array_equal(
                getattr(year, name), np.concatenate([getattr(r, name) for r in weeks]), name
            )
        assert year.peak_gas_turbine_gwe == max(r.peak_gas_turbine_gwe for r in weeks)
        assert year.mean_wind_used_gwe == pytest.approx(
            np.mean([r.mean_wind_used_gwe for r in weeks]), rel=1e-12
        )

    def test_rejects_a_level_count_that_does_not_match_the_span(self, synth_year):
        with pytest.raises(ValueError, match="51 levels for a span of 52 weeks"):
            dispatch_week(synth_year, 40.0, DispatchConfig(7.0, np.full(51, 40.0)))
        with pytest.raises(ValueError, match="52 levels for a span of 1 weeks"):
            dispatch_week(synth_year.weeks[0], 40.0, DispatchConfig(7.0, np.full(52, 40.0)))

    def test_leveled_two_state_year_closed_form(self):
        year = make_year(demand=40.0, wind=two_state_wind(), solar=0.0)
        cfg = DispatchConfig(7.0, weekly_levels(year.demand, BevFleetSpec(35.0)))
        result = dispatch_week(year, 80.0, cfg, year.reference_capacity_gwc)
        # wind alternates 0/12 at ref, so 0/48 at 80 GWc; headroom is
        # level - base = 47.58, fully covered on high samples, bare on low
        level = 40.0 + 350.0 / 24.0
        assert result.peak_gas_turbine_gwe == pytest.approx(level - 7.0, rel=1e-12)
        assert result.mean_gas_turbine_gwe == pytest.approx(0.5 * (level - 7.0), rel=1e-12)

    def test_leveled_gt_matches_weekly_dispatch_loop(self, synth_year):
        spec = BevFleetSpec(35.0)
        cfg = DispatchConfig(7.0, weekly_levels(synth_year.demand, spec))
        result = dispatch_week(synth_year, 75.0, cfg, synth_year.reference_capacity_gwc)
        power = spec.mean_power_gw
        results = [
            dispatch_week(w, 75.0, DispatchConfig(7.0, float(w.demand.mean()) + power))
            for w in synth_year.weeks
        ]
        assert result.peak_gas_turbine_gwe == max(r.peak_gas_turbine_gwe for r in results)
        assert result.mean_gas_turbine_gwe == pytest.approx(
            np.mean([r.mean_gas_turbine_gwe for r in results]), rel=1e-12
        )

    def test_leveled_gt_utilization_wiring(self, synth_year):
        cfg = DispatchConfig(7.0, weekly_levels(synth_year.demand, BevFleetSpec(35.0)))
        result = dispatch_week(synth_year, 75.0, cfg, synth_year.reference_capacity_gwc)
        mean_gt, peak_gt = result.mean_gas_turbine_gwe, result.peak_gas_turbine_gwe
        assert 0.0 < mean_gt <= peak_gt


class TestDispatchCsv:
    def test_roundtrip_matches_result(self, tmp_path, synth_year):
        week = synth_year.weeks[2]
        cfg = DispatchConfig(7.0, level_gwe=50.0)
        result = dispatch_week(week, 80.0, cfg)
        path = tmp_path / "dispatch.csv"
        write_dispatch_csv(week, result, cfg.base_generation_gwe, path)

        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == SAMPLES_PER_WEEK
        gas = np.array([float(r["gas_turbine_gw"]) for r in rows])
        np.testing.assert_array_equal(gas, result.gas_turbine)
        assert rows[0]["timestamp"] == week.start_time.strftime("%Y-%m-%dT%H:%M:%SZ")
