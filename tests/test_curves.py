from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windfleet.bev import BevFleetSpec
from windfleet.curves import (
    CharacteristicCurve,
    CurveRequest,
    TargetUnreachableError,
    _annual_root,
    annual_curve,
    curve_from_histogram,
    invert_annual_curve,
    invert_curve,
    write_curves_csv,
)
from windfleet.dispatch import DispatchConfig, dispatch_week
from windfleet.ingest import SAMPLES_PER_WEEK
from windfleet.report import ScenarioConstants
from windfleet.scaling import MAX_CAPACITY_GWC, WindHistogram, wind_histogram
from _helpers import curve_value_at, make_week, make_year, two_state_wind


def linear_curve(slope=0.3, caps=(20.0, 40.0, 60.0, 80.0)):
    caps = np.array(caps)
    return CharacteristicCurve(caps, slope * caps, label="linear")


def weekly_loop_curve(req):
    """Oracle: each point is the mean of the 52 weekly dispatches at that capacity."""
    year, ref = req.year, req.year.reference_capacity_gwc
    factor = req.solar_scale / year.solar_scale
    weeks = [make_week(w.demand, w.wind, w.solar * factor, w.index, w.start_time) for w in year.weeks]
    if req.headroom_gwe is not None:
        configs = [DispatchConfig(year.mean_demand_gwe - req.headroom_gwe)] * len(weeks)
    else:
        power = req.bev.mean_power_gw
        configs = [DispatchConfig(req.base_generation_gwe, float(w.demand.mean()) + power)
                   for w in weeks]
    return np.array([
        np.mean([dispatch_week(w, c, cfg, ref).mean_wind_used_gwe for w, cfg in zip(weeks, configs)])
        for c in req.capacities_gwc
    ])


class TestAnnualCurve:
    @pytest.mark.parametrize("family", [
        {"headroom_gwe": 20.0},
        {"headroom_gwe": 45.0, "solar_scale": 1.0},
        {"bev": BevFleetSpec(35.0)},
        {"bev": BevFleetSpec(15.0), "base_generation_gwe": 7.0, "solar_scale": 0.0},
    ], ids=["headroom20", "headroom45-solar1", "bev35M", "bev15M-base7-nosolar"])
    def test_matches_the_weekly_dispatch_loop(self, synth_year, family):
        req = CurveRequest(year=synth_year, **family)
        np.testing.assert_allclose(
            annual_curve(req).mean_wind_gwe, weekly_loop_curve(req), rtol=1e-12, atol=0.0
        )

    def test_two_state_closed_form(self):
        # 50% at 0, 50% at 12 GW (ref 20 GWc); flat demand 40, headroom 20
        # at 40 GWc available alternates 0/24 -> mean used = 0.5*min(24, 20) = 10
        year = make_year(demand=40.0, wind=two_state_wind(), solar=0.0)
        req = CurveRequest(year=year, capacities_gwc=(20.0, 40.0, 80.0),
                           headroom_gwe=20.0, solar_scale=0.0)
        curve = annual_curve(req)
        np.testing.assert_allclose(curve.mean_wind_gwe, [6.0, 10.0, 10.0], rtol=1e-12)

    def test_no_curtailment_is_exactly_linear(self):
        # huge headroom: every GWc contributes the full capacity factor
        year = make_year(demand=1000.0, wind=6.0, solar=0.0)
        req = CurveRequest(year=year, headroom_gwe=1000.0, solar_scale=0.0)
        curve = annual_curve(req)
        np.testing.assert_allclose(
            curve.mean_wind_gwe, 0.3 * np.asarray(req.capacities_gwc), rtol=1e-12
        )

    def test_headroom_dominance(self, synth_year):
        low = annual_curve(CurveRequest(year=synth_year, headroom_gwe=20.0))
        high = annual_curve(CurveRequest(year=synth_year, headroom_gwe=30.0))
        assert np.all(high.mean_wind_gwe >= low.mean_wind_gwe - 1e-12)

    def test_bev_dominance(self, synth_year):
        small = annual_curve(
            CurveRequest(year=synth_year, bev=BevFleetSpec(15.0))
        )
        large = annual_curve(
            CurveRequest(year=synth_year, bev=BevFleetSpec(35.0))
        )
        assert np.all(large.mean_wind_gwe >= small.mean_wind_gwe - 1e-12)

    def test_monotone_and_concave_validated(self, synth_year):
        curve = annual_curve(CurveRequest(year=synth_year, headroom_gwe=25.0))
        assert np.all(np.diff(curve.mean_wind_gwe) >= -1e-9)
        slopes = np.diff(np.concatenate([[0.0], curve.mean_wind_gwe])) / np.diff(
            np.concatenate([[0.0], curve.capacities_gwc])
        )
        assert np.all(np.diff(slopes) <= 1e-9)

    def test_requires_exactly_one_family(self, synth_year):
        with pytest.raises(ValueError, match="exactly one"):
            CurveRequest(year=synth_year)
        with pytest.raises(ValueError, match="exactly one"):
            CurveRequest(year=synth_year, headroom_gwe=20.0, bev=BevFleetSpec(35.0))

    def test_capacities_bounded(self, synth_year):
        CurveRequest(year=synth_year, headroom_gwe=20.0, capacities_gwc=(20.0, MAX_CAPACITY_GWC))
        above = np.nextafter(MAX_CAPACITY_GWC, np.inf)
        with pytest.raises(ValueError, match="capacities must be <= 10,000 GWc"):
            CurveRequest(year=synth_year, headroom_gwe=20.0, capacities_gwc=(20.0, above))

    def test_solar_scale_relative_to_year(self, synth_year):
        # the year was normalized at solar_scale 1.0; requesting 1.0 again
        # must reproduce the as-normalized dispatch, not rescale
        a = annual_curve(CurveRequest(year=synth_year, headroom_gwe=20.0, solar_scale=1.0))
        b = annual_curve(CurveRequest(year=synth_year, headroom_gwe=20.0, solar_scale=2.0))
        assert np.all(a.mean_wind_gwe >= b.mean_wind_gwe - 1e-12)  # more solar, less wind used


class TestCurveFromHistogram:
    def test_degenerate_bin_at_six(self):
        hist = WindHistogram(1.0, np.array([5.5]), np.array([100.0]), capacity_gwc=20.0)
        assert curve_from_histogram(hist, 20.0, 20.0) == pytest.approx(6.0)

    def test_cap_binds(self):
        hist = WindHistogram(1.0, np.array([5.5]), np.array([100.0]), capacity_gwc=20.0)
        assert curve_from_histogram(hist, 80.0, 20.0) == pytest.approx(20.0)

    def test_unbounded_headroom_returns_scaled_mean(self, synth_year):
        hist = wind_histogram(synth_year.wind, 1.0, capacity_gwc=20.0)
        center_mean = float(np.sum(hist.percent / 100.0 * hist.bin_centers_gwe))
        value = curve_from_histogram(hist, 60.0, np.inf)
        assert value == pytest.approx(center_mean * 3.0, rel=1e-12)

    def test_requires_reference(self):
        """The histogram's capacity_gwc is the one reference: without it, no curve point."""
        hist = WindHistogram(1.0, np.array([5.5]), np.array([100.0]))
        with pytest.raises(ValueError, match="reference capacity unknown: make it with capacity_gwc"):
            curve_from_histogram(hist, 40.0, 20.0)

    def test_close_to_time_series_curve(self, synth_year):
        # the solar-free cross-method check, asserted at 3% in acceptance
        ts_curve = annual_curve(
            CurveRequest(year=synth_year, headroom_gwe=20.0, solar_scale=0.0)
        )
        hist = wind_histogram(synth_year.wind, 1.0, capacity_gwc=20.0)
        for cap, ts_val in zip(ts_curve.capacities_gwc, ts_curve.mean_wind_gwe):
            approx = curve_from_histogram(hist, cap, 20.0)
            assert approx == pytest.approx(ts_val, rel=0.03)


class TestInvertCurve:
    def test_linear_inversion(self):
        assert invert_curve(linear_curve(), 6.0) == pytest.approx(20.0, abs=1e-6)

    def test_root_solved_on_its_piece(self):
        curve = CharacteristicCurve(
            np.array([20.0, 40.0, 80.0]), np.array([6.0, 10.0, 10.0])
        )
        assert invert_curve(curve, 7.0) == 25.0
        assert invert_curve(curve, 9.9) == 39.5

    def test_first_point_reaching_the_target_wins_over_a_dip(self):
        # the plateau dips within the curve's tolerance; a sorted search from
        # the top would land on 80 GWc
        curve = CharacteristicCurve(
            np.array([20.0, 40.0, 60.0, 80.0]), np.array([6.0, 10.0, 10.0 - 1e-8, 10.0])
        )
        assert invert_curve(curve, 10.0) == 40.0

    def test_target_within_rounding_above_plateau_returns_last_capacity(self):
        assert invert_curve(linear_curve(), 0.3 * 80.0 + 5e-13) == 80.0

    def test_smallest_sufficient_capacity(self):
        curve = CharacteristicCurve(
            np.array([20.0, 40.0, 80.0]), np.array([6.0, 10.0, 10.0])
        )
        assert invert_curve(curve, 10.0) == pytest.approx(40.0, abs=0.1 + 1e-9)
        assert invert_curve(curve, 8.0) == pytest.approx(30.0, abs=0.1 + 1e-9)

    def test_target_on_plateau_unreachable(self):
        curve = CharacteristicCurve(
            np.array([20.0, 40.0, 80.0]), np.array([6.0, 10.0, 10.0])
        )
        with pytest.raises(TargetUnreachableError, match="saturates at 10.000 GWe"):
            invert_curve(curve, 10.5)

    def test_below_first_point_extrapolates_through_origin(self):
        assert invert_curve(linear_curve(), 3.0) == pytest.approx(10.0, abs=0.1 + 1e-9)

    def test_zero_or_negative_target(self):
        assert invert_curve(linear_curve(), 0.0) == 0.0
        assert invert_curve(linear_curve(), -2.0) == 0.0

    @settings(max_examples=25, deadline=None)
    @given(cap=st.floats(min_value=20.0, max_value=80.0))
    def test_inverse_consistency(self, synth_year, cap):
        curve = annual_curve(CurveRequest(year=synth_year, headroom_gwe=20.0))
        required = curve_value_at(curve, cap)
        inverted = invert_curve(curve, required)
        assert inverted <= cap + 0.1 + 1e-9

    def test_resolution_snap(self):
        # true root 41.75 for slope 0.3 against 12.525 -> snapped up to 41.8
        result = invert_curve(linear_curve(), 0.3 * 41.75)
        assert result == 41.8  # the double nearest 41.8, not 41.800000000000004
        assert 0.3 * result >= 0.3 * 41.75 - 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(st.floats(min_value=1.0, max_value=25.0), min_size=2, max_size=8),
        first_slope=st.floats(min_value=0.05, max_value=0.4),
        decays=st.lists(st.floats(min_value=0.3, max_value=1.0), min_size=8, max_size=8),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_minimality_against_scan_oracle(self, steps, first_slope, decays, fraction):
        # random concave nondecreasing curve: slopes shrink segment by segment
        caps, vals = [], []
        cap, val, slope = 0.0, 0.0, first_slope
        for step, decay in zip(steps, decays):
            cap += step
            val += slope * step
            slope *= decay
            caps.append(cap)
            vals.append(val)
        curve = CharacteristicCurve(np.array(caps), np.array(vals))
        required = fraction * vals[-1]
        result = invert_curve(curve, required)
        assert curve_value_at(curve, result) >= required - 1e-9
        # brute-force scan for the smallest sufficient capacity
        grid = np.arange(0.0, caps[-1] + 0.005, 0.01)
        sufficient = grid[
            np.interp(grid, np.concatenate([[0.0], caps]), np.concatenate([[0.0], vals]))
            >= required
        ]
        oracle = float(sufficient[0]) if sufficient.size else float(caps[-1])
        assert result <= oracle + 0.1 + 0.01 + 1e-9


def curve_value(req, capacity):
    """The annual curve at one capacity: the year's mean delivered wind."""
    one = replace(req, capacities_gwc=(capacity,))
    return float(annual_curve(one).mean_wind_gwe[0])


def bisection_root(req, target):
    """Least capacity the year's dispatch finds reaching target, to 1e-11 GWc."""
    lo, hi = 0.0, req.capacities_gwc[-1]
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if curve_value(req, mid) >= target:
            hi = mid
        else:
            lo = mid
    return hi


def table2_target(spec):
    return ScenarioConstants().baseline_wind_gwe + spec.mean_power_gw


EXACT_CASES = [(size, base) for size in (0.0, 15.0, 35.0) for base in (7.0, 13.0)]
# headroom-20 targets, as a fraction of the curve's value at the grid's top
TOP_FRACTIONS = {"headroom20": 0.63, "headroom20-near-top": 0.999999}


def case_id(case):
    return case if isinstance(case, str) else f"bev{case[0]:g}M-base{case[1]:g}"


class TestInvertAnnualCurve:
    """The year's dispatch (annual_curve) is the oracle for the exact inverse."""

    @pytest.fixture(scope="class", params=[*EXACT_CASES, *TOP_FRACTIONS], ids=case_id)
    def case(self, request, synth_year):
        if request.param in TOP_FRACTIONS:
            req = CurveRequest(year=synth_year, headroom_gwe=20.0)
            return req, TOP_FRACTIONS[request.param] * curve_value(req, req.capacities_gwc[-1])
        size, base = request.param
        spec = BevFleetSpec(size)
        req = CurveRequest(year=synth_year, bev=spec, base_generation_gwe=base)
        return req, table2_target(spec)

    def test_root_matches_bisection_on_dispatch_loop(self, case):
        req, target = case
        assert _annual_root(req, target) == pytest.approx(
            bisection_root(req, target), rel=0.0, abs=1e-9
        )

    def test_answer_is_least_sufficient_grid_step(self, case):
        req, target = case
        answer = invert_annual_curve(req, target)
        assert answer == round(answer, 1)
        assert curve_value(req, answer) >= target * (1.0 - 1e-9)
        assert curve_value(req, round(answer - 0.1, 1)) < target

    def test_grid_only_brackets_the_root(self, case):
        req, target = case
        answer = invert_annual_curve(req, target)
        for caps in [(80.0,), tuple(0.5 * k for k in range(1, 161))]:
            assert invert_annual_curve(replace(req, capacities_gwc=caps), target) == answer

    def test_two_state_closed_form(self):
        # half the samples 0, half 12 GW at ref 20 GWc; headroom 20 GW:
        # f(c) = 0.5 * min(20, 0.6 c), so f = 8 at c = 26.67 and f = 10 from 33.33
        year = make_year(demand=40.0, wind=two_state_wind(), solar=0.0)
        req = CurveRequest(year=year, capacities_gwc=(20.0, 40.0, 80.0),
                           headroom_gwe=20.0, solar_scale=0.0)
        assert _annual_root(req, 8.0) == pytest.approx(80.0 / 3.0, rel=1e-12)
        assert invert_annual_curve(req, 8.0) == 26.7
        assert invert_annual_curve(req, 10.0) == 33.4
        assert invert_annual_curve(req, 6.0) == 20.0  # a root on the grid stays there

    def test_every_sample_saturates_below_the_grid_top(self):
        # h = 20 everywhere; wind 4 or 8 saturates at 100 and 50 GWc (ref 20),
        # so the curve is flat at 20 from 100 GWc; a target within the 1e-12
        # plateau slack stops where the last sample saturates, with no 0/0
        # (the test configuration turns a RuntimeWarning into a failure)
        year = make_year(demand=40.0, wind=two_state_wind(4.0, 8.0), solar=0.0)
        req = CurveRequest(year=year, capacities_gwc=(20.0, 60.0, 120.0),
                           headroom_gwe=20.0, solar_scale=0.0)
        top = curve_value(req, 120.0)
        assert top == 20.0
        root = _annual_root(req, top + 5e-13)
        assert root == pytest.approx(bisection_root(req, top), rel=0.0, abs=1e-9)
        assert root == pytest.approx(100.0, rel=0.0, abs=1e-9)

    def test_answer_never_passes_the_grid_top(self):
        # one sample a week keeps 1e-3 GW of wind unsaturated far past the
        # top, so the curve still rises there by about 5e-7 GWe per 20 GWc;
        # a target 5e-13 above its value at the top stops at the top
        wind = np.full(SAMPLES_PER_WEEK, (6.0 * SAMPLES_PER_WEEK - 1e-3) / (SAMPLES_PER_WEEK - 1))
        wind[0] = 1e-3
        year = make_year(demand=40.0, wind=wind, solar=0.0)
        req = CurveRequest(year=year, capacities_gwc=(20.0, 100.0),
                           headroom_gwe=20.0, solar_scale=0.0)
        top = curve_value(req, 100.0)
        assert _annual_root(req, top + 5e-13) == pytest.approx(100.0, rel=1e-15)
        assert invert_annual_curve(req, top + 5e-13) == 100.0

    def test_samples_without_room_or_without_wind(self):
        # per four samples: h = 0 with wind, h = 10 with no wind, then
        # h = 20 and 10 with wind 9 and 6, which saturate at 44.4 and 33.3 GWc
        demand = np.tile([30.0, 40.0, 50.0, 40.0], SAMPLES_PER_WEEK // 4)
        wind = np.tile([9.0, 0.0, 9.0, 6.0], SAMPLES_PER_WEEK // 4)
        year = make_year(demand=demand, wind=wind, solar=0.0)
        req = CurveRequest(year=year, headroom_gwe=10.0, solar_scale=0.0)
        top = curve_value(req, req.capacities_gwc[-1])
        assert top == pytest.approx(7.5, rel=1e-12)
        for target in (0.3 * top, 0.6 * top, 0.9 * top, top):
            assert _annual_root(req, target) == pytest.approx(
                bisection_root(req, target), rel=0.0, abs=1e-9
            )

    def test_zero_or_negative_target(self, synth_year):
        req = CurveRequest(year=synth_year, headroom_gwe=20.0)
        assert invert_annual_curve(req, 0.0) == 0.0
        assert invert_annual_curve(req, -1.0) == 0.0

    def test_target_above_grid_top_unreachable(self, synth_year):
        req = CurveRequest(year=synth_year, bev=BevFleetSpec(15.0), capacities_gwc=(20.0, 40.0))
        top = curve_value(req, 40.0)
        assert invert_annual_curve(req, top) <= 40.0
        with pytest.raises(TargetUnreachableError, match=f"saturates at {top:.3f} GWe"):
            invert_annual_curve(req, top + 0.01)


class TestCurveValidation:
    def test_rejects_decreasing_values(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            CharacteristicCurve(np.array([20.0, 40.0]), np.array([6.0, 5.0]))

    def test_rejects_convex_shape(self):
        with pytest.raises(ValueError, match="concave"):
            CharacteristicCurve(np.array([20.0, 40.0, 60.0]), np.array([1.0, 2.0, 10.0]))

    def test_rejects_unsorted_capacities(self):
        with pytest.raises(ValueError, match="increasing"):
            CharacteristicCurve(np.array([40.0, 20.0]), np.array([6.0, 6.0]))


def test_write_curves_csv(tmp_path, synth_year):
    curves = [
        annual_curve(CurveRequest(year=synth_year, headroom_gwe=h, capacities_gwc=(20.0, 40.0)))
        for h in (20.0, 25.0)
    ]
    path = tmp_path / "curves.csv"
    write_curves_csv(curves, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "capacity_gwc,mean_wind_gwe,family_label"
    assert len(lines) == 1 + 4
    assert lines[1].endswith("headroom=20")
