import logging
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from windfleet.ingest import CADENCE_S, SAMPLES_PER_WEEK, SAMPLES_PER_YEAR, IngestError
from windfleet.scaling import (
    MAX_CAPACITY_GWC,
    ScalingSpec,
    WindHistogram,
    extrapolate_wind,
    normalize,
    wind_histogram,
    write_histogram_csv,
)
from _helpers import make_year_series


class TestNormalize:
    def test_already_at_target(self):
        # metered 6 GW = 0.30 * 20 GWc, so k = 1
        series = make_year_series(wind=6.0)
        year = normalize(series, ScalingSpec())
        np.testing.assert_allclose(year.wind, 6.0, rtol=1e-12)

    def test_rescaled_to_target(self):
        # metered 3 GW mean, k = 2, wind becomes 6 everywhere
        series = make_year_series(wind=3.0)
        year = normalize(series, ScalingSpec())
        np.testing.assert_allclose(year.wind, 6.0, rtol=1e-12)

    def test_solar_scaled(self):
        solar = np.tile([1.0, 2.0], SAMPLES_PER_YEAR // 2)
        series = make_year_series(solar=solar)
        year = normalize(series, ScalingSpec(solar_scale=2.0))
        np.testing.assert_allclose(year.solar[:2], [2.0, 4.0], rtol=1e-12)

    def test_demand_untouched(self, synth_series, synth_year):
        np.testing.assert_array_equal(
            synth_year.demand, synth_series.demand[:SAMPLES_PER_YEAR]
        )

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", [
        "reference_capacity_gwc", "target_capacity_factor", "solar_scale",
    ])
    def test_spec_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            ScalingSpec(**{field: value})

    def test_reference_capacity_bounded(self):
        ScalingSpec(reference_capacity_gwc=MAX_CAPACITY_GWC)
        with pytest.raises(ValueError, match="reference_capacity must be <= 10,000 GWc"):
            ScalingSpec(reference_capacity_gwc=np.nextafter(MAX_CAPACITY_GWC, np.inf))

    def test_zero_wind_fatal(self):
        series = make_year_series(wind=0.0)
        with pytest.raises(ValueError, match="zero"):
            normalize(series, ScalingSpec())

    def test_annual_mean_hits_target(self, synth_year):
        target = 0.30 * 20.0
        assert abs(synth_year.mean_wind_gwe - target) <= 1e-9 * target

    @settings(max_examples=20, deadline=None)
    @given(
        cf=st.floats(min_value=0.1, max_value=0.6),
        ref=st.floats(min_value=5.0, max_value=60.0),
    )
    def test_mean_invariant_for_any_spec(self, cf, ref):
        wind = np.abs(np.sin(np.arange(SAMPLES_PER_YEAR) / 777.0)) * 9.0 + 0.1
        series = make_year_series(wind=wind)
        spec = ScalingSpec(reference_capacity_gwc=ref, target_capacity_factor=cf)
        year = normalize(series, spec)
        assert abs(year.mean_wind_gwe - cf * ref) <= 1e-9 * cf * ref


class TestYearWeeks:
    """normalize keeps the first 52 weeks; the year's weeks are views of its arrays."""

    def test_exact_fit(self):
        year = normalize(make_year_series(n=SAMPLES_PER_YEAR), ScalingSpec())
        assert [w.index for w in year.weeks] == list(range(1, 53))
        assert all(w.n_samples == SAMPLES_PER_WEEK for w in year.weeks)

    def test_365_day_year_discards_288(self, caplog):
        # 105,120 - 52*2016 = 288 trailing samples dropped, said once
        series = make_year_series(n=105_120)
        with caplog.at_level(logging.INFO, logger="windfleet.ingest"):
            year = normalize(series, ScalingSpec())
        assert year.demand.size == SAMPLES_PER_YEAR == 105_120 - 288
        assert len(year.weeks) == 52
        assert caplog.messages == ["discarding 288 trailing samples beyond week 52"]

    def test_too_short_fatal(self):
        with pytest.raises(IngestError, match="100000"):
            normalize(make_year_series(n=100_000), ScalingSpec())

    def test_weeks_concatenate_to_the_year(self, synth_series, synth_year):
        for name in ("demand", "wind", "solar"):
            joined = np.concatenate([getattr(w, name) for w in synth_year.weeks])
            np.testing.assert_array_equal(joined, getattr(synth_year, name))
        np.testing.assert_array_equal(synth_year.demand, synth_series.demand[:SAMPLES_PER_YEAR])

    def test_week_start_times_contiguous(self, synth_series, synth_year):
        weeks = synth_year.weeks
        assert weeks[0].start_time == synth_series.start_time
        for prev, nxt in zip(weeks, weeks[1:]):
            assert nxt.start_time - prev.start_time == timedelta(seconds=SAMPLES_PER_WEEK * CADENCE_S)

    def test_weeks_are_read_only_views(self, synth_year):
        for week in synth_year.weeks:
            for name in ("demand", "wind", "solar"):
                part = getattr(week, name)
                assert np.shares_memory(part, getattr(synth_year, name))
                assert not part.flags.writeable

    def test_demand_is_the_series_demand(self, synth_series, synth_year):
        assert np.shares_memory(synth_year.demand, synth_series.demand)
        assert not synth_year.demand.flags.writeable


class TestExtrapolate:
    def test_identity_at_reference(self, synth_year):
        np.testing.assert_array_equal(extrapolate_wind(synth_year, 20.0), synth_year.wind)

    def test_doubles_at_twice_reference(self, synth_year):
        np.testing.assert_allclose(
            extrapolate_wind(synth_year, 40.0), 2.0 * synth_year.wind, rtol=1e-15
        )

    def test_quadruples_at_80(self, synth_year):
        i = 1234
        expected = 4.0 * synth_year.wind[i]
        assert extrapolate_wind(synth_year, 80.0)[i] == pytest.approx(expected, rel=1e-13)

    def test_rejects_nonpositive_capacity(self, synth_year):
        with pytest.raises(ValueError):
            extrapolate_wind(synth_year, 0.0)

    @settings(max_examples=20, deadline=None)
    @given(
        c1=st.floats(min_value=0.5, max_value=100.0),
        c2=st.floats(min_value=0.5, max_value=100.0),
    )
    def test_linearity(self, synth_year, c1, c2):
        combined = extrapolate_wind(synth_year, c1 + c2)
        summed = extrapolate_wind(synth_year, c1) + extrapolate_wind(synth_year, c2)
        np.testing.assert_allclose(summed, combined, rtol=1e-12, atol=1e-12)


class TestWindHistogram:
    def test_direct_count(self):
        hist = wind_histogram(np.array([0.5, 0.5, 1.5, 2.5]))
        np.testing.assert_array_equal(hist.bin_lower_gwe, [0.0, 1.0, 2.0])
        np.testing.assert_allclose(hist.percent, [50.0, 25.0, 25.0])

    def test_constant_trace_single_bin(self):
        hist = wind_histogram(np.full(10, 6.0))
        np.testing.assert_array_equal(hist.bin_lower_gwe, [6.0])
        np.testing.assert_allclose(hist.percent, [100.0])

    def test_edge_goes_to_upper_bin(self):
        hist = wind_histogram(np.array([1.0]))
        assert hist.bin_lower_gwe[0] == 1.0  # exactly on the edge lands in [1, 2)

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            wind_histogram(np.array([]))

    def test_negative_trace_rejected(self):
        with pytest.raises(ValueError):
            wind_histogram(np.array([1.0, -0.1]))

    @settings(max_examples=50, deadline=None)
    @given(
        trace=arrays(
            float,
            st.integers(min_value=1, max_value=400),
            elements=st.floats(min_value=0.0, max_value=500.0),
        ),
        width=st.sampled_from([0.5, 1.0, 2.0]),
    )
    def test_mass_conservation(self, trace, width):
        hist = wind_histogram(trace, width)
        assert hist.percent.sum() == pytest.approx(100.0, abs=1e-9)

    @settings(max_examples=50, deadline=None)
    @given(
        trace=arrays(
            float,
            st.integers(min_value=1, max_value=300),
            elements=st.floats(min_value=0.0, max_value=200.0),
        )
    )
    def test_scaling_covariance(self, trace):
        # doubling the trace with unit bins == original with half-width bins
        doubled = wind_histogram(trace * 2.0, 1.0)
        halved = wind_histogram(trace, 0.5)
        np.testing.assert_array_equal(doubled.percent, halved.percent)
        np.testing.assert_allclose(doubled.bin_lower_gwe, 2.0 * halved.bin_lower_gwe)

    def test_percentages_validated(self):
        with pytest.raises(ValueError, match="sum"):
            WindHistogram(1.0, np.array([0.0]), np.array([90.0]))

    def test_csv_export(self, tmp_path):
        hist = wind_histogram(np.array([0.5, 1.5]))
        path = tmp_path / "hist.csv"
        write_histogram_csv(hist, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_lower_gwe,percent"
        assert len(lines) == 3
