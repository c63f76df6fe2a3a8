"""Shared constructors for synthetic weeks, years and record lists, and a memory probe."""

from __future__ import annotations

import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np

from windfleet.ingest import (
    CADENCE_S,
    SAMPLES_PER_WEEK,
    SAMPLES_PER_YEAR,
    WEEKS_PER_YEAR,
    GridSeries,
    Records,
    WeekSeries,
)
from windfleet.scaling import NormalizedYear

EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
MONDAY_MIDNIGHT = datetime(2017, 1, 2, tzinfo=timezone.utc)


def _as_array(value, n):
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n, float(arr))
    if arr.size != n:
        raise AssertionError(f"array of size {arr.size}, expected {n}")
    return arr


def make_week(demand=33.0, wind=6.0, solar=0.0, index=1, start=MONDAY_MIDNIGHT):
    return WeekSeries(
        index=index,
        start_time=start,
        demand=_as_array(demand, SAMPLES_PER_WEEK),
        wind=_as_array(wind, SAMPLES_PER_WEEK),
        solar=_as_array(solar, SAMPLES_PER_WEEK),
    )


def make_year_series(demand=33.0, wind=4.0, solar=1.0, n=SAMPLES_PER_YEAR):
    return GridSeries(
        start_time=MONDAY_MIDNIGHT,
        demand=_as_array(demand, n),
        wind_metered=_as_array(wind, n),
        solar=_as_array(solar, n),
    )


def make_year(demand=33.0, wind=6.0, solar=0.0, reference=20.0, cf=0.3):
    """NormalizedYear of 52 copies of one week's traces; wind mean must hit cf*reference."""
    return NormalizedYear(
        start_time=MONDAY_MIDNIGHT,
        demand=np.tile(_as_array(demand, SAMPLES_PER_WEEK), WEEKS_PER_YEAR),
        wind=np.tile(_as_array(wind, SAMPLES_PER_WEEK), WEEKS_PER_YEAR),
        solar=np.tile(_as_array(solar, SAMPLES_PER_WEEK), WEEKS_PER_YEAR),
        reference_capacity_gwc=reference,
        target_capacity_factor=cf,
        solar_scale=1.0,
    )


def two_state_wind(low=0.0, high=12.0):
    """Alternating per-sample wind trace, exactly half at each level."""
    wind = np.empty(SAMPLES_PER_WEEK)
    wind[0::2] = low
    wind[1::2] = high
    return wind


def curve_value_at(curve, capacity_gwc):
    """A characteristic curve's piecewise-linear interpolation at one
    capacity, anchored through the origin, as invert_curve reads the curve."""
    caps = np.concatenate([[0.0], curve.capacities_gwc])
    vals = np.concatenate([[0.0], curve.mean_wind_gwe])
    return float(np.interp(capacity_gwc, caps, vals))


def series_to_records(series: GridSeries) -> Records:
    """GW series back to MW records, for re-ingestion round trips."""
    start_us = (series.start_time - EPOCH) // timedelta(microseconds=1)
    return Records(
        start_us + np.arange(series.n_samples, dtype=np.int64) * CADENCE_S * 1_000_000,
        series.demand * 1000.0,
        series.wind_metered * 1000.0,
        series.solar * 1000.0,
    )


def traced_peak(call) -> int:
    """The tracemalloc peak, in bytes, of one ``call()`` after one untraced
    warm-up call, so first-call caches stay out of the measurement."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
