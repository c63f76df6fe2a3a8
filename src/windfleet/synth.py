"""Deterministic synthetic year of 5-minute grid records.

Used by the property-test suite and as a stand-in when no real dataset is
available. Entirely closed-form (sums of incommensurate sinusoids), so there
is no randomness anywhere: identical calls give identical series. Demand
carries daily, weekly and seasonal cycles around a 33 GW mean; wind is a
skewed multi-scale signal with a deep stationary-high-pressure lull carved
into mid-January (week 3), the canonical stress week.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .export import CHUNK_ROWS, sample_times, write_blocks
from .ingest import CADENCE_S, SAMPLES_PER_YEAR, GridSeries, _frozen

SYNTH_START = datetime(2017, 1, 1, tzinfo=timezone.utc)
SYNTH_MEAN_DEMAND_GW = 33.0
SYNTH_WIND_PEAK_GW = 11.0


def _wave(work: np.ndarray, x: np.ndarray, fn, amp: float, period: float, offset: float = 0.0,
          phase: float = 0.0) -> np.ndarray:
    """``amp * fn(2 * np.pi * (x - offset) / period + phase)`` in that order, into ``work``."""
    np.subtract(x, offset, out=work)
    work *= 2 * np.pi
    work /= period
    work += phase
    fn(work, out=work)
    work *= amp
    return work


def synthetic_year(n_samples: int = SAMPLES_PER_YEAR) -> GridSeries:
    """Build a synthetic GridSeries of ``n_samples`` from SYNTH_START (values
    in GW, wind as metered), term by term."""
    # one scratch block, which glibc maps; freeing it lifts its trim threshold (README, Memory)
    hours, hod, work = np.empty((3, n_samples))
    np.divide(np.arange(n_samples), 12.0, out=hours)

    wind = np.zeros(n_samples)  # the gust, in [-1, 1]
    for amp, period, phase in ((1.0, 89.0, 0.7), (0.75, 37.3, 2.1), (0.50, 13.9, 4.2),
                               (0.35, 201.0, 1.0)):
        wind += _wave(work, hours, np.sin, amp, period, phase=phase)
    wind /= 2.6
    # skewed half-raised shape: ~30% capacity factor, occasional near-zero spells
    wind *= 0.5
    wind += 0.5
    np.maximum(wind, 0.0, out=wind)
    wind **= 1.7
    wind *= SYNTH_WIND_PEAK_GW

    np.remainder(hours, 24.0, out=hod)
    days = np.divide(hours, 24.0, out=hours)  # hours are done with
    # stationary-high-pressure event: a ~10-day deep lull centered on week 3
    np.subtract(days, 17.5, out=work)
    work /= 4.0
    np.square(work, out=work)
    work *= -0.5
    np.exp(work, out=work)
    work *= 0.8
    wind *= np.subtract(1.0, work, out=work)

    demand = np.full(n_samples, SYNTH_MEAN_DEMAND_GW)
    demand += _wave(work, days, np.cos, 4.2, 364.0)
    demand += _wave(work, hod, np.cos, 4.0, 24.0, offset=18.0)
    demand += _wave(work, days, np.sin, 1.2, 7.0, phase=0.5)

    solar = np.full(n_samples, 3.2)  # seasonal amplitude times daylight^1.4
    solar += _wave(work, days, np.cos, 2.6, 364.0, offset=182.0)
    # daylight: the positive half of a 22-hour wave from 07:00 (2π·y/22 is π·y/11 exactly)
    daylight = np.maximum(_wave(work, hod, np.sin, 1.0, 22.0, offset=7.0), 0.0, out=work)
    daylight[(hod < 7.0) | (hod > 18.0)] = 0.0
    solar *= np.power(daylight, 1.4, out=daylight)

    return GridSeries(
        start_time=SYNTH_START,
        demand=_frozen(demand),
        wind_metered=_frozen(wind),
        solar=_frozen(solar),
        provenance=("source: synthetic (closed-form, deterministic)",),
    )


def write_series_csv(series: GridSeries, path: str | Path) -> None:
    """Write a GridSeries back out as a raw-format CSV (MW, default columns),
    scaled and formatted one CHUNK_ROWS block at a time."""
    n, step = series.n_samples, timedelta(seconds=CADENCE_S)
    write_blocks(path, ["timestamp", "demand", "wind", "solar"], (
        [sample_times(series.start_time + lo * step, min(CHUNK_ROWS, n - lo)),
         *(column[lo : lo + CHUNK_ROWS] * 1000.0
           for column in (series.demand, series.wind_metered, series.solar))]
        for lo in range(0, n, CHUNK_ROWS)
    ))
