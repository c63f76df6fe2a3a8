"""Deterministic synthetic year of 5-minute grid records.

Used by the property-test suite and as a stand-in when no real dataset is
available. Entirely closed-form (sums of incommensurate sinusoids), so there
is no randomness anywhere: identical calls give identical series. Demand
carries daily, weekly and seasonal cycles around a 33 GW mean; wind is a
skewed multi-scale signal with a deep stationary-high-pressure lull carved
into mid-January (week 3), the canonical stress week.
"""

from __future__ import annotations

from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .export import sample_times, write_csv
from .ingest import SAMPLES_PER_YEAR, GridSeries

SYNTH_START = datetime(2017, 1, 1, tzinfo=timezone.utc)


def synthetic_year(
    n_samples: int = SAMPLES_PER_YEAR,
    mean_demand_gw: float = 33.0,
    wind_peak_gw: float = 11.0,
    start_time: datetime = SYNTH_START,
) -> GridSeries:
    """Build a synthetic GridSeries (values in GW, wind as metered)."""
    i = np.arange(n_samples)
    hours = i / 12.0
    hod = hours % 24.0
    days = hours / 24.0

    demand = (
        mean_demand_gw
        + 4.2 * np.cos(2 * np.pi * days / 364.0)
        + 4.0 * np.cos(2 * np.pi * (hod - 18.0) / 24.0)
        + 1.2 * np.sin(2 * np.pi * days / 7.0 + 0.5)
    )

    gust = (
        np.sin(2 * np.pi * hours / 89.0 + 0.7)
        + 0.75 * np.sin(2 * np.pi * hours / 37.3 + 2.1)
        + 0.50 * np.sin(2 * np.pi * hours / 13.9 + 4.2)
        + 0.35 * np.sin(2 * np.pi * hours / 201.0 + 1.0)
    ) / 2.6
    # skewed half-raised shape: ~30% capacity factor, occasional near-zero spells
    wind = wind_peak_gw * np.maximum(0.5 + 0.5 * gust, 0.0) ** 1.7
    # stationary-high-pressure event: a ~10-day deep lull centered on week 3
    wind *= 1.0 - 0.8 * np.exp(-0.5 * ((days - 17.5) / 4.0) ** 2)

    seasonal_amp = 3.2 + 2.6 * np.cos(2 * np.pi * (days - 182.0) / 364.0)
    daylight = np.maximum(np.sin(np.pi * (hod - 7.0) / 11.0), 0.0)
    daylight[(hod < 7.0) | (hod > 18.0)] = 0.0
    solar = seasonal_amp * daylight**1.4

    return GridSeries(
        start_time=start_time,
        demand=demand,
        wind_metered=wind,
        solar=solar,
        provenance=("source: synthetic (closed-form, deterministic)",),
    )


def write_series_csv(series: GridSeries, path: str | Path) -> None:
    """Write a GridSeries back out as a raw-format CSV (MW, default columns)."""
    write_csv(
        path,
        ["timestamp", "demand", "wind", "solar"],
        [
            sample_times(series.start_time, series.n_samples),
            series.demand * 1000.0,
            series.wind_metered * 1000.0,
            series.solar * 1000.0,
        ],
    )
