"""Normalize metered series to a reference wind fleet and extrapolate.

Metered wind is rescaled so the year hits the target capacity factor at the
reference fleet size. The target absorbs the embedded (behind-the-meter) wind
correction: any multiplier on the metered trace would cancel in the rescale.
Larger hypothetical fleets are pure linear extrapolations of the reference
trace. The normalized year holds the first 52 weeks as flat arrays of
52 x 2016 samples; its weeks are views of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from datetime import datetime
from functools import cached_property
from pathlib import Path

import numpy as np

from .export import write_csv
from .ingest import (
    SAMPLES_PER_YEAR, WEEKS_PER_YEAR, GridSeries, WeekSeries, _freeze, cut_year, split_weeks,
)

DEFAULT_REFERENCE_CAPACITY_GWC = 20.0
# The largest wind fleet (GWc) a run takes: far beyond any real fleet, and
# small enough that the histogram has about 10^4 one-GW bins and every GW and
# GWh value, and its sum over a year of samples, stays finite.
MAX_CAPACITY_GWC = 1e4


@dataclass(frozen=True)
class ScalingSpec:
    """How to turn metered wind/solar into the model's normalized traces.

    solar_scale is 1.0 when reproducing weekly traces and is set to 2.0 for
    annual characteristic-curve runs.
    """

    reference_capacity_gwc: float = DEFAULT_REFERENCE_CAPACITY_GWC
    target_capacity_factor: float = 0.30
    solar_scale: float = 1.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in vars(self).values()):
            raise ValueError("scaling parameters must be finite")
        if self.reference_capacity_gwc <= 0:
            raise ValueError("reference_capacity must be > 0")
        if self.reference_capacity_gwc > MAX_CAPACITY_GWC:
            raise ValueError(f"reference_capacity must be <= {MAX_CAPACITY_GWC:,.0f} GWc")
        if not 0 < self.target_capacity_factor <= 1:
            raise ValueError("target_capacity_factor must be in (0, 1]")
        if self.solar_scale <= 0:
            raise ValueError("solar_scale must be > 0")


@dataclass(frozen=True)
class NormalizedYear:
    """52 weeks whose wind is total generation at the reference fleet size.

    demand, wind and solar are read-only arrays from start_time; ``weeks`` are views.
    """

    start_time: datetime
    demand: np.ndarray
    wind: np.ndarray
    solar: np.ndarray
    reference_capacity_gwc: float
    target_capacity_factor: float
    solar_scale: float

    def __post_init__(self):
        for name in ("demand", "wind", "solar"):
            array = _freeze(getattr(self, name))
            if array.shape != (SAMPLES_PER_YEAR,):
                raise ValueError(f"a year holds {SAMPLES_PER_YEAR} samples, got {array.size}")
            object.__setattr__(self, name, array)
        target = self.target_capacity_factor * self.reference_capacity_gwc
        mean = self.mean_wind_gwe
        if abs(mean - target) > 1e-9 * max(1.0, abs(target)):
            raise ValueError(
                f"annual mean wind {mean} GW does not meet target {target} GW"
            )

    @cached_property
    def weeks(self) -> tuple[WeekSeries, ...]:
        return split_weeks(self.start_time, self.demand, self.wind, self.solar)

    @property
    def mean_demand_gwe(self) -> float:
        return float(self.demand.mean())

    @property
    def mean_wind_gwe(self) -> float:
        return float(self.wind.mean())


@dataclass(frozen=True)
class WindHistogram:
    """Share of time spent in fixed-width generation bands.

    bin_lower_gwe[i] is the lower edge of bin i; a sample x lands in
    floor(x / bin_width), so values exactly on an edge go to the upper bin.
    """

    bin_width_gwe: float
    bin_lower_gwe: np.ndarray
    percent: np.ndarray
    capacity_gwc: float | None = None

    def __post_init__(self):
        lower = np.array(self.bin_lower_gwe, dtype=float)
        pct = np.array(self.percent, dtype=float)
        lower.setflags(write=False)
        pct.setflags(write=False)
        object.__setattr__(self, "bin_lower_gwe", lower)
        object.__setattr__(self, "percent", pct)
        if self.bin_width_gwe <= 0:
            raise ValueError("bin_width must be > 0")
        if np.any(pct < 0):
            raise ValueError("percentages must be >= 0")
        if abs(pct.sum() - 100.0) > 1e-6:
            raise ValueError(f"percentages sum to {pct.sum()}, expected 100")

    @property
    def bin_centers_gwe(self) -> np.ndarray:
        return self.bin_lower_gwe + 0.5 * self.bin_width_gwe


def normalize(series: GridSeries, spec: ScalingSpec) -> NormalizedYear:
    """Scale the first 52 weeks of a series to the reference fleet at the target capacity factor.

    wind(t) = wind_metered(t) * k, one k for the whole year: the target
    capacity factor times the reference capacity over the annual mean (the
    mean of the weekly means). Solar is multiplied by solar_scale; demand is
    untouched, and the year's demand is a view of the series'.
    """
    series = cut_year(series)
    weekly = series.wind_metered.reshape(WEEKS_PER_YEAR, -1).mean(axis=1)
    mean = float(weekly.mean())
    if mean <= 0:
        raise ValueError("annual mean of metered wind is zero; cannot normalize")
    k = spec.target_capacity_factor * spec.reference_capacity_gwc / mean

    return NormalizedYear(
        start_time=series.start_time,
        demand=series.demand,
        wind=series.wind_metered * k,
        solar=series.solar * spec.solar_scale,
        reference_capacity_gwc=spec.reference_capacity_gwc,
        target_capacity_factor=spec.target_capacity_factor,
        solar_scale=spec.solar_scale,
    )


def extrapolate_wind(year: NormalizedYear, capacity_gwc: float) -> np.ndarray:
    """Full-year wind trace of a fleet of the given size (no curtailment)."""
    if capacity_gwc <= 0:
        raise ValueError("capacity must be > 0")
    return year.wind * (capacity_gwc / year.reference_capacity_gwc)


def wind_histogram(
    trace: np.ndarray, bin_width_gwe: float = 1.0, capacity_gwc: float | None = None
) -> WindHistogram:
    """Histogram a generation trace into bands of bin_width_gwe."""
    trace = np.asarray(trace, dtype=float)
    if trace.size == 0:
        raise ValueError("trace is empty")
    if bin_width_gwe <= 0:
        raise ValueError("bin_width must be > 0")
    if np.any(trace < 0):
        raise ValueError("generation trace must be >= 0")

    indices = np.floor(trace / bin_width_gwe).astype(np.int64)
    counts = np.bincount(indices)
    first = int(np.argmax(counts > 0))  # bins listed from first to last occupied
    percent = 100.0 * counts[first:] / trace.size
    lower = np.arange(first, counts.size) * bin_width_gwe
    return WindHistogram(
        bin_width_gwe=bin_width_gwe,
        bin_lower_gwe=lower,
        percent=percent,
        capacity_gwc=capacity_gwc,
    )


def write_histogram_csv(hist: WindHistogram, path: str | Path) -> None:
    write_csv(path, ["bin_lower_gwe", "percent"], [hist.bin_lower_gwe, hist.percent])
