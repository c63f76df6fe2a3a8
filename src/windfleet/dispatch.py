"""Stacking/curtailment dispatch of a week or a year, and the gas-turbine requirement.

Stacking order is fixed: base generation, then solar, then wind. Wind fills
whatever headroom remains below the cap and is curtailed above it; gas
turbines cover any remaining shortfall. The cap is the real-time demand, or
under V2G charge leveling each week's constant level (DispatchConfig.level_gwe,
see bev.weekly_levels). headroom is the one place the rule is written; a span
is any run of whole weeks, one WeekSeries or a NormalizedYear.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .export import sample_times, write_csv
from .ingest import SAMPLES_PER_HOUR, SAMPLES_PER_WEEK, WeekSeries
from .scaling import DEFAULT_REFERENCE_CAPACITY_GWC, NormalizedYear

HOURS_PER_SAMPLE = 1.0 / SAMPLES_PER_HOUR
# The largest base generation or headroom (GWe, either sign) a run takes: as
# with scaling.MAX_CAPACITY_GWC, far beyond any real grid, and small enough
# that every GW and GWh value, and its sum over a year of samples, stays finite.
MAX_POWER_GWE = 1e4


@dataclass(frozen=True)
class DispatchConfig:
    """Dispatch scenario for a span of whole weeks.

    level_gwe is the cap under V2G charge leveling, one level per week of the
    span: a float for one week, or the 52 bev.weekly_levels for a year. None
    caps at real-time demand. base_generation may be negative:
    headroom-family sweeps set base = mean demand - headroom, which drops
    below zero once the headroom parameter exceeds mean demand. Either way
    it lies within MAX_POWER_GWE of zero.
    """

    base_generation_gwe: float
    level_gwe: float | np.ndarray | None = None

    def __post_init__(self):
        if not abs(self.base_generation_gwe) <= MAX_POWER_GWE:  # NaN fails too
            raise ValueError(
                f"base_generation must be between {-MAX_POWER_GWE:,.0f} and {MAX_POWER_GWE:,.0f}"
                f" GWe, got {self.base_generation_gwe:g}"
            )
        if self.level_gwe is not None:
            levels = np.asarray(self.level_gwe, dtype=float)
            if not np.all((levels > 0) & (levels <= MAX_POWER_GWE)):  # NaN fails too
                raise ValueError(
                    f"level_gwe must be > 0 and <= {MAX_POWER_GWE:,.0f} GWe when set, one per week"
                )


def headroom(span: WeekSeries | NormalizedYear, cfg: DispatchConfig) -> np.ndarray:
    """cap - base - solar at every sample of span: the room wind may fill.

    The cap is span.demand, or each week's level held over that week's
    2016 samples. The result is a new, writable array, built in place.
    """
    if cfg.level_gwe is None:
        room = span.demand - cfg.base_generation_gwe
    else:
        weeks = span.demand.size // SAMPLES_PER_WEEK
        if np.size(cfg.level_gwe) != weeks:
            raise ValueError(f"{np.size(cfg.level_gwe)} levels for a span of {weeks} weeks")
        room = np.repeat(np.asarray(cfg.level_gwe, dtype=float), SAMPLES_PER_WEEK)
        room -= cfg.base_generation_gwe
    room -= span.solar
    return room


@dataclass(frozen=True)
class DispatchResult:
    """Per-sample dispatch series plus weekly scalars (energies in GWh)."""

    wind_used: np.ndarray
    wind_curtailed: np.ndarray
    gas_turbine: np.ndarray
    mean_wind_used_gwe: float
    peak_gas_turbine_gwe: float
    mean_gas_turbine_gwe: float
    gt_energy_gwh: float


def dispatch_week(
    span: WeekSeries | NormalizedYear,
    wind_capacity_gwc: float,
    cfg: DispatchConfig,
    reference_capacity_gwc: float = DEFAULT_REFERENCE_CAPACITY_GWC,
) -> DispatchResult:
    """Dispatch one week, or the whole year, for a wind fleet of the given size.

    The span's wind trace is taken to be the reference-capacity trace and is
    scaled linearly to wind_capacity_gwc. At every sample, with
    h = headroom(span, cfg):

        wind_used  = clamp(h, 0, wind_available)
        gas        = max(0, h - wind_used)

    so curtailment and gas generation are mutually exclusive. The three
    result arrays are the only ones made: the available wind becomes the
    curtailed wind in place, and h becomes max(h, 0) and then the gas in
    place, as max(h, 0) - wind_used. That is the same rule, bit for bit:
    for h >= 0 both forms are h - wind_used, which is >= 0; for h < 0
    wind_used is 0 and both give 0.
    """
    if wind_capacity_gwc <= 0:
        raise ValueError("wind_capacity must be > 0")
    curtailed = np.multiply(span.wind, wind_capacity_gwc / reference_capacity_gwc)
    gas = headroom(span, cfg)
    np.maximum(gas, 0.0, out=gas)
    wind_used = np.minimum(gas, curtailed)
    gas -= wind_used
    curtailed -= wind_used
    gas_total = float(gas.sum())

    return DispatchResult(
        wind_used=wind_used,
        wind_curtailed=curtailed,
        gas_turbine=gas,
        mean_wind_used_gwe=float(wind_used.mean()),
        peak_gas_turbine_gwe=float(gas.max()),
        mean_gas_turbine_gwe=gas_total / gas.size,
        gt_energy_gwh=gas_total * HOURS_PER_SAMPLE,
    )


def write_dispatch_csv(
    week: WeekSeries, result: DispatchResult, base_generation_gwe: float, path: str | Path
) -> None:
    """Per-sample dispatch export, one row per 300 s sample."""
    write_csv(
        path,
        [
            "timestamp",
            "demand_gw",
            "base_gw",
            "solar_gw",
            "wind_used_gw",
            "wind_curtailed_gw",
            "gas_turbine_gw",
        ],
        [
            sample_times(week.start_time, week.n_samples),
            week.demand,
            np.full(week.n_samples, float(base_generation_gwe)),
            week.solar,
            result.wind_used,
            result.wind_curtailed,
            result.gas_turbine,
        ],
    )
