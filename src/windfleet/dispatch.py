"""Weekly stacking/curtailment dispatch and gas-turbine requirement.

Stacking order is fixed: base generation, then solar, then wind. Wind fills
whatever headroom remains below the cap and is curtailed above it; gas
turbines cover any remaining shortfall. The cap is either the real-time
demand or, under V2G charge leveling, a constant weekly level.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .export import sample_times, write_csv
from .ingest import CADENCE_S, WeekSeries
from .scaling import DEFAULT_REFERENCE_CAPACITY_GWC

SAMPLES_PER_HOUR = 3600 // CADENCE_S  # 12
HOURS_PER_SAMPLE = 1.0 / SAMPLES_PER_HOUR


class CapMode(Enum):
    REAL_TIME_DEMAND = "real_time_demand"
    LEVELED = "leveled"


@dataclass(frozen=True)
class DispatchConfig:
    """Dispatch scenario for one week.

    base_generation may be negative: headroom-family sweeps set
    base = mean demand - headroom, which drops below zero once the headroom
    parameter exceeds mean demand. flatten_demand replaces the real-time
    demand cap with its weekly mean (used to verify the translation property,
    not for scenario runs).
    """

    base_generation_gwe: float
    cap_mode: CapMode = CapMode.REAL_TIME_DEMAND
    level_gwe: float | None = None
    flatten_demand: bool = False

    def __post_init__(self):
        if not np.isfinite(self.base_generation_gwe):
            raise ValueError("base_generation must be finite")
        if self.cap_mode is CapMode.LEVELED:
            if self.level_gwe is None or self.level_gwe <= 0:
                raise ValueError("Leveled dispatch requires level_gwe > 0")
        elif self.level_gwe is not None:
            raise ValueError("level_gwe is only meaningful in Leveled mode")


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
    curtailed_energy_gwh: float


def headroom_series(week: WeekSeries, cfg: DispatchConfig) -> np.ndarray:
    """Room left for wind under the cap at each sample: cap - base - solar (GW).

    Negative where base plus solar already exceed the cap.
    """
    if cfg.cap_mode is CapMode.LEVELED:
        cap = float(cfg.level_gwe)
    elif cfg.flatten_demand:
        cap = float(week.demand.mean())
    else:
        cap = week.demand
    return cap - cfg.base_generation_gwe - week.solar


def dispatch_week(
    week: WeekSeries,
    wind_capacity_gwc: float,
    cfg: DispatchConfig,
    reference_capacity_gwc: float = DEFAULT_REFERENCE_CAPACITY_GWC,
) -> DispatchResult:
    """Dispatch one week for a wind fleet of the given size.

    The week's wind trace is taken to be the reference-capacity trace and is
    scaled linearly to wind_capacity_gwc. At every sample:

        wind_used  = clamp(cap - base - solar, 0, wind_available)
        gas        = max(0, cap - base - solar - wind_used)

    so curtailment and gas generation are mutually exclusive.
    """
    if wind_capacity_gwc <= 0:
        raise ValueError("wind_capacity must be > 0")
    wind_available = week.wind * (wind_capacity_gwc / reference_capacity_gwc)

    headroom = headroom_series(week, cfg)
    wind_used = np.minimum(np.maximum(headroom, 0.0), wind_available)
    gas = np.maximum(headroom - wind_used, 0.0)
    curtailed = wind_available - wind_used

    return DispatchResult(
        wind_used=wind_used,
        wind_curtailed=curtailed,
        gas_turbine=gas,
        mean_wind_used_gwe=float(wind_used.mean()),
        peak_gas_turbine_gwe=float(gas.max()),
        mean_gas_turbine_gwe=float(gas.mean()),
        gt_energy_gwh=float(gas.sum() * HOURS_PER_SAMPLE),
        curtailed_energy_gwh=float(curtailed.sum() * HOURS_PER_SAMPLE),
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
