"""Aggregate battery-electric-vehicle fleet model with V2G charge leveling.

The fleet is modeled as one big battery: a two-level day/night consumption
profile, a charge schedule that flattens total grid load at the weekly mean
demand plus mean fleet demand (negative charge = export back to the grid),
and the resulting stored-energy trajectory with feasibility checks.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .ingest import CADENCE_S, SAMPLES_PER_WEEK, SECONDS_PER_DAY, WeekSeries
from .dispatch import HOURS_PER_SAMPLE, MAX_POWER_GWE
from .export import sample_times, write_csv
from .scaling import NormalizedYear

log = logging.getLogger(__name__)

# The largest fleet size (millions) and per-vehicle kWh figure a BevFleetSpec
# takes: far beyond any real fleet, and small enough that every GW and GWh
# value, and its sum over a year of samples, stays finite.
MAX_FLEET_FIGURE = 1e6
# The most mean power (GW) a fleet may draw: half the dispatch level bound,
# so a week's level, its mean demand plus this, stays within MAX_POWER_GWE
# whenever its mean demand lies within the other half.
MAX_FLEET_POWER_GW = MAX_POWER_GWE / 2


@dataclass(frozen=True)
class BevFleetSpec:
    """Fleet-level parameters for a mid-range BEV population.

    Defaults describe a vehicle travelling ~50 km/day: 10 kWh/day consumption
    against a 30 kWh battery. Night consumption (21:00-06:00) runs at
    night_fraction of the daytime level. The day/night boundary is evaluated
    on the fixed-offset UTC clock; DST shifts are below model resolution.
    v2g_power_limit of None means unbounded bidirectional flow.
    round_trip_efficiency defaults to lossless so the simplification is an
    explicit, overridable choice.
    """

    fleet_size_millions: float
    daily_energy_per_vehicle_kwh: float = 10.0
    battery_per_vehicle_kwh: float = 30.0
    night_fraction: float = 0.2
    day_start_hour: float = 6.0
    day_end_hour: float = 21.0
    initial_soc_fraction: float = 0.8
    v2g_power_limit_gw: float | None = None
    round_trip_efficiency: float = 1.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in vars(self).values() if v is not None):
            raise ValueError("fleet parameters must be finite")
        if self.fleet_size_millions < 0:
            raise ValueError("fleet_size must be >= 0")
        if self.daily_energy_per_vehicle_kwh <= 0 or self.battery_per_vehicle_kwh <= 0:
            raise ValueError("per-vehicle energy figures must be > 0")
        figures = (self.fleet_size_millions, self.daily_energy_per_vehicle_kwh,
                   self.battery_per_vehicle_kwh)
        if max(figures) > MAX_FLEET_FIGURE:
            raise ValueError("fleet size (millions) and per-vehicle kWh figures "
                             f"must be <= {MAX_FLEET_FIGURE:,.0f}")
        if self.mean_power_gw > MAX_FLEET_POWER_GW:
            raise ValueError("fleet mean power (fleet size x daily kWh / 24) "
                             f"must be <= {MAX_FLEET_POWER_GW:,.0f} GW")
        if not 0 < self.night_fraction <= 1:
            raise ValueError("night_fraction must be in (0, 1]")
        if not 0 <= self.day_start_hour < self.day_end_hour <= 24:
            raise ValueError("day window must satisfy 0 <= start < end <= 24")
        if not 0 <= self.initial_soc_fraction <= 1:
            raise ValueError("initial_soc_fraction must be in [0, 1]")
        if self.v2g_power_limit_gw is not None and self.v2g_power_limit_gw <= 0:
            raise ValueError("v2g_power_limit must be > 0 when set")
        if not 0 < self.round_trip_efficiency <= 1:
            raise ValueError("round_trip_efficiency must be in (0, 1]")

    # millions of vehicles x kWh scales to GWh exactly (1e6 kWh = 1 GWh)
    @property
    def mean_power_gw(self) -> float:
        """Mean fleet power draw (GW): the fleet's daily energy over 24 h."""
        return self.fleet_size_millions * self.daily_energy_per_vehicle_kwh / 24.0

    @property
    def storage_capacity_gwh(self) -> float:
        """Total battery capacity (GWh)."""
        return self.fleet_size_millions * self.battery_per_vehicle_kwh


@dataclass(frozen=True)
class ChargeSchedule:
    """Fleet charge rate per sample (GW; negative exports to the grid)."""

    charge_gw: np.ndarray
    level_gwe: float
    clipped_samples: int = 0
    worst_clip_gw: float = 0.0


@dataclass(frozen=True)
class SocTrajectory:
    """Fleet stored energy at sample boundaries; energy_gwh[0] is the initial state.

    Excursions outside [0, storage_capacity] are never clamped (clamping
    would silently break the leveling guarantee); they flag infeasibility.
    """

    energy_gwh: np.ndarray
    feasible: bool
    min_energy_gwh: float
    max_energy_gwh: float
    storage_capacity_gwh: float


def weekly_levels(demand: np.ndarray, spec: BevFleetSpec) -> np.ndarray:
    """The V2G leveled cap of each week of demand: its mean plus the fleet's mean power (GW).

    demand holds whole weeks of 2016 samples, one week or a year of them.
    """
    weekly_mean = demand.reshape(-1, SAMPLES_PER_WEEK).mean(axis=1)
    return weekly_mean + spec.mean_power_gw


def consumption_profile(spec: BevFleetSpec, week: WeekSeries | NormalizedYear) -> np.ndarray:
    """Two-level day/night fleet consumption, one value per 300 s sample of a week or year.

    Day power P_d is chosen so the weekly mean equals the fleet's mean power:
    P_d = 24 * mean / (day_hours + night_hours * night_fraction). With the
    default 15 h day at night_fraction 0.2 that is mean / 0.7.
    """
    day_hours = spec.day_end_hour - spec.day_start_hour
    night_hours = 24.0 - day_hours
    p_day = 24.0 * spec.mean_power_gw / (day_hours + night_hours * spec.night_fraction)

    start = week.start_time
    start_sec = start.hour * 3600 + start.minute * 60 + start.second
    sec_of_day = (start_sec + np.arange(week.demand.size) * CADENCE_S) % SECONDS_PER_DAY
    day_mask = (sec_of_day >= spec.day_start_hour * 3600) & (
        sec_of_day < spec.day_end_hour * 3600
    )
    return np.where(day_mask, p_day, spec.night_fraction * p_day)


def leveling_schedule(week: WeekSeries, spec: BevFleetSpec) -> ChargeSchedule:
    """Charge schedule that flattens total load at L = mean demand + mean fleet power.

    c(t) = L - demand(t), so demand(t) + c(t) = L at every sample and the
    schedule's mean equals the fleet's mean power. If a V2G export limit is
    set, exports are clipped at -limit and the violation is reported (the
    leveling guarantee no longer holds on clipped samples).
    """
    level = float(weekly_levels(week.demand, spec)[0])
    charge = level - week.demand

    clipped_samples = 0
    worst_clip = 0.0
    if spec.v2g_power_limit_gw is not None:
        floor = -spec.v2g_power_limit_gw
        below = charge < floor
        clipped_samples = int(np.count_nonzero(below))
        if clipped_samples:
            worst_clip = float((floor - charge[below]).max())
            charge = np.maximum(charge, floor)
            log.warning(
                "V2G export limit %.2f GW clipped %d samples (worst shortfall %.3f GW)",
                spec.v2g_power_limit_gw,
                clipped_samples,
                worst_clip,
            )
    return ChargeSchedule(
        charge_gw=charge,
        level_gwe=level,
        clipped_samples=clipped_samples,
        worst_clip_gw=worst_clip,
    )


def soc_trajectory(
    schedule: ChargeSchedule, consumption: np.ndarray, spec: BevFleetSpec
) -> SocTrajectory:
    """Integrate the fleet energy balance E' = charge - consumption.

    E(0) = initial_soc_fraction * capacity; each 300 s step adds
    (charge - consumption) / 12 GWh. Charging (positive flow into the pack)
    is derated by round_trip_efficiency; export and consumption draw at par.
    """
    charge = schedule.charge_gw
    if charge.shape != np.shape(consumption):
        raise ValueError("schedule and consumption must cover the same week")
    capacity = spec.storage_capacity_gwh

    stored_flow = np.where(
        charge > 0, charge * spec.round_trip_efficiency, charge
    ) - np.asarray(consumption, dtype=float)
    energy = np.empty(charge.size + 1)
    energy[0] = spec.initial_soc_fraction * capacity
    np.cumsum(stored_flow * HOURS_PER_SAMPLE, out=energy[1:])
    energy[1:] += energy[0]

    e_min = float(energy.min())
    e_max = float(energy.max())
    feasible = e_min >= -1e-9 and e_max <= capacity + 1e-9
    if not feasible:
        log.warning(
            "infeasible SOC trajectory: range [%.1f, %.1f] GWh vs capacity %.1f GWh",
            e_min,
            e_max,
            capacity,
        )
    return SocTrajectory(
        energy_gwh=energy,
        feasible=feasible,
        min_energy_gwh=e_min,
        max_energy_gwh=e_max,
        storage_capacity_gwh=capacity,
    )


def write_bev_csv(
    week: WeekSeries,
    schedule: ChargeSchedule,
    consumption: np.ndarray,
    trajectory: SocTrajectory,
    path: str | Path,
) -> None:
    """Schedule/trajectory export; soc_gwh is the stored energy at the sample instant."""
    n = week.n_samples
    write_csv(
        path,
        ["timestamp", "demand_gw", "charge_gw", "consumption_gw", "soc_gwh"],
        [
            sample_times(week.start_time, n),
            week.demand,
            schedule.charge_gw,
            np.asarray(consumption, dtype=float),
            trajectory.energy_gwh[:n],
        ],
    )
