"""Scenario studies assembled into machine-readable tables and plot data.

Fleet-sizing rows couple exact arithmetic identities (power, storage,
emissions, battery cost scale linearly with fleet size) with the one
simulated column: the wind fleet capacity needed to supply the baseline
output plus the BEV fleet's mean demand. Wind-lull reports summarize a
leveled dispatch of one stressed week. Numbers are stored at full precision;
rounding happens only at display time.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .bev import BevFleetSpec, weekly_levels
from .curves import (
    ANNUAL_SOLAR_SCALE,
    DEFAULT_BASE_GENERATION_GWE,
    DEFAULT_CAPACITY_GRID_GWC,
    CurveRequest,
    capacity_grid,
    invert_annual_curve,
)
from .dispatch import DispatchConfig, DispatchResult, dispatch_week
from .export import write_csv
from .ingest import WeekSeries
from .scaling import DEFAULT_REFERENCE_CAPACITY_GWC, NormalizedYear

DEFAULT_LULL_BASE_GENERATION_GWE = 7.0  # reduced nuclear, no imports


@dataclass(frozen=True)
class ScenarioConstants:
    """Overridable constants for emissions and cost columns."""

    baseline_fleet_emissions_mtpa: float = 66.3
    baseline_fleet_size_millions: float = 35.0
    battery_unit_cost_eur_per_kwh: float = 255.0  # 155 cell + 100 V2G charger
    baseline_wind_gwe: float = 6.0  # output of the existing reference fleet

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class FleetSizingRow:
    fleet_size_millions: float
    mean_power_gwe: float
    required_wind_gwc: float
    storage_gwh: float
    emissions_reduction_mtpa: float
    battery_cost_eur_bn: float


@dataclass(frozen=True)
class LullReport:
    """Leveled dispatch of one stressed week, summarized at the largest fleet."""

    week_index: int
    level_gwe: float
    peak_gt_gwe: float
    mean_gt_gwe: float
    gt_energy_gwh: float
    min_wind_gwe: float
    wind_means_gwe: dict[float, float]
    dispatch: DispatchResult  # at the largest capacity


def build_table2(
    year: NormalizedYear,
    fleet_sizes_millions: Sequence[float],
    consts: ScenarioConstants = ScenarioConstants(),
    capacities_gwc: tuple[float, ...] | None = None,
    base_generation_gwe: float = DEFAULT_BASE_GENERATION_GWE,
    solar_scale: float = ANNUAL_SOLAR_SCALE,
    fleet: BevFleetSpec = BevFleetSpec(fleet_size_millions=0.0),
) -> list[FleetSizingRow]:
    """Wind fleet sizes needed to power BEV fleets, plus the linear columns.

    Each row's BEV fleet is ``fleet`` with that row's size. For each size,
    the BEV-adjusted annual curve is inverted exactly at (baseline wind
    output + fleet mean power) and the answer snapped up to the 0.1 GWc grid
    (invert_annual_curve). Only the largest of capacities_gwc is read, and
    it bounds the answer: raises TargetUnreachableError when a fleet is too
    large for it.
    """
    rows = []
    for size in fleet_sizes_millions:
        spec = replace(fleet, fleet_size_millions=size)
        req = CurveRequest(
            year=year,
            capacities_gwc=capacities_gwc or DEFAULT_CAPACITY_GRID_GWC,
            bev=spec,
            base_generation_gwe=base_generation_gwe,
            solar_scale=solar_scale,
        )
        required = invert_annual_curve(req, consts.baseline_wind_gwe + spec.mean_power_gw)
        rows.append(
            FleetSizingRow(
                fleet_size_millions=float(size),
                mean_power_gwe=spec.mean_power_gw,
                required_wind_gwc=required,
                storage_gwh=spec.storage_capacity_gwh,
                emissions_reduction_mtpa=consts.baseline_fleet_emissions_mtpa
                * size
                / consts.baseline_fleet_size_millions,
                battery_cost_eur_bn=spec.storage_capacity_gwh
                * consts.battery_unit_cost_eur_per_kwh
                / 1000.0,
            )
        )
    return rows


def lull_report(
    week: WeekSeries,
    spec: BevFleetSpec,
    base_generation_gwe: float,
    capacities_gwc: Sequence[float],
    reference_capacity_gwc: float = DEFAULT_REFERENCE_CAPACITY_GWC,
) -> LullReport:
    """Leveled dispatch of one week at each capacity; GT stats at the largest.

    ``capacities_gwc`` is a capacity grid (curves.capacity_grid), or
    ValueError; its last capacity is the largest. The level is the weekly
    mean demand plus the fleet's mean power. GT energy always equals mean
    GT x 168 h; any externally quoted deficit that breaks that identity is
    not reproducible from the dispatch itself.
    """
    level = float(weekly_levels(week.demand, spec)[0])
    cfg = DispatchConfig(base_generation_gwe, level)
    caps = capacity_grid(capacities_gwc)
    wind_means = {}
    for cap in caps:  # the summary is the last dispatch, at the largest capacity
        summary = dispatch_week(week, cap, cfg, reference_capacity_gwc)
        wind_means[cap] = summary.mean_wind_used_gwe
    min_wind = float(week.wind.min() * caps[-1] / reference_capacity_gwc)
    return LullReport(
        week_index=week.index,
        level_gwe=level,
        peak_gt_gwe=summary.peak_gas_turbine_gwe,
        mean_gt_gwe=summary.mean_gas_turbine_gwe,
        gt_energy_gwh=summary.gt_energy_gwh,
        min_wind_gwe=min_wind,
        wind_means_gwe=wind_means,
        dispatch=summary,
    )


def write_table2_csv(rows: Sequence[FleetSizingRow], path: str | Path) -> None:
    header = [
        "fleet_size_millions",
        "mean_power_gwe",
        "required_wind_gwc",
        "storage_gwh",
        "emissions_reduction_mtpa",
        "battery_cost_eur_bn",
    ]
    write_csv(path, header, [[getattr(row, name) for row in rows] for name in header])


def format_table2(rows: Sequence[FleetSizingRow]) -> str:
    """Display table: 0.1 GWe, GWc, MT p.a. and EUR Bn, whole GWh.

    The battery cost keeps the 0.1 EUR Bn that table2.csv holds (229.5 at
    30 M), so its display never rounds a half either way.
    """
    lines = [
        "fleet (M)  power (GWe)  wind fleet (GWc)  storage (GWh)  "
        "emissions saved (MT p.a.)  battery cost (EUR Bn)"
    ]
    for r in rows:
        lines.append(
            f"{r.fleet_size_millions:9g}  {r.mean_power_gwe:11.1f}  "
            f"{r.required_wind_gwc:16.1f}  {r.storage_gwh:13.0f}  "
            f"{r.emissions_reduction_mtpa:25.1f}  {r.battery_cost_eur_bn:21.1f}"
        )
    return "\n".join(lines)


def write_lull_csv(report: LullReport, path: str | Path) -> None:
    """Summary row, an empty row, then the week's curve (capacity, mean wind)."""
    header = [
        "week_index",
        "level_gwe",
        "peak_gt_gwe",
        "mean_gt_gwe",
        "gt_energy_gwh",
        "min_wind_gwe",
    ]
    means = report.wind_means_gwe  # in the increasing order of its capacity grid
    write_csv(
        path,
        header,
        [[getattr(report, name)] for name in header],
        more=[(["capacity_gwc", "mean_wind_gwe"], [list(means), list(means.values())])],
    )


def sha256_of(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_run_manifest(
    path: str | Path,
    command: str,
    input_path: str | Path,
    config_items: dict[str, object],
    version: str,
    input_sha256: str,
) -> None:
    """Reproducibility record: config, input hash, software version.

    ``input_sha256`` is the digest of the file at ``input_path``, as given.

    The created_utc line is the only run-varying field; all result files are
    byte-identical across reruns of the same config and input.
    """
    lines = [f"version = {version}", f"command = {command}", f"input = {input_path}",
             f"input_sha256 = {input_sha256}"]
    for key in sorted(config_items):
        lines.append(f"{key} = {config_items[key]}".rstrip())  # "key =" for an empty value
    lines.append(
        f"created_utc = {datetime.now(timezone.utc).strftime('%Y-%m-%dT%H:%M:%SZ')}"
    )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
