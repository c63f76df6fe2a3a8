"""Annual characteristic curves: mean delivered wind (GWe) vs fleet size (GWc).

A curve point is the mean delivered wind of one dispatch of the whole year.
Families come in two flavours:
fixed headroom (base generation set to mean demand minus the headroom, cap at
real-time demand) and BEV-adjusted (each week's cap leveled at its mean
demand plus mean fleet demand, bev.weekly_levels). The curve and its exact
inverse get the year at the request's solar scale and its DispatchConfig
from one helper. A cheap histogram-based approximation and a monotone
piecewise-linear inversion of a sampled curve round out the module, with
invert_annual_curve for fleet sizing: the exact inverse of a request's annual
curve, solved on the one linear piece of it that holds the root.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .bev import BevFleetSpec, weekly_levels
from .dispatch import DispatchConfig, dispatch_week, headroom
from .export import write_csv
from .scaling import MAX_CAPACITY_GWC, NormalizedYear, WindHistogram

DEFAULT_CAPACITY_GRID_GWC = (20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0)
DEFAULT_BASE_GENERATION_GWE = 13.0
ANNUAL_SOLAR_SCALE = 2.0  # annual curves double the recorded solar
INVERSION_RESOLUTION_GWC = 0.1

_SLOPE_TOL = 1e-7


class TargetUnreachableError(ValueError):
    """Requested mean output exceeds what the curve saturates at."""


@dataclass(frozen=True)
class CurveRequest:
    """One curve to evaluate: a capacity grid plus exactly one family parameter.

    solar_scale is the effective multiplier on metered solar for this run
    (applied relative to whatever scale the year was normalized with, so it
    never compounds); 0 disables solar entirely.
    """

    year: NormalizedYear
    capacities_gwc: tuple[float, ...] = DEFAULT_CAPACITY_GRID_GWC
    headroom_gwe: float | None = None
    bev: BevFleetSpec | None = None
    base_generation_gwe: float = DEFAULT_BASE_GENERATION_GWE
    solar_scale: float = ANNUAL_SOLAR_SCALE

    def __post_init__(self):
        caps = tuple(float(c) for c in self.capacities_gwc)
        object.__setattr__(self, "capacities_gwc", caps)
        if not caps or not all(np.isfinite(c) and c > 0 for c in caps):
            raise ValueError("capacities must be finite and positive")
        if any(b <= a for a, b in zip(caps, caps[1:])):
            raise ValueError("capacities must be strictly increasing")
        if caps[-1] > MAX_CAPACITY_GWC:
            raise ValueError(f"capacities must be <= {MAX_CAPACITY_GWC:,.0f} GWc")
        if (self.headroom_gwe is None) == (self.bev is None):
            raise ValueError("set exactly one of headroom_gwe or bev")
        if not (np.isfinite(self.solar_scale) and self.solar_scale >= 0):
            raise ValueError("solar_scale must be finite and >= 0")

    @property
    def family_label(self) -> str:
        if self.headroom_gwe is not None:
            return f"headroom={self.headroom_gwe:g}"
        return f"bev={self.bev.fleet_size_millions:g}M"


@dataclass(frozen=True)
class CharacteristicCurve:
    """Annual mean wind output per fleet size; validated monotone and concave."""

    capacities_gwc: np.ndarray
    mean_wind_gwe: np.ndarray
    label: str = ""

    def __post_init__(self):
        caps = np.array(self.capacities_gwc, dtype=float)
        vals = np.array(self.mean_wind_gwe, dtype=float)
        caps.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "capacities_gwc", caps)
        object.__setattr__(self, "mean_wind_gwe", vals)
        if caps.size == 0 or caps.size != vals.size:
            raise ValueError("curve needs equal-length capacity and value arrays")
        if not (np.all(np.isfinite(caps)) and np.all(np.isfinite(vals))):
            raise ValueError("curve capacities and values must be finite")
        if np.any(caps <= 0) or np.any(np.diff(caps) <= 0):
            raise ValueError("capacities must be positive and strictly increasing")
        if np.any(vals < 0):
            raise ValueError("curve values must be >= 0")
        value_tol = _SLOPE_TOL * max(1.0, float(np.abs(vals).max()))
        if np.any(np.diff(vals) < -value_tol):
            raise ValueError("curve must be nondecreasing in capacity")
        # concavity through the origin: successive secant slopes never increase
        slopes = np.diff(np.concatenate([[0.0], vals])) / np.diff(
            np.concatenate([[0.0], caps])
        )
        slope_tol = _SLOPE_TOL * max(1.0, float(np.abs(slopes).max()))
        if np.any(np.diff(slopes) > slope_tol):
            raise ValueError("curve must be concave (nonincreasing marginal gain)")

    def value_at(self, capacity_gwc: float) -> float:
        """Piecewise-linear interpolation, anchored through the origin."""
        caps = np.concatenate([[0.0], self.capacities_gwc])
        vals = np.concatenate([[0.0], self.mean_wind_gwe])
        return float(np.interp(capacity_gwc, caps, vals))


def _dispatch_inputs(req: CurveRequest) -> tuple[NormalizedYear, DispatchConfig]:
    """The request's year at its solar scale, and its dispatch: a headroom
    family caps at real-time demand, a BEV family at each week's level."""
    year = req.year
    factor = req.solar_scale / year.solar_scale
    if abs(factor - 1.0) >= 1e-12:
        year = replace(year, solar=year.solar * factor, solar_scale=req.solar_scale)
    if req.headroom_gwe is not None:
        return year, DispatchConfig(year.mean_demand_gwe - req.headroom_gwe)
    return year, DispatchConfig(req.base_generation_gwe, weekly_levels(year.demand, req.bev))


def annual_curve(req: CurveRequest) -> CharacteristicCurve:
    """Dispatch the year once at each capacity on the request grid."""
    year, cfg = _dispatch_inputs(req)
    ref = year.reference_capacity_gwc
    return CharacteristicCurve(
        capacities_gwc=np.array(req.capacities_gwc),
        mean_wind_gwe=np.array(
            [dispatch_week(year, c, cfg, ref).mean_wind_used_gwe for c in req.capacities_gwc]
        ),
        label=req.family_label,
    )


def curve_from_histogram(
    hist: WindHistogram,
    capacity_gwc: float,
    headroom_gwe: float,
    reference_capacity_gwc: float | None = None,
) -> float:
    """Histogram approximation of a curve point (solar-free by construction).

    Each band's center is scaled to the target capacity and capped at the
    headroom; the probability-weighted mean is the approximate annual output.
    Diverges from the time-series curve as solar grows, since both fleets
    share the same headroom.
    """
    ref = reference_capacity_gwc if reference_capacity_gwc is not None else hist.capacity_gwc
    if ref is None or ref <= 0:
        raise ValueError("histogram reference capacity unknown; pass reference_capacity_gwc")
    if capacity_gwc <= 0:
        raise ValueError("capacity must be > 0")
    scaled = hist.bin_centers_gwe * (capacity_gwc / ref)
    return float(np.sum(hist.percent / 100.0 * np.minimum(scaled, headroom_gwe)))


def invert_curve(
    curve: CharacteristicCurve,
    required_gwe: float,
    resolution_gwc: float = INVERSION_RESOLUTION_GWC,
) -> float:
    """Smallest fleet size whose curve value reaches required_gwe.

    The root is solved exactly on the first linear piece of the
    interpolation (anchored through the origin) that reaches the target,
    then snapped up to the resolution grid so the returned capacity is
    guaranteed sufficient. A target within 1e-12 above the plateau returns
    the last capacity.
    """
    caps, vals = curve.capacities_gwc, curve.mean_wind_gwe
    plateau = float(vals[-1])
    if required_gwe > plateau + 1e-12:
        raise TargetUnreachableError(
            f"target unreachable; curve saturates at {plateau:.3f} GWe"
        )
    if required_gwe <= 0:
        return 0.0

    # a scan, not searchsorted: plateau values may dip within the curve's tolerance
    reached = np.flatnonzero(vals >= required_gwe)
    if reached.size == 0:
        return _snap_up(float(caps[-1]), resolution_gwc)
    i = reached[0]
    c0, v0 = (caps[i - 1], vals[i - 1]) if i else (0.0, 0.0)
    root = c0 + (required_gwe - v0) * (caps[i] - c0) / (vals[i] - v0)
    return _snap_up(float(root), resolution_gwc)


def invert_annual_curve(
    req: CurveRequest,
    required_gwe: float,
    resolution_gwc: float = INVERSION_RESOLUTION_GWC,
) -> float:
    """Smallest fleet size whose annual curve reaches required_gwe, exactly.

    The exact root of the request's annual curve (see _annual_root), snapped
    up to the resolution grid. The capacity grid only brackets the root and
    bounds the answer: a target above the curve's value at the grid's top
    raises TargetUnreachableError.
    """
    if required_gwe <= 0:
        return 0.0
    return _snap_up(_annual_root(req, required_gwe), resolution_gwc)


def _annual_root(req: CurveRequest, required_gwe: float) -> float:
    """The capacity c at which the annual curve first reaches required_gwe > 0.

    Over the year's n samples the curve is f(c) = mean_i min(h_i, wind_i·c/ref)
    with h_i = max(dispatch.headroom_i, 0): the dispatch_week rule, concave
    and piecewise linear with a breakpoint at each c_i = h_i·ref/wind_i. A
    bisection over the capacity grid finds the least grid capacity where f
    reaches the target; then only the breakpoints inside the segment below it
    are sorted, and the linear piece that holds the root is solved. In units
    of s = c/ref the sum over samples on a piece is H + s·W: H sums h_i over
    saturated samples, W sums wind_i over the rest.
    """
    year, cfg = _dispatch_inputs(req)
    room = np.maximum(headroom(year, cfg), 0.0)
    wind, n, buf = year.wind, year.wind.size, np.empty(year.wind.size)
    ref = year.reference_capacity_gwc

    def total(capacity: float) -> float:
        return float(np.minimum(room, np.multiply(wind, capacity / ref, out=buf), out=buf).sum())

    caps = req.capacities_gwc
    plateau = total(caps[-1]) / n
    if required_gwe > plateau + 1e-12:
        raise TargetUnreachableError(f"target unreachable; curve saturates at {plateau:.3f} GWe")
    target = required_gwe * n
    # f is nondecreasing, so the grid totals are sorted
    i = bisect.bisect_left(caps, target, hi=len(caps) - 1, key=total)
    lo, hi = (caps[i - 1] if i else 0.0), caps[i]

    s_lo, s_hi = lo / ref, hi / ref
    below_hi = room < np.multiply(wind, s_hi, out=buf)
    saturated = room <= np.multiply(wind, s_lo, out=buf)
    inner = below_hi & ~saturated
    h, w = room[inner], wind[inner]
    order = np.argsort(h / w)
    h, w = h[order], w[order]
    # piece j runs up to ends[j]; H[j] and W[j] hold once the first j
    # breakpoints are passed
    ends = np.append(h / w, s_hi)
    H = room.sum(where=saturated) + np.concatenate([[0.0], np.cumsum(h)])
    W = wind.sum(where=~saturated) - np.concatenate([[0.0], np.cumsum(w)])
    reached = np.flatnonzero(H + ends * W >= target)
    if reached.size == 0:  # the target is within rounding of the total at hi
        return hi
    j = reached[0]
    return float((target - H[j]) / W[j]) * ref


def _snap_up(capacity_gwc: float, resolution_gwc: float) -> float:
    """The least multiple k·resolution at or above capacity (1e-9 GWc slack).

    Returned as the double nearest k·resolution, so a 0.1 GWc step reads
    42.9, not 42.900000000000006.
    """
    k = np.ceil((capacity_gwc - 1e-9) / resolution_gwc)
    return round(float(k) * resolution_gwc, 12)


def write_curves_csv(curves: Sequence[CharacteristicCurve], path: str | Path) -> None:
    write_csv(
        path,
        ["capacity_gwc", "mean_wind_gwe", "family_label"],
        [
            [c for curve in curves for c in curve.capacities_gwc.tolist()],
            [v for curve in curves for v in curve.mean_wind_gwe.tolist()],
            [curve.label for curve in curves for _ in curve.capacities_gwc],
        ],
    )
