"""Batch command line: one subcommand per reproducible artifact.

Subcommands: ingest (validation only), histogram, curves, bev, lull, table2.
Settings resolve flag > config file > built-in default. Config files are
plain ``key = value`` text; lists are comma-separated and capacity lists also
accept ``start:stop:step``. The config keys are the input, output and sweep
settings plus every field of ScalingSpec, BevFleetSpec and ScenarioConstants,
whose defaults are those of the dataclasses. Flag and config values are text,
parsed the same way. Exit codes: 0 ok, 1 simulation error, 2 input error,
3 configuration error (including a result file that cannot be written).
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields, replace
from decimal import Decimal
from pathlib import Path
from typing import Sequence

import numpy as np

from . import __version__
from .bev import (
    BevFleetSpec,
    consumption_profile,
    fleet_aggregates,
    leveling_schedule,
    soc_trajectory,
    write_bev_csv,
)
from .curves import (
    ANNUAL_SOLAR_SCALE,
    DEFAULT_BASE_GENERATION_GWE,
    DEFAULT_CAPACITY_GRID_GWC,
    CurveRequest,
    annual_curve,
    write_curves_csv,
)
from .dispatch import write_dispatch_csv
from .ingest import WEEKS_PER_YEAR, GridSeries, IngestError, canonicalize, cut_year, parse_csv
from .report import (
    DEFAULT_LULL_BASE_GENERATION_GWE,
    ScenarioConstants,
    build_table2,
    format_table2,
    lull_report,
    sha256_of,
    write_lull_csv,
    write_run_manifest,
    write_table2_csv,
)
from .scaling import (
    ScalingSpec,
    extrapolate_wind,
    normalize,
    wind_histogram,
    write_histogram_csv,
)

log = logging.getLogger(__name__)

DEFAULT_HEADROOMS_GWE = (20.0, 25.0, 30.0, 35.0)
DEFAULT_FLEET_SIZE_M = 35.0
DEFAULT_FLEET_SIZES_M = (15.0, 20.0, 25.0, 30.0, 35.0)
DEFAULT_CURVE_FAMILY_FLEETS_M = (0.0, 15.0, 20.0, 25.0, 30.0, 35.0)
MAX_RANGE_VALUES = 10_000  # most values one start:stop:step range may give

_KNOWN_CONFIG_KEYS = {
    f.name for spec in (ScalingSpec, BevFleetSpec, ScenarioConstants) for f in fields(spec)
} | {
    "input",
    "out_dir",
    "columns",
    "base_generation_gwe",
    "capacities_gwc",
    "headrooms_gwe",
    "fleet_sizes_millions",
    "weeks",
}


class ConfigError(Exception):
    """Bad flag, bad config file, or inconsistent settings."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigError(message)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a plain key = value config file; unknown and repeated keys are fatal."""
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KNOWN_CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in linenos:
            raise ConfigError(f"{path}:{lineno}: {key!r} already set on line {linenos[key]}")
        linenos[key] = lineno
        values[key] = value
    return values


def _finite(value: str | float, key: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} from {value!r}") from exc
    if not np.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _float_list(s: dict[str, str], key: str, default: Sequence[float]) -> list[float]:
    return _parse_float_list(s[key], key) if key in s else list(default)


def _parse_float_list(text: str, key: str) -> list[float]:
    text = text.strip()
    if not text:
        return []
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"cannot parse {key} from {text!r}: expected start:stop:step")
        start, stop, step = (_finite(p, key) for p in parts)
        if step <= 0:
            raise ConfigError(f"cannot parse {key} from {text!r}: step must be > 0")
        count = (stop + step / 2 - start) / step  # np.arange gives ceil(count) values
        if not count <= MAX_RANGE_VALUES:  # inf for a step of 1e-320
            raise ConfigError(
                f"cannot parse {key} from {text!r}: more than {MAX_RANGE_VALUES:,} values"
            )
        # arange drifts (0.1:0.7:0.1 gives 0.30000000000000004); the values
        # carry no more decimals than the start and step were written with
        decimals = max(_decimals(parts[0]), _decimals(parts[2]))
        return [round(float(v), decimals) for v in np.arange(start, stop + step / 2, step)]
    return [_finite(part, key) for part in text.split(",") if part.strip()]


def _decimals(text: str) -> int:
    return max(0, -Decimal(text.strip()).as_tuple().exponent)


def _parse_columns(text: str) -> dict[str, str]:
    mapping = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"column mapping entries look like logical=file, got {part!r}")
        logical, actual = (p.strip() for p in part.split("=", 1))
        if logical not in ("timestamp", "demand", "wind", "solar"):
            raise ConfigError(f"unknown logical column {logical!r}")
        mapping[logical] = actual
    return mapping


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="windfleet",
        description="Grid + wind fleet + V2G BEV fleet scenario simulator",
    )
    parser.add_argument("--version", action="version", version=f"windfleet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(
        p: argparse.ArgumentParser, *, solar_scale: bool = True, base_gen: bool = False
    ) -> None:
        """The input and output flags, plus the scaling flags the command reads."""
        p.add_argument("--input", help="5-minute records CSV (MW)")
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--out-dir", dest="out_dir", help="output directory (default: out)")
        p.add_argument("--columns", help="column remap, e.g. timestamp=ts,demand=d")
        if solar_scale:
            p.add_argument("--solar-scale", dest="solar_scale")
        if base_gen:
            p.add_argument("--base-gen", dest="base_generation_gwe")

    p_ingest = sub.add_parser("ingest", help="validate an input file, write nothing")
    common(p_ingest, solar_scale=False)
    p_ingest.add_argument("--check", action="store_true", help="validation only (default)")

    p_hist = sub.add_parser("histogram", help="wind generation-band histogram")
    common(p_hist)

    p_curves = sub.add_parser("curves", help="annual characteristic-curve families")
    common(p_curves, base_gen=True)
    p_curves.add_argument("--capacities", dest="capacities_gwc")
    p_curves.add_argument("--headrooms", dest="headrooms_gwe")
    p_curves.add_argument("--fleet-sizes", dest="fleet_sizes_millions")

    p_bev = sub.add_parser("bev", help="weekly leveling schedule and SOC trajectory")
    common(p_bev)
    p_bev.add_argument("--weeks")
    p_bev.add_argument("--fleet-size", dest="fleet_size_millions")

    p_lull = sub.add_parser("lull", help="stressed-week leveled dispatch report")
    common(p_lull, base_gen=True)
    p_lull.add_argument("--weeks")
    p_lull.add_argument("--capacities", dest="capacities_gwc")
    p_lull.add_argument("--fleet-size", dest="fleet_size_millions")

    p_table = sub.add_parser("table2", help="wind fleet sizes needed per BEV fleet size")
    common(p_table, base_gen=True)
    p_table.add_argument("--capacities", dest="capacities_gwc")
    p_table.add_argument("--fleet-sizes", dest="fleet_sizes_millions")

    return parser


def _settings(args: argparse.Namespace) -> dict[str, str]:
    """Config file values overridden by the flags given, all as text."""
    settings = load_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "config", "check"):
            settings[key] = value
    return settings


def _valid(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with its ValueError as a configuration error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _spec(spec_class, s: dict[str, str], **defaults):
    """A ``spec_class`` instance built from the settings named after its fields;
    ``defaults`` stand in for missing ones, then the dataclass's own defaults."""
    values = {f.name: _finite(s[f.name], f.name) for f in fields(spec_class) if f.name in s}
    return _valid(spec_class, **{**defaults, **values})


def _existing(input_path: str | Path) -> str | Path:
    if not Path(input_path).exists():
        raise IngestError(f"input file not found: {input_path}")
    return input_path


def load_series(input_path: str | Path, columns: dict[str, str] | None = None) -> GridSeries:
    """Parse and canonicalize one input file; the series carries the file's SHA-256."""
    series = canonicalize(parse_csv(_existing(input_path), columns), source=str(input_path))
    return replace(series, input_sha256=sha256_of(input_path))


def _load_series(s: dict[str, str], series: GridSeries | None):
    """The input path, and ``series`` or else the series read from it; either
    carries the input's SHA-256 before anything is written."""
    input_path = s.get("input")
    if not input_path:
        raise ConfigError("no input file given (use --input or the config file)")
    if series is None:
        series = load_series(input_path, _parse_columns(s.get("columns", "")))
    elif series.input_sha256 is None:
        series = replace(series, input_sha256=sha256_of(_existing(input_path)))
    return input_path, series


def _load_year(s: dict[str, str], spec: ScalingSpec, series: GridSeries | None):
    """The input path, its SHA-256 and the year."""
    input_path, series = _load_series(s, series)
    return input_path, series.input_sha256, normalize(series, spec)


def _out_dir(s: dict[str, str]) -> Path:
    out = Path(s.get("out_dir", "out"))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


def _base_generation(s: dict[str, str], default: float) -> float:
    return _finite(s.get("base_generation_gwe", default), "base_generation_gwe")


def _capacities(s: dict[str, str]) -> tuple[float, ...]:
    capacities = tuple(_float_list(s, "capacities_gwc", DEFAULT_CAPACITY_GRID_GWC))
    if not capacities:
        raise ConfigError("capacities list is empty")
    if capacities[0] <= 0 or any(b <= a for a, b in zip(capacities, capacities[1:])):
        raise ConfigError("capacities must be positive and strictly increasing")
    return capacities


def _weeks(s: dict[str, str], default: Sequence[int]) -> list[int]:
    weeks = _float_list(s, "weeks", default)
    if not weeks:
        raise ConfigError("weeks list is empty")
    for w in weeks:
        if w != int(w):
            raise ConfigError(f"week index {w:g} is not a whole number")
        if not 1 <= w <= 52:
            raise ConfigError(f"week index {w:g} out of range 1..52")
    return [int(w) for w in weeks]


def _manifest(out: Path, command: str, input_path, digest, resolved: dict) -> None:
    write_run_manifest(
        out / f"run_manifest_{command}.txt",
        command=command,
        input_path=input_path,
        config_items=resolved,
        version=__version__,
        input_sha256=digest,
    )


def cmd_ingest(s: dict[str, str], series: GridSeries | None) -> int:
    input_path, series = _load_series(s, series)
    cut_year(series)  # under 52 weeks is an input error; a remainder is logged
    print(f"input: {input_path}")
    print(f"samples: {series.n_samples} ({series.n_samples / 2016:.2f} weeks of data)")
    print(f"weeks usable: {WEEKS_PER_YEAR}")
    for note in series.provenance:
        print(f"provenance: {note}")
    print(f"mean demand: {series.demand.mean():.2f} GW")
    print(f"mean metered wind: {series.wind_metered.mean():.2f} GW")
    print(f"mean solar: {series.solar.mean():.2f} GW")
    return 0


def cmd_histogram(s: dict[str, str], series: GridSeries | None) -> int:
    spec = _spec(ScalingSpec, s)
    out = _out_dir(s)
    input_path, digest, year = _load_year(s, spec, series)
    trace = extrapolate_wind(year, spec.reference_capacity_gwc)
    hist = wind_histogram(trace, 1.0, capacity_gwc=spec.reference_capacity_gwc)
    write_histogram_csv(hist, out / "fig1_histogram.csv")
    _manifest(out, "histogram", input_path, digest, {
        "reference_capacity_gwc": spec.reference_capacity_gwc,
        "bin_width_gwe": 1.0,
    })
    in_first_band = hist.bin_lower_gwe < 1.0
    low_band = float(hist.percent[in_first_band].sum())
    print(f"wrote {out / 'fig1_histogram.csv'}")
    print(f"share of year in the 0-1 GWe band: {low_band:.2f}%")
    return 0


def cmd_curves(s: dict[str, str], series: GridSeries | None) -> int:
    headrooms = _float_list(s, "headrooms_gwe", DEFAULT_HEADROOMS_GWE)
    if not headrooms:
        raise ConfigError("headrooms list is empty")
    capacities = _capacities(s)
    fleet_sizes = _float_list(s, "fleet_sizes_millions", DEFAULT_CURVE_FAMILY_FLEETS_M)
    base = _base_generation(s, DEFAULT_BASE_GENERATION_GWE)
    # the BEV settings are read, and so checked, only for BEV families
    fleet = (
        _spec(BevFleetSpec, s, fleet_size_millions=DEFAULT_FLEET_SIZE_M) if fleet_sizes else None
    )
    families = [{"headroom_gwe": h} for h in headrooms] + [
        {"bev": _valid(replace, fleet, fleet_size_millions=size), "base_generation_gwe": base}
        for size in fleet_sizes
    ]
    spec = _spec(ScalingSpec, s, solar_scale=ANNUAL_SOLAR_SCALE)
    out = _out_dir(s)

    input_path, digest, year = _load_year(s, spec, series)
    curves = [
        annual_curve(CurveRequest(
            year=year, capacities_gwc=capacities, solar_scale=spec.solar_scale, **family
        ))
        for family in families
    ]
    write_curves_csv(curves[:1], out / "fig5_curve.csv")
    write_curves_csv(curves[:len(headrooms)], out / "fig7_families.csv")
    if fleet_sizes:
        write_curves_csv(curves[len(headrooms):], out / "fig12_families.csv")

    _manifest(out, "curves", input_path, digest, {
        "capacities_gwc": capacities,
        "headrooms_gwe": headrooms,
        "fleet_sizes_millions": fleet_sizes,
        "base_generation_gwe": base,
        "solar_scale": spec.solar_scale,
    })
    print(f"wrote {out / 'fig5_curve.csv'}, {out / 'fig7_families.csv'}"
          + (f", {out / 'fig12_families.csv'}" if fleet_sizes else ""))
    return 0


def cmd_bev(s: dict[str, str], series: GridSeries | None) -> int:
    weeks = _weeks(s, default=[17])
    spec = _spec(BevFleetSpec, s, fleet_size_millions=DEFAULT_FLEET_SIZE_M)
    scale = _spec(ScalingSpec, s)
    out = _out_dir(s)
    input_path, digest, year = _load_year(s, scale, series)

    for n, wk in enumerate(weeks):
        week = year.weeks[wk - 1]
        schedule = leveling_schedule(week, spec)
        consumption = consumption_profile(spec, week)
        trajectory = soc_trajectory(schedule, consumption, spec)
        suffix = "" if n == 0 else f"_w{wk}"
        write_bev_csv(week, schedule, consumption, trajectory,
                      out / f"fig9_schedule{suffix}.csv")
        status = "feasible" if trajectory.feasible else "INFEASIBLE"
        print(
            f"week {wk}: level {schedule.level_gwe:.1f} GWe, "
            f"stored energy range [{trajectory.min_energy_gwh:.1f}, "
            f"{trajectory.max_energy_gwh:.1f}] of {trajectory.storage_capacity_gwh:.0f} GWh "
            f"({status})"
        )

    agg = fleet_aggregates(spec)
    _manifest(out, "bev", input_path, digest, {
        "weeks": weeks,
        "fleet_size_millions": spec.fleet_size_millions,
        "mean_power_gw": agg.mean_power_gw,
        "storage_capacity_gwh": agg.storage_capacity_gwh,
        "solar_scale": scale.solar_scale,
    })
    return 0


def cmd_lull(s: dict[str, str], series: GridSeries | None) -> int:
    weeks = _weeks(s, default=[3])
    capacities = _capacities(s)
    base = _base_generation(s, DEFAULT_LULL_BASE_GENERATION_GWE)
    spec = _spec(BevFleetSpec, s, fleet_size_millions=DEFAULT_FLEET_SIZE_M)
    scale = _spec(ScalingSpec, s)
    out = _out_dir(s)
    input_path, digest, year = _load_year(s, scale, series)

    for n, wk in enumerate(weeks):
        week = year.weeks[wk - 1]
        rep = lull_report(week, spec, base, capacities, year.reference_capacity_gwc)
        suffix = "" if n == 0 else f"_w{wk}"
        write_dispatch_csv(week, rep.dispatch, base, out / f"fig15_gt{suffix}.csv")
        write_lull_csv(rep, out / f"lull_report{suffix}.csv")
        print(
            f"week {wk}: level {rep.level_gwe:.1f} GWe, peak GT {rep.peak_gt_gwe:.1f} GWe, "
            f"mean GT {rep.mean_gt_gwe:.1f} GWe"
        )
        print(
            f"week {wk}: GT energy {rep.gt_energy_gwh:.0f} GWh "
            f"(identically mean GT x 168 h; quoted figures that break this "
            f"identity are not reproducible from the dispatch)"
        )

    _manifest(out, "lull", input_path, digest, {
        "weeks": weeks,
        "capacities_gwc": capacities,
        "base_generation_gwe": base,
        "fleet_size_millions": spec.fleet_size_millions,
        "solar_scale": scale.solar_scale,
    })
    return 0


def cmd_table2(s: dict[str, str], series: GridSeries | None) -> int:
    fleet_sizes = _float_list(s, "fleet_sizes_millions", DEFAULT_FLEET_SIZES_M)
    if not fleet_sizes:
        raise ConfigError("fleet_sizes list is empty")
    for size in fleet_sizes:
        _valid(BevFleetSpec, fleet_size_millions=size)
    capacities = _capacities(s)
    base = _base_generation(s, DEFAULT_BASE_GENERATION_GWE)
    consts = _spec(ScenarioConstants, s)
    spec = _spec(ScalingSpec, s, solar_scale=ANNUAL_SOLAR_SCALE)
    out = _out_dir(s)

    input_path, digest, year = _load_year(s, spec, series)
    rows = build_table2(
        year,
        fleet_sizes,
        consts,
        capacities_gwc=capacities,
        base_generation_gwe=base,
        solar_scale=spec.solar_scale,
    )
    write_table2_csv(rows, out / "table2.csv")
    _manifest(out, "table2", input_path, digest, {
        "fleet_sizes_millions": fleet_sizes,
        "capacities_gwc": capacities,
        "base_generation_gwe": base,
        "solar_scale": spec.solar_scale,
        "baseline_wind_gwe": consts.baseline_wind_gwe,
    })
    print(format_table2(rows))
    print(f"wrote {out / 'table2.csv'}")
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "histogram": cmd_histogram,
    "curves": cmd_curves,
    "bev": cmd_bev,
    "lull": cmd_lull,
    "table2": cmd_table2,
}


def configure_logging() -> None:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit code."""
    configure_logging()
    return run(argv)


def run(argv: Sequence[str] | None, *, series: GridSeries | None = None) -> int:
    """``main`` without the logging set-up; ``series``, when given, is used
    in place of reading ``--input``, which then only names the input in the
    run manifest (and is hashed for it, before any output, when the series
    carries no ``input_sha256``). Every setting is still resolved and checked."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](_settings(args), series)
    except (ConfigError, OSError) as exc:  # OSError: a result file that cannot be written
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    except IngestError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
