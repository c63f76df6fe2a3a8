"""Batch command line: one subcommand per reproducible artifact.

Subcommands: ingest (validation only), histogram, curves, bev, lull, table2,
one record each in COMMANDS: the setting keys it reads (those with a flag are
its flags), its own defaults and its compute function. A command reads only
the keys that change its results. The parser, the known config keys, the
checks and the run manifest derive from that table.
Settings resolve flag > config file > default. Config files are plain
``key = value`` text; lists are comma-separated, capacity lists also accept
``start:stop:step``, and an optional number left empty is unset. Every key a
command reads is checked before the input is read, and is recorded in its
manifest (all but out_dir) in config syntax, so the manifest less its version,
command, input_sha256 and created_utc lines reruns it as a config file. Exit
codes: 0 ok, 1 simulation error, 2 input error, 3 configuration error
(including a result file that cannot be written).
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from decimal import Decimal
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .bev import (
    BevFleetSpec,
    consumption_profile,
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
    capacity_grid,
    write_curves_csv,
)
from .dispatch import MAX_POWER_GWE, write_dispatch_csv
from .ingest import (
    DEFAULT_COLUMNS, SAMPLES_PER_WEEK, WEEKS_PER_YEAR, GridSeries, IngestError, canonicalize,
    cut_year, parse_csv, split_weeks,
)
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
    NormalizedYear,
    ScalingSpec,
    extrapolate_wind,
    normalize,
    wind_histogram,
    write_histogram_csv,
)

DEFAULT_HEADROOMS_GWE = (20.0, 25.0, 30.0, 35.0)
DEFAULT_FLEET_SIZE_M = 35.0
DEFAULT_FLEET_SIZES_M = (15.0, 20.0, 25.0, 30.0, 35.0)
DEFAULT_CURVE_FAMILY_FLEETS_M = (0.0, 15.0, 20.0, 25.0, 30.0, 35.0)
MAX_RANGE_VALUES = 10_000  # most values one start:stop:step range may give
# the mean demand (GW) a command's input may have: the model's defaults mean
# nothing below 1 GW, and above 5,000 GW a fleet's mean power no longer keeps a
# week's level within dispatch.MAX_POWER_GWE; a file in kW or GW falls outside
MEAN_DEMAND_GW = (1.0, 5000.0)

_SPECS = (ScalingSpec, BevFleetSpec, ScenarioConstants)
_PATH_KEYS = ("input", "out_dir", "columns")  # read by every command
# the flag of each setting key that has one; --config is the one flag that is no setting
_FLAGS = {
    "input": "--input", "config": "--config", "out_dir": "--out-dir", "columns": "--columns",
    "solar_scale": "--solar-scale", "base_generation_gwe": "--base-gen",
    "capacities_gwc": "--capacities", "headrooms_gwe": "--headrooms",
    "fleet_sizes_millions": "--fleet-sizes", "fleet_size_millions": "--fleet-size",
    "weeks": "--weeks",
}
_HELP = {
    "input": "5-minute records CSV (MW)",
    "config": "key = value config file",
    "out_dir": "output directory (default: out)",
    "columns": "column remap, e.g. timestamp=ts,demand=d",
}
# the shared defaults; a command's own (Command.defaults) override them
_DEFAULTS = {
    **{f.name: f.default for spec in _SPECS for f in fields(spec)},
    "fleet_size_millions": DEFAULT_FLEET_SIZE_M,  # BevFleetSpec has no default for it
    "input": None,
    "out_dir": "out",
    "columns": DEFAULT_COLUMNS,
    "base_generation_gwe": DEFAULT_BASE_GENERATION_GWE,
    "capacities_gwc": DEFAULT_CAPACITY_GRID_GWC,
    "headrooms_gwe": DEFAULT_HEADROOMS_GWE,
}


_COMMENT = re.compile(r"(?:^|\s)#")


class ConfigError(Exception):
    """Bad flag, bad config file, or inconsistent settings."""


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse hook
        raise ConfigError(message)


def load_config_file(path: str | Path) -> dict[str, str]:
    """Parse a plain key = value config file; unknown and repeated keys are fatal.

    ``#`` starts a comment at the start of a line or after whitespace, so a
    value such as ``run#1.csv`` is read whole."""
    values: dict[str, str] = {}
    linenos: dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8-sig")  # a byte-order mark is skipped
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or a NUL byte in the path
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, maxsplit=1)[0].strip()
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


def _finite(value: str, key: str) -> float:
    try:
        number = float(value)
    except ValueError as exc:
        raise ConfigError(f"cannot parse {key} from {value!r}") from exc
    if not np.isfinite(number):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    return number


def _number(text: str, key: str) -> float | None:
    """One finite number; empty text unsets a key whose default is None."""
    if not text.strip() and key in _DEFAULTS and _DEFAULTS[key] is None:
        return None
    return _finite(text, key)


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


def _capacities(text: str, key: str) -> tuple[float, ...]:
    capacities = _parse_float_list(text, key)
    return _valid(capacity_grid, capacities) if capacities else ()  # _resolve names an empty list


def _powers(values: list[float], key: str) -> list[float]:
    """``values``, GWe each, bounded as DispatchConfig bounds base generation."""
    if any(abs(v) > MAX_POWER_GWE for v in values):
        raise ConfigError(
            f"{key} must be between {-MAX_POWER_GWE:,.0f} and {MAX_POWER_GWE:,.0f} GWe"
        )
    return values


def _weeks(text: str, key: str) -> list[int]:
    weeks = _parse_float_list(text, key)
    for n, w in enumerate(weeks):
        if w != int(w):
            raise ConfigError(f"week index {w:g} is not a whole number")
        if not 1 <= w <= 52:
            raise ConfigError(f"week index {w:g} out of range 1..52")
        if w in weeks[:n]:
            raise ConfigError(f"week index {w:g} given twice")
    return [int(w) for w in weeks]


def _parse_columns(text: str, key: str) -> dict[str, str]:
    """The full logical -> file column mapping; unnamed columns keep their defaults."""
    mapping = dict(DEFAULT_COLUMNS)
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ConfigError(f"column mapping entries look like logical=file, got {part!r}")
        logical, actual = (p.strip() for p in part.split("=", 1))
        if logical not in DEFAULT_COLUMNS:
            raise ConfigError(f"unknown logical column {logical!r}")
        mapping[logical] = actual
    names = list(mapping.values())
    for name in names:
        if names.count(name) > 1:
            raise ConfigError(f"column mapping names file column {name!r} more than once")
    return mapping


# every other key is one number (_number)
_PARSERS = {
    "input": lambda text, key: text,
    "out_dir": lambda text, key: text,
    "columns": _parse_columns,
    "capacities_gwc": _capacities,
    "base_generation_gwe": lambda text, key: _powers([_finite(text, key)], key)[0],
    "headrooms_gwe": lambda text, key: _powers(_parse_float_list(text, key), key),
    "fleet_sizes_millions": _parse_float_list,
    "weeks": _weeks,
}


def _config_text(value: object) -> str:
    """``value`` as a config file writes it; it parses back to ``value``."""
    if value is None:
        return ""
    if isinstance(value, dict):
        return ", ".join(f"{k}={v}" for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return ", ".join(map(str, value))
    return str(value)


@dataclass(frozen=True)
class Command:
    """One subcommand. ``compute(settings, series, out)`` writes its artifacts
    and prints its report; ingest's gets no output directory."""

    help: str
    compute: Callable[[dict, GridSeries, Path | None], None]
    reads: tuple[str, ...] = ()  # setting keys it reads beyond _PATH_KEYS
    defaults: dict[str, object] = field(default_factory=dict)
    may_be_empty: tuple[str, ...] = ()  # list keys that may resolve to no value

    @property
    def keys(self) -> tuple[str, ...]:
        """Every setting key the command reads."""
        return (*_PATH_KEYS, *self.reads)


def _fields(spec_class) -> tuple[str, ...]:
    return tuple(f.name for f in fields(spec_class))


def _spec(spec_class, s: dict[str, object], **given):
    """A ``spec_class`` from ``given`` and the settings in ``s`` named after its
    other fields; a field the command does not read keeps its dataclass default."""
    return spec_class(**{k: s[k] for k in _fields(spec_class) if k in s}, **given)


def _valid(build, *args, **kwargs):
    """``build(*args, **kwargs)``, with its ValueError as a configuration error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(cmd: Command, text: dict[str, str]) -> dict[str, object]:
    """Every key ``cmd`` reads, parsed from ``text`` or defaulted, and checked."""
    defaults = {**_DEFAULTS, **cmd.defaults}
    s = {
        key: _PARSERS.get(key, _number)(text[key], key) if key in text else defaults[key]
        for key in cmd.keys
    }
    if not s["input"]:
        raise ConfigError("no input file given (use --input or the config file)")
    for key, value in s.items():
        if isinstance(value, (list, tuple)) and not value and key not in cmd.may_be_empty:
            raise ConfigError(f"{key} list is empty")
    for spec in _SPECS:  # checked when the command reads any of its fields
        if not any(k in s for k in _fields(spec)):
            continue
        if spec is BevFleetSpec and "fleet_size_millions" not in s:
            # one fleet per family size, or an empty fleet when there is none
            for size in s["fleet_sizes_millions"] or [0.0]:
                _valid(_spec, spec, s, fleet_size_millions=size)
        else:
            _valid(_spec, spec, s)
    return s


def _existing(input_path: str | Path) -> str | Path:
    if not Path(input_path).exists():
        raise IngestError(f"input file not found: {input_path}")
    return input_path


def _in_mw(series: GridSeries) -> GridSeries:
    """``series``, when its mean demand is one a grid read from MW values has."""
    mean = float(series.demand.mean())
    if not MEAN_DEMAND_GW[0] <= mean <= MEAN_DEMAND_GW[1]:
        raise IngestError(f"mean demand is {mean:.6g} GW, outside {MEAN_DEMAND_GW[0]:g}-"
                          f"{MEAN_DEMAND_GW[1]:,.0f} GW: input values must be in MW")
    return series


def load_series(input_path: str | Path, columns: dict[str, str] | None = None) -> GridSeries:
    """Parse and canonicalize one input file, read once; the series carries
    the SHA-256 of the bytes parsed. A mean demand outside MEAN_DEMAND_GW is
    an input error."""
    return _in_mw(canonicalize(parse_csv(_existing(input_path), columns), source=str(input_path)))


def _load_series(s: dict[str, object], series: GridSeries | None) -> GridSeries:
    """``series``, or else the series read from the input; either carries the
    input's SHA-256 before anything is written, and has a mean demand within
    MEAN_DEMAND_GW."""
    if series is None:
        return load_series(s["input"], s["columns"])
    _in_mw(series)
    if series.input_sha256 is None:
        return replace(series, input_sha256=sha256_of(_existing(s["input"])))
    return series


def _out_dir(s: dict[str, object]) -> Path:
    """The output directory, not yet made; anything but a directory where it
    or a parent of it would be is a configuration error, and so is none."""
    if not s["out_dir"]:
        raise ConfigError("no output directory given (use --out-dir or the config file)")
    if "\0" in s["out_dir"]:  # no file system takes one; mkdir would raise ValueError
        raise ConfigError(f"output directory {s['out_dir']!r} holds a NUL byte")
    out = Path(s["out_dir"])
    found = next((p for p in (out, *out.parents) if p.exists()), None)
    if found is not None and not found.is_dir():
        raise ConfigError(f"cannot create output directory {out}: {found} is not a directory")
    return out


def _year(s: dict, series: GridSeries) -> NormalizedYear:
    """The normalized year, for the commands that read wind."""
    return normalize(series, _spec(ScalingSpec, s))


def _ingest(s: dict, series: GridSeries, out: None) -> None:
    cut_year(series)  # under 52 weeks is an input error; a remainder is logged
    print(f"input: {s['input']}")
    print(f"samples: {series.n_samples} ({series.n_samples / SAMPLES_PER_WEEK:.2f} weeks of data)")
    print(f"weeks usable: {WEEKS_PER_YEAR}")
    for note in series.provenance:
        print(f"provenance: {note}")
    print(f"mean demand: {series.demand.mean():.2f} GW")
    print(f"mean metered wind: {series.wind_metered.mean():.2f} GW")
    print(f"mean solar: {series.solar.mean():.2f} GW")


def _histogram(s: dict, series: GridSeries, out: Path) -> None:
    reference = s["reference_capacity_gwc"]
    trace = extrapolate_wind(_year(s, series), reference)
    hist = wind_histogram(trace, 1.0, capacity_gwc=reference)
    write_histogram_csv(hist, out / "fig1_histogram.csv")
    low_band = float(hist.percent[hist.bin_lower_gwe < 1.0].sum())
    print(f"wrote {out / 'fig1_histogram.csv'}")
    print(f"share of year in the 0-1 GWe band: {low_band:.2f}%")


def _curves(s: dict, series: GridSeries, out: Path) -> None:
    year = _year(s, series)
    headrooms, fleet_sizes = s["headrooms_gwe"], s["fleet_sizes_millions"]
    families = [{"headroom_gwe": h} for h in headrooms] + [
        {"bev": _spec(BevFleetSpec, s, fleet_size_millions=size),
         "base_generation_gwe": s["base_generation_gwe"]}
        for size in fleet_sizes
    ]
    curves = [
        annual_curve(CurveRequest(
            year=year, capacities_gwc=s["capacities_gwc"], solar_scale=s["solar_scale"], **family
        ))
        for family in families
    ]
    write_curves_csv(curves[:1], out / "fig5_curve.csv")
    write_curves_csv(curves[:len(headrooms)], out / "fig7_families.csv")
    if fleet_sizes:
        write_curves_csv(curves[len(headrooms):], out / "fig12_families.csv")
    print(f"wrote {out / 'fig5_curve.csv'}, {out / 'fig7_families.csv'}"
          + (f", {out / 'fig12_families.csv'}" if fleet_sizes else ""))


def _bev(s: dict, series: GridSeries, out: Path) -> None:
    """The fleet levels demand alone, so the weeks are the cut year's, not normalized."""
    spec = _spec(BevFleetSpec, s)
    year = cut_year(series)
    weeks = split_weeks(year.start_time, year.demand, year.wind_metered, year.solar)
    for n, wk in enumerate(s["weeks"]):
        week = weeks[wk - 1]
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


def _lull(s: dict, series: GridSeries, out: Path) -> None:
    year = _year(s, series)
    spec, base = _spec(BevFleetSpec, s), s["base_generation_gwe"]
    for n, wk in enumerate(s["weeks"]):
        week = year.weeks[wk - 1]
        rep = lull_report(week, spec, base, s["capacities_gwc"], year.reference_capacity_gwc)
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


def _table2(s: dict, series: GridSeries, out: Path) -> None:
    rows = build_table2(
        _year(s, series),
        s["fleet_sizes_millions"],
        _spec(ScenarioConstants, s),
        capacities_gwc=s["capacities_gwc"],
        base_generation_gwe=s["base_generation_gwe"],
        solar_scale=s["solar_scale"],
        fleet=_spec(BevFleetSpec, s, fleet_size_millions=0.0),  # each row sets its size
    )
    write_table2_csv(rows, out / "table2.csv")
    print(format_table2(rows))
    print(f"wrote {out / 'table2.csv'}")


COMMANDS = {
    "ingest": Command("validate an input file, write nothing", _ingest),
    "histogram": Command(
        "wind generation-band histogram",
        _histogram,
        ("reference_capacity_gwc", "target_capacity_factor"),
    ),
    "curves": Command(
        "annual characteristic-curve families",
        _curves,
        ("solar_scale", "base_generation_gwe", "capacities_gwc", "headrooms_gwe",
         "fleet_sizes_millions", "target_capacity_factor", "daily_energy_per_vehicle_kwh"),
        {"solar_scale": ANNUAL_SOLAR_SCALE, "fleet_sizes_millions": DEFAULT_CURVE_FAMILY_FLEETS_M},
        may_be_empty=("fleet_sizes_millions",),  # headroom families only
    ),
    "bev": Command(
        "weekly leveling schedule and SOC trajectory",
        _bev,
        ("weeks", *_fields(BevFleetSpec)),
        {"weeks": (17,)},
    ),
    "lull": Command(
        "stressed-week leveled dispatch report",
        _lull,
        ("solar_scale", "base_generation_gwe", "weeks", "capacities_gwc", "fleet_size_millions",
         "target_capacity_factor", "daily_energy_per_vehicle_kwh"),
        {"base_generation_gwe": DEFAULT_LULL_BASE_GENERATION_GWE, "weeks": (3,)},
    ),
    "table2": Command(
        "wind fleet sizes needed per BEV fleet size",
        _table2,
        ("solar_scale", "base_generation_gwe", "capacities_gwc", "fleet_sizes_millions",
         "target_capacity_factor", "daily_energy_per_vehicle_kwh", "battery_per_vehicle_kwh",
         *_fields(ScenarioConstants)),
        {"solar_scale": ANNUAL_SOLAR_SCALE, "fleet_sizes_millions": DEFAULT_FLEET_SIZES_M},
    ),
}
_KNOWN_CONFIG_KEYS = {key for cmd in COMMANDS.values() for key in cmd.keys}


@functools.cache
def _build_parser() -> _ArgumentParser:
    """The one parser of every subcommand; parse_args leaves it as it was."""
    parser = _ArgumentParser(
        prog="windfleet",
        description="Grid + wind fleet + V2G BEV fleet scenario simulator",
    )
    parser.add_argument("--version", action="version", version=f"windfleet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        for key in ("input", "config", "out_dir", "columns", *cmd.reads):
            if key in _FLAGS:
                p.add_argument(_FLAGS[key], dest=key, help=_HELP.get(key))
        if name == "ingest":
            p.add_argument("--check", action="store_true", help="validation only (default)")
    return parser


def _settings(args: argparse.Namespace) -> dict[str, str]:
    """Config file values overridden by the flags given, all as text."""
    settings = load_config_file(args.config) if args.config else {}
    for key, value in vars(args).items():
        if value is not None and key not in ("command", "config", "check"):
            settings[key] = value
    return settings


def _execute(name: str, s: dict[str, object], series: GridSeries | None) -> None:
    """Load the input and run the command on it; every command but ingest
    then makes the output directory and writes its artifacts and its run
    manifest into it. An input that fails leaves no directory behind, and
    a run that fails later removes each directory it made that is still empty."""
    out = None if name == "ingest" else _out_dir(s)
    series = _load_series(s, series)
    if out is None:
        COMMANDS[name].compute(s, series, out)
        return
    made = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    try:
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
        COMMANDS[name].compute(s, series, out)
        write_run_manifest(
            out / f"run_manifest_{name}.txt",
            command=name,
            input_path=s["input"],
            config_items={k: _config_text(v) for k, v in s.items() if k not in ("input", "out_dir")},
            version=__version__,
            input_sha256=series.input_sha256,
        )
    except BaseException:
        for d in made:
            if not os.path.isdir(d):  # the mkdir failed before it made this one
                continue
            try:
                d.rmdir()
            except OSError:  # not empty: it holds what the run wrote before it failed
                break
        raise


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
        _execute(args.command, _resolve(COMMANDS[args.command], _settings(args)), series)
        return 0
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
