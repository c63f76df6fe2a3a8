"""Parse, validate, repair, and segment raw 5-minute grid records.

Input files are CSV with MW values; everything downstream works in GW.
Repairs (gap interpolation, duplicate removal) are conservative and logged:
long outages must fail loudly rather than silently fabricate wind lulls.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

log = logging.getLogger(__name__)

CADENCE_S = 300
SAMPLES_PER_WEEK = 2016  # 7 days at 5-minute cadence
WEEKS_PER_YEAR = 52
SAMPLES_PER_YEAR = WEEKS_PER_YEAR * SAMPLES_PER_WEEK
MAX_GAP_SAMPLES = 12  # one hour of consecutive missing samples
MW_PER_GW = 1000.0

DEFAULT_COLUMNS = {
    "timestamp": "timestamp",
    "demand": "demand",
    "wind": "wind",
    "solar": "solar",
}


class IngestError(Exception):
    """Fatal problem with an input file or record stream."""


@dataclass(frozen=True)
class RawRecord:
    """One file row: UTC timestamp plus demand/wind/solar in MW."""

    timestamp: datetime
    demand_mw: float
    wind_mw: float
    solar_mw: float


@dataclass(frozen=True)
class RowError:
    line: int
    reason: str


def _freeze(array: np.ndarray) -> np.ndarray:
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridSeries:
    """Contiguous 300 s samples of demand, metered wind and solar, in GW."""

    start_time: datetime
    demand: np.ndarray
    wind_metered: np.ndarray
    solar: np.ndarray
    provenance: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))
        object.__setattr__(self, "wind_metered", _freeze(self.wind_metered))
        object.__setattr__(self, "solar", _freeze(self.solar))
        n = self.demand.size
        if n == 0 or self.wind_metered.size != n or self.solar.size != n:
            raise IngestError("series arrays must be non-empty and equal length")
        for name in ("demand", "wind_metered", "solar"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise IngestError(f"non-finite values in {name}")
        if np.any(self.demand <= 0):
            raise IngestError("demand must be > 0 at every sample")
        if np.any(self.wind_metered < 0) or np.any(self.solar < 0):
            raise IngestError("wind and solar must be >= 0 at every sample")

    @property
    def n_samples(self) -> int:
        return self.demand.size

    def timestamp(self, i: int) -> datetime:
        return self.start_time + timedelta(seconds=i * CADENCE_S)


@dataclass(frozen=True)
class WeekSeries:
    """Exactly one week (2016 samples) sliced out of a GridSeries.

    ``wind`` is metered wind for raw weeks and total (embedded-corrected,
    capacity-factor-normalized) wind for weeks inside a NormalizedYear.
    """

    index: int
    start_time: datetime
    demand: np.ndarray
    wind: np.ndarray
    solar: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "demand", _freeze(self.demand))
        object.__setattr__(self, "wind", _freeze(self.wind))
        object.__setattr__(self, "solar", _freeze(self.solar))
        if not (self.demand.size == self.wind.size == self.solar.size == SAMPLES_PER_WEEK):
            raise IngestError(
                f"a week holds exactly {SAMPLES_PER_WEEK} samples, got {self.demand.size}"
            )

    @property
    def n_samples(self) -> int:
        return SAMPLES_PER_WEEK


def _parse_timestamp(text: str) -> datetime:
    ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def parse_csv(
    path: str | Path,
    column_map: dict[str, str] | None = None,
    row_errors: list[RowError] | None = None,
) -> list[RawRecord]:
    """Read raw records from a CSV file with a header row.

    ``column_map`` remaps the logical names timestamp/demand/wind/solar to the
    file's column names. Malformed rows are skipped, logged, and appended to
    ``row_errors`` when a list is supplied; more than 1% malformed rows is
    fatal. A missing mapped column is always fatal.
    """
    columns = dict(DEFAULT_COLUMNS, **(column_map or {}))
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise IngestError(f"cannot open input file: {exc}") from exc

    records: list[RawRecord] = []
    errors: list[RowError] = []
    n_rows = 0
    with fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise IngestError(f"{path}: empty file, no header row")
        missing = [c for c in columns.values() if c not in reader.fieldnames]
        if missing:
            raise IngestError(
                f"{path}: missing column(s) {missing}; file has {reader.fieldnames}"
            )
        for row in reader:
            if all(v is None or not str(v).strip() for v in row.values()):
                continue  # tolerate stray blank/comma-only lines
            n_rows += 1
            line = reader.line_num
            try:
                ts = _parse_timestamp(row[columns["timestamp"]])
                demand = float(row[columns["demand"]])
                wind = float(row[columns["wind"]])
                solar = float(row[columns["solar"]])
            except (TypeError, ValueError) as exc:
                errors.append(RowError(line, f"unparseable field: {exc}"))
                continue
            if not all(np.isfinite(v) for v in (demand, wind, solar)):
                errors.append(RowError(line, "non-finite value"))
                continue
            if demand <= 0:
                errors.append(RowError(line, f"demand must be > 0, got {demand}"))
                continue
            if wind < 0 or solar < 0:
                errors.append(RowError(line, "wind and solar must be >= 0"))
                continue
            records.append(RawRecord(ts, demand, wind, solar))

    if row_errors is not None:
        row_errors.extend(errors)
    for err in errors[:20]:
        log.warning("%s line %d: %s", path.name, err.line, err.reason)
    if len(errors) > 20:
        log.warning("%s: %d further row errors suppressed", path.name, len(errors) - 20)
    if n_rows and len(errors) > 0.01 * n_rows:
        raise IngestError(
            f"{path}: {len(errors)} of {n_rows} rows malformed (more than 1%)"
        )
    return records


def canonicalize(records: Sequence[RawRecord], source: str = "<records>") -> GridSeries:
    """Sort, de-duplicate, gap-fill and convert raw records to a GridSeries.

    Duplicated timestamps keep the first occurrence. Gaps of up to one hour
    (12 samples) are filled by linear interpolation; anything longer is fatal,
    as is any timestamp off the 300 s grid. All repairs are recorded in the
    provenance and logged.
    """
    if not records:
        raise IngestError("no records to canonicalize")
    ordered = sorted(records, key=lambda r: r.timestamp)

    deduped: list[RawRecord] = []
    dropped = 0
    last_ts: datetime | None = None
    for rec in ordered:
        if last_ts is not None and rec.timestamp == last_ts:
            dropped += 1
            continue
        deduped.append(rec)
        last_ts = rec.timestamp

    t0 = deduped[0].timestamp
    offsets = np.array([(r.timestamp - t0).total_seconds() for r in deduped])
    misaligned = offsets % CADENCE_S != 0
    if np.any(misaligned):
        bad = deduped[int(np.argmax(misaligned))]
        raise IngestError(
            f"non-{CADENCE_S} s cadence at {bad.timestamp.isoformat()}"
        )
    idx = (offsets // CADENCE_S).astype(np.int64)

    gaps = np.diff(idx) - 1
    n_gaps = int(np.count_nonzero(gaps))
    if n_gaps:
        worst_at = int(np.argmax(gaps))
        worst = int(gaps[worst_at])
        if worst > MAX_GAP_SAMPLES:
            gap_start = deduped[worst_at].timestamp + timedelta(seconds=CADENCE_S)
            raise IngestError(
                f"gap exceeds 1 hour: {worst} consecutive samples missing "
                f"from {gap_start.isoformat()}"
            )

    n = int(idx[-1]) + 1
    full = np.arange(n)
    demand = np.interp(full, idx, [r.demand_mw for r in deduped]) / MW_PER_GW
    wind = np.interp(full, idx, [r.wind_mw for r in deduped]) / MW_PER_GW
    solar = np.interp(full, idx, [r.solar_mw for r in deduped]) / MW_PER_GW
    interpolated = n - len(deduped)

    provenance = [f"source: {source}"]
    if dropped:
        provenance.append(f"dropped {dropped} duplicate-timestamp rows (kept first)")
    if interpolated:
        provenance.append(
            f"interpolated {interpolated} missing samples across {n_gaps} gaps"
        )
    for note in provenance[1:]:
        log.info("%s: %s", source, note)

    return GridSeries(
        start_time=t0,
        demand=demand,
        wind_metered=wind,
        solar=solar,
        provenance=tuple(provenance),
    )


def segment_weeks(series: GridSeries) -> list[WeekSeries]:
    """Slice a GridSeries into 52 contiguous weeks of 2016 samples.

    Weeks are counted from the first sample, not calendar-aligned. Any
    trailing remainder beyond week 52 is discarded and logged.
    """
    n = series.n_samples
    if n < SAMPLES_PER_YEAR:
        raise IngestError(
            f"need at least {SAMPLES_PER_YEAR} samples for 52 weeks, got {n}"
        )
    leftover = n - SAMPLES_PER_YEAR
    if leftover:
        log.info("discarding %d trailing samples beyond week 52", leftover)

    weeks = []
    for w in range(WEEKS_PER_YEAR):
        sl = slice(w * SAMPLES_PER_WEEK, (w + 1) * SAMPLES_PER_WEEK)
        weeks.append(
            WeekSeries(
                index=w + 1,
                start_time=series.timestamp(sl.start),
                demand=series.demand[sl],
                wind=series.wind_metered[sl],
                solar=series.solar[sl],
            )
        )
    return weeks
