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
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

log = logging.getLogger(__name__)

CADENCE_S = 300
SAMPLES_PER_WEEK = 2016  # 7 days at 5-minute cadence
WEEKS_PER_YEAR = 52
SAMPLES_PER_YEAR = WEEKS_PER_YEAR * SAMPLES_PER_WEEK
MAX_GAP_SAMPLES = 12  # one hour of consecutive missing samples
MW_PER_GW = 1000.0
CHUNK_ROWS = 8192  # file rows held as Python lists at a time while parsing
FLOAT_BLOCK = 256  # cells converted together; a bad cell retries only its block

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_CADENCE_US = CADENCE_S * 1_000_000
# where YYYY-MM-DD?HH:MM:SS holds digits and punctuation, and the one UTC offset
_ISO_DIGITS_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_PUNCT_AT = [4, 7, 13, 16]
_ISO_PUNCT = np.array([ord(c) for c in "--::"], dtype=np.uint32)
_UTC_SUFFIX = np.array([ord(c) for c in "+00:00"], dtype=np.uint32)

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


def _utc(us: int) -> datetime:
    return _EPOCH + timedelta(microseconds=int(us))


@dataclass(frozen=True)
class Records:
    """Parsed rows as columns: UTC microseconds since the epoch, and MW values.

    ``len()`` counts the rows; iterating yields one RawRecord per row.
    """

    timestamp_us: np.ndarray
    demand_mw: np.ndarray
    wind_mw: np.ndarray
    solar_mw: np.ndarray

    @classmethod
    def from_raw(cls, records: Iterable[RawRecord]) -> Records:
        records = list(records)
        return cls(
            np.array([(r.timestamp - _EPOCH) // _ONE_US for r in records], dtype=np.int64),
            np.array([r.demand_mw for r in records], dtype=float),
            np.array([r.wind_mw for r in records], dtype=float),
            np.array([r.solar_mw for r in records], dtype=float),
        )

    def __len__(self) -> int:
        return self.timestamp_us.size

    def __iter__(self) -> Iterator[RawRecord]:
        columns = (self.timestamp_us, self.demand_mw, self.wind_mw, self.solar_mw)
        for us, demand, wind, solar in zip(*(c.tolist() for c in columns)):
            yield RawRecord(_utc(us), demand, wind, solar)


def _iso_utc_us(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``YYYY-MM-DD[T ]HH:MM:SS`` with a ``Z`` or ``+00:00`` suffix or none.

    Returns microseconds since the epoch and the mask of texts in exactly that
    form that also name a real date and time; on those, _parse_timestamp
    gives the same instant. Anything else (other offsets, fractions, blanks,
    "NaT", "now", 2017-02-30 ...) is left out of the mask.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    codes = np.array(texts, dtype="U25").view(np.uint32).reshape(n, 25)
    ok = (
        (lengths == 19)
        | ((lengths == 20) & (codes[:, 19] == ord("Z")))
        | ((lengths == 25) & (codes[:, 19:] == _UTC_SUFFIX).all(axis=1))
    )
    ok &= (codes[:, _ISO_PUNCT_AT] == _ISO_PUNCT).all(axis=1)
    ok &= (codes[:, 10] == ord("T")) | (codes[:, 10] == ord(" "))
    digits = codes[:, _ISO_DIGITS_AT].astype(np.int64) - ord("0")
    ok &= ((digits >= 0) & (digits <= 9)).all(axis=1)
    year = digits[:, :4] @ np.array([1000, 100, 10, 1])
    month, day, hour, minute, second = (
        digits[:, k] * 10 + digits[:, k + 1] for k in range(4, 14, 2)
    )
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    ok &= (hour < 24) & (minute < 60) & (second < 60)
    months = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    ok &= dates.astype("datetime64[M]") == months  # day exists in its month
    seconds = ((dates.astype(np.int64) * 24 + hour) * 60 + minute) * 60 + second
    return np.where(ok, seconds * 1_000_000, 0), ok


def _timestamps_us(texts: Sequence[str], reasons: dict[int, str]) -> np.ndarray:
    """UTC microseconds per text; a text _parse_timestamp rejects gets a reason."""
    us, fast = _iso_utc_us(texts)
    for j in np.flatnonzero(~fast).tolist():
        try:
            us[j] = (_parse_timestamp(texts[j]) - _EPOCH) // _ONE_US
        except (ValueError, OverflowError) as exc:
            reasons.setdefault(j, f"unparseable field: {exc}")
    return us


def _floats(texts: Sequence[str], reasons: dict[int, str]) -> np.ndarray:
    """float() of each text; a text it rejects gets a reason and NaN.

    When the column fails as a whole, it is retried FLOAT_BLOCK texts at a
    time, and only a block that fails goes row by row.
    """
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        out = np.full(len(texts), np.nan)
    for start in range(0, len(texts), FLOAT_BLOCK):
        block = texts[start:start + FLOAT_BLOCK]
        try:
            out[start:start + len(block)] = np.fromiter(map(float, block), float, len(block))
        except ValueError:
            for j, text in enumerate(block, start):
                try:
                    out[j] = float(text)
                except ValueError as exc:
                    reasons.setdefault(j, f"unparseable field: {exc}")
    return out


def _line_breaks(field: str) -> int:
    return field.count("\n") + field.count("\r") - field.count("\r\n")


def _row_chunks(reader, width: int) -> Iterator[tuple[list[list[str]], np.ndarray]]:
    """Non-blank rows and the line each ends on, up to CHUNK_ROWS rows at a time.

    Blank and comma-only lines are skipped; a row longer than the header is
    never blank. Line numbers are those ``reader.line_num`` reports after
    each row: a row ends one line after the previous one, plus one more for
    each line break inside its quoted fields.
    """
    while True:
        start = reader.line_num
        rows = list(islice(reader, CHUNK_ROWS))
        if not rows:
            return
        if reader.line_num - start == len(rows):
            ends = np.arange(start + 1, reader.line_num + 1)
        else:
            spans = [1 + sum(map(_line_breaks, row)) for row in rows]
            ends = start + np.cumsum(spans)
        n = len(rows)
        lengths = np.fromiter(map(len, rows), np.int64, n)
        filled = np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, n)
        keep = np.flatnonzero((lengths > width) | filled)
        if keep.size < n:
            rows = [rows[j] for j in keep.tolist()]
        if rows:
            yield rows, ends[keep]


def _parse_chunk(
    rows: list[list[str]], lines: np.ndarray, fields: list[int], errors: list[RowError]
) -> tuple[np.ndarray, ...]:
    """The accepted rows of one chunk as timestamp_us, demand, wind, solar columns.

    Each rejected row appends one RowError, in line order. Its reason is the
    first failure in the order: too few fields, the timestamp, demand, wind
    and solar fields, non-finite value, demand sign, wind and solar sign.
    """
    reasons: dict[int, str] = {}
    need = max(fields) + 1
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    for j in np.flatnonzero(lengths < need).tolist():
        reasons[j] = f"too few fields: {len(rows[j])}, the mapped columns need {need}"
        rows[j] = rows[j] + [""] * (need - len(rows[j]))  # rejected; padded to slice alike
    stamps, *texts = (list(map(itemgetter(i), rows)) for i in fields)
    us = _timestamps_us(stamps, reasons)
    demand, wind, solar = (_floats(col, reasons) for col in texts)

    bad = np.zeros(len(rows), dtype=bool)
    bad[list(reasons)] = True
    range_checks = (
        (~(np.isfinite(demand) & np.isfinite(wind) & np.isfinite(solar)),
         lambda j: "non-finite value"),
        (demand <= 0, lambda j: f"demand must be > 0, got {float(demand[j])}"),
        ((wind < 0) | (solar < 0), lambda j: "wind and solar must be >= 0"),
    )
    for failed, reason in range_checks:
        for j in np.flatnonzero(failed & ~bad).tolist():
            reasons[j] = reason(j)
        bad |= failed
    errors.extend(RowError(int(lines[j]), reasons[j]) for j in sorted(reasons))
    keep = ~bad
    return us[keep], demand[keep], wind[keep], solar[keep]


def parse_csv(
    path: str | Path,
    column_map: dict[str, str] | None = None,
    row_errors: list[RowError] | None = None,
) -> Records:
    """Read raw records from a CSV file with a header row.

    ``column_map`` remaps the logical names timestamp/demand/wind/solar to the
    file's column names. The file is read in chunks of CHUNK_ROWS rows, each
    turned into columns. Malformed rows are skipped, logged, and appended to
    ``row_errors`` when a list is supplied; more than 1% malformed rows is
    fatal. A missing mapped column, text that is not UTF-8 and a field the
    csv module rejects (over its 131,072-character limit) are always fatal.
    A UTF-8 byte-order mark before the header is ignored.
    """
    columns = dict(DEFAULT_COLUMNS, **(column_map or {}))
    path = Path(path)
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise IngestError(f"cannot open input file: {exc}") from exc

    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0), np.empty(0))]
    errors: list[RowError] = []
    n_rows = 0
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file, no header row")
            missing = [c for c in columns.values() if c not in header]
            if missing:
                raise IngestError(f"{path}: missing column(s) {missing}; file has {header}")
            position = {name: i for i, name in enumerate(header)}  # a repeated name: last one
            fields = [position[columns[k]] for k in ("timestamp", "demand", "wind", "solar")]
            for rows, lines in _row_chunks(reader, len(header)):
                n_rows += len(rows)
                parts.append(_parse_chunk(rows, lines, fields, errors))
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end].hex(" ")
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason}: byte {bad})") from exc
        except csv.Error as exc:
            raise IngestError(f"{path} line {reader.line_num}: {exc}") from exc

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
    return Records(*(np.concatenate(column) for column in zip(*parts)))


def canonicalize(
    records: Records | Sequence[RawRecord], source: str = "<records>"
) -> GridSeries:
    """Sort, de-duplicate, gap-fill and convert raw records to a GridSeries.

    Duplicated timestamps keep the first occurrence. Gaps of up to one hour
    (12 samples) are filled by linear interpolation; anything longer is fatal,
    as is any timestamp off the 300 s grid. All repairs are recorded in the
    provenance and logged. A list of RawRecords is turned into Records first.
    """
    if not isinstance(records, Records):
        records = Records.from_raw(records)
    if not len(records):
        raise IngestError("no records to canonicalize")
    order = np.argsort(records.timestamp_us, kind="stable")
    stamps = records.timestamp_us[order]
    first = np.ones(stamps.size, dtype=bool)
    first[1:] = stamps[1:] != stamps[:-1]
    dropped = stamps.size - int(np.count_nonzero(first))
    kept = order[first]
    stamps = stamps[first]

    offsets = stamps - stamps[0]
    misaligned = offsets % _CADENCE_US != 0
    if np.any(misaligned):
        bad = _utc(stamps[np.argmax(misaligned)])
        raise IngestError(f"non-{CADENCE_S} s cadence at {bad.isoformat()}")
    idx = offsets // _CADENCE_US

    gaps = np.diff(idx) - 1
    n_gaps = int(np.count_nonzero(gaps))
    if n_gaps:
        worst_at = int(np.argmax(gaps))
        worst = int(gaps[worst_at])
        if worst > MAX_GAP_SAMPLES:
            gap_start = _utc(stamps[worst_at] + _CADENCE_US)
            raise IngestError(
                f"gap exceeds 1 hour: {worst} consecutive samples missing "
                f"from {gap_start.isoformat()}"
            )

    n = int(idx[-1]) + 1
    full = np.arange(n)
    demand = np.interp(full, idx, records.demand_mw[kept]) / MW_PER_GW
    wind = np.interp(full, idx, records.wind_mw[kept]) / MW_PER_GW
    solar = np.interp(full, idx, records.solar_mw[kept]) / MW_PER_GW
    interpolated = n - stamps.size

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
        start_time=_utc(stamps[0]),
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
