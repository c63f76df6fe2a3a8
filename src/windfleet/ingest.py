"""Parse, validate and repair raw 5-minute grid records; cut out the 52-week year.

Input files are CSV with MW values; everything downstream works in GW.
Repairs (gap interpolation, duplicate removal) are conservative and logged:
long outages must fail loudly rather than silently fabricate wind lulls.

The file is read CHUNK_ROWS lines at a time. A chunk without a quote is
split into cells directly, on commas and line ends, after one pass over its
bytes picks out the lines that may be blank, short or long; a chunk with a
quote goes through the csv module. Both give the cells, row errors and line
numbers of one csv.reader over the whole file.

A chunk's value column is parsed by orjson as one JSON array, which rounds
as float() does. Only the cells that are not plain JSON numbers (blanks,
"n/a", "nan", " 900 ", a signed integer zero ...) go through float(), which
also gives the reasons; a column that orjson still rejects ("+1", ".5",
"1e400" ...), or where most cells are not plain, goes through float()
whole. Timestamps of 19, 20 and 25 ASCII characters are read as byte
matrices in YYYY-MM-DD[T ]HH:MM:SS[Z|+00:00] form; any other text goes
through _parse_timestamp.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import chain, compress, islice
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np
import orjson

log = logging.getLogger(__name__)

CADENCE_S = 300
SAMPLES_PER_WEEK = 2016  # 7 days at 5-minute cadence
WEEKS_PER_YEAR = 52
SAMPLES_PER_YEAR = WEEKS_PER_YEAR * SAMPLES_PER_WEEK
MAX_GAP_SAMPLES = 12  # one hour of consecutive missing samples
MW_PER_GW = 1000.0
CHUNK_ROWS = 2048  # file lines tokenized together; more raise peak memory, not speed

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_CADENCE_US = CADENCE_S * 1_000_000
# where YYYY-MM-DD?HH:MM:SS holds digits and punctuation, and the one UTC offset
_ISO_DIGITS_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_PUNCT_AT = [4, 7, 13, 16]
_ISO_PUNCT = np.frombuffer(b"--::", np.uint8)
_UTC_SUFFIXES = {19: b"", 20: b"Z", 25: b"+00:00"}  # by text length
# what a column of JSON numbers may hold; no space, so "-0" is the one integer zero with a sign
_JSON_NUMBER_BYTES = b"0123456789eE.+-,"
# bytes.translate table: 1 for a byte no JSON number holds, else 0
_FOREIGN = bytes(b not in _JSON_NUMBER_BYTES for b in range(256))

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
    """``array`` as read-only float64: itself if it already is one, else a copy."""
    if isinstance(array, np.ndarray) and array.dtype == np.float64 and not array.flags.writeable:
        return array
    out = np.array(array, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GridSeries:
    """Contiguous 300 s samples of demand, metered wind and solar, in GW.

    ``input_sha256`` is the SHA-256 of the file the series was read from,
    when the reader recorded it.
    """

    start_time: datetime
    demand: np.ndarray
    wind_metered: np.ndarray
    solar: np.ndarray
    provenance: tuple[str, ...] = ()
    input_sha256: str | None = None

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


@dataclass(frozen=True)
class WeekSeries:
    """Exactly one week (2016 samples), as split_weeks hands it out.

    ``wind`` is capacity-factor-normalized total wind in a NormalizedYear's
    weeks, and metered wind in the weeks of a series that was only cut.
    Read-only float64 arrays are kept as given, so the weeks of a year are
    views of its arrays.
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
    "NaT", "now", 2017-02-30 ...) is left out of the mask. The texts of each
    of the three lengths are read as one byte matrix; a length that holds a
    non-ASCII text is left out whole.
    """
    n = len(texts)
    lengths = np.fromiter(map(len, texts), np.int64, n)
    us, ok = np.zeros(n, np.int64), np.zeros(n, bool)
    for length, suffix in _UTC_SUFFIXES.items():
        rows = lengths == length
        if not rows.any():
            continue
        group = "".join(compress(texts, rows.tolist()))
        if not group.isascii():  # full-width digits, say: _parse_timestamp decides
            continue
        codes = np.frombuffer(group.encode("ascii"), np.uint8).reshape(-1, length)
        good = (codes[:, 19:] == np.frombuffer(suffix, np.uint8)).all(axis=1)
        good &= (codes[:, _ISO_PUNCT_AT] == _ISO_PUNCT).all(axis=1)
        good &= (codes[:, 10] == ord("T")) | (codes[:, 10] == ord(" "))
        digits = codes[:, _ISO_DIGITS_AT] - np.uint8(ord("0"))  # below "0" wraps past 9
        good &= (digits <= 9).all(axis=1)
        digits = digits.astype(np.int64)
        year = digits[:, :4] @ np.array([1000, 100, 10, 1])
        month, day, hour, minute, second = (
            digits[:, k] * 10 + digits[:, k + 1] for k in range(4, 14, 2)
        )
        good &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
        good &= (hour < 24) & (minute < 60) & (second < 60)
        months = np.where(good, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
        dates = months.astype("datetime64[D]") + (day - 1)
        good &= dates.astype("datetime64[M]") == months  # day exists in its month
        seconds = ((dates.astype(np.int64) * 24 + hour) * 60 + minute) * 60 + second
        us[rows], ok[rows] = np.where(good, seconds * 1_000_000, 0), good
    return us, ok


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

    orjson parses the column's plain JSON numbers in one call, and rounds as
    float() does. Only the other cells go through float(), together: those
    that are empty, hold a byte outside ``0-9eE.+-``, or are the integer "-0",
    whose sign orjson drops. When orjson rejects what is left ("+1", ".5",
    "01", "1e400" ...), when a cell holds a comma, or when most cells are not
    plain, the whole column goes through float(). Texts go one by one only
    when float() fails on one of them.
    """
    n = len(texts)
    joined = ",".join(texts)
    odd = _odd_cells(joined, n)
    if odd is not None and 2 * odd.size < n:  # else orjson would read too few cells to pay
        rows = odd.tolist()
        if rows:  # each odd cell is read as 0 here, then by float()
            plain = list(texts)
            for j in rows:
                plain[j] = "0"
            joined = ",".join(plain)
        try:
            out = np.fromiter(orjson.loads(f"[{joined}]"), np.float64, n)
        except orjson.JSONDecodeError:
            pass
        else:
            out[odd] = _float_texts([texts[j] for j in rows], rows, reasons)
            return out
    return _float_texts(texts, range(n), reasons)


def _float_texts(texts: Sequence[str], rows: Sequence[int], reasons: dict[int, str]) -> np.ndarray:
    """float() of the texts in one call, and text by text when one fails; a
    failing text gets NaN and a reason under its row in ``rows``."""
    try:
        return np.fromiter(map(float, texts), float, len(texts))
    except ValueError:
        return np.array([_float(text, j, reasons) for j, text in zip(rows, texts)], np.float64)


def _odd_cells(joined: str, n: int) -> np.ndarray | None:
    """The cells of ``joined``, ``n`` texts joined with ",", that orjson may
    not read as float() does, from one pass over their bytes; None when a cell
    holds a comma."""
    codes = f",{joined},".encode()
    data = np.frombuffer(codes, np.uint8)
    commas = np.flatnonzero(data == ord(","))  # before and after each cell
    if commas.size != n + 1:
        return None
    lengths = np.diff(commas) - 1
    odd = lengths == 0
    if codes.translate(None, _JSON_NUMBER_BYTES):
        foreign = np.flatnonzero(np.frombuffer(codes.translate(_FOREIGN), bool))
        odd[np.searchsorted(commas, foreign) - 1] = True
    two = np.flatnonzero(lengths == 2)
    at = commas[two] + 1
    odd[two[(data[at] == ord("-")) & (data[at + 1] == ord("0"))]] = True
    return np.flatnonzero(odd)


def _float(text: str, j: int, reasons: dict[int, str]) -> float:
    """float(text), or NaN with a reason for row ``j``."""
    try:
        return float(text)
    except ValueError as exc:
        reasons.setdefault(j, f"unparseable field: {exc}")
        return np.nan


def _line_breaks(field: str) -> int:
    return field.count("\n") + field.count("\r") - field.count("\r\n")


def _split_columns(lines: list[str], text: str, width: int, fields: list[int], need: int):
    """The ``fields`` columns of quote-free lines, from one split of their text.

    ``text`` is the lines joined. A line whose comma count is not ``width - 1``,
    or that starts with a comma or whitespace, is looked at alone: a blank one
    is dropped, a short or long one padded with "" or cut to ``width`` cells.
    One pass over the text's bytes finds these lines; it also marks those
    that start with a control or non-ASCII byte, which are looked at alone too.
    Returns the columns, the mask of lines kept and, for each kept row with
    fewer than ``need`` fields, its field count.
    """
    n = len(lines)
    data = np.frombuffer(text.encode(), np.uint8)
    nl = data == ord("\n")
    cr = data == ord("\r")
    cr[:-1] &= ~nl[1:]  # a lone "\r" ends a line, the "\r" of "\r\n" does not
    ends = np.flatnonzero(nl | cr)
    if ends.size < n:  # the last line of a file may have no line end
        ends = np.append(ends, data.size)
    commas = np.searchsorted(np.flatnonzero(data == ord(",")), ends)
    odd = np.diff(commas, prepend=0) != width - 1
    firsts = data[np.concatenate(([0], ends[:-1] + 1))]
    # a blank line starts with a comma or whitespace, which is ASCII or not
    odd |= (firsts <= ord(" ")) | (firsts >= 0x80) | (firsts == ord(","))
    keep = np.ones(n, dtype=bool)
    short = {}
    if odd.any():
        for j in np.flatnonzero(odd).tolist():
            row = lines[j].rstrip("\r\n").split(",")
            if len(row) <= width and not "".join(row).strip():  # blank: skipped
                keep[j] = False
                continue
            if len(row) < need:
                short[j] = len(row)
            lines[j] = ",".join(row[:width] + [""] * (width - len(row))) + "\n"
        rank = np.cumsum(keep) - 1  # a kept line's row index
        short = {int(rank[j]): count for j, count in short.items()}
        text = "".join(compress(lines, keep))
    if not text:
        return [], keep, short
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"  # the last line of a file may have no line end
    cells = text.replace("\n", ",").split(",")
    del cells[-1]  # after the last line end
    return [cells[i::width] for i in fields], keep, short


def _csv_columns(rows: list[list[str]], width: int, fields: list[int], need: int):
    """``_split_columns`` for rows the csv module has read."""
    n = len(rows)
    lengths = np.fromiter(map(len, rows), np.int64, n)
    keep = (lengths > width) | np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, n)
    rows = list(compress(rows, keep))
    short = {}
    for j in np.flatnonzero(lengths[keep] < need).tolist():
        short[j] = len(rows[j])
        rows[j] = rows[j] + [""] * (need - len(rows[j]))
    return [list(map(itemgetter(i), rows)) for i in fields], keep, short


def _chunks(fh, done: int, width: int, fields: list[int], path: Path):
    """Non-blank rows after the header as columns, CHUNK_ROWS lines at a time.

    ``done`` is the number of lines the header took. Yields the mapped
    columns' texts in ``fields`` order, the line each row ends on, and the
    reason of each row too short for the mapped columns, by row (its missing
    cells read ""). A chunk with no quote and no line longer than the csv
    field limit is split directly. Any other chunk goes through csv.reader,
    one row per line of the chunk; the reader reads on from the file while
    a quoted field is open, so rows, line numbers and errors are those of
    one csv.reader over the whole file.
    """
    need = max(fields) + 1
    limit = csv.field_size_limit()
    while lines := list(islice(fh, CHUNK_ROWS)):
        text = "".join(lines)
        if '"' not in text and (len(text) <= limit or max(map(len, lines)) <= limit):
            ends = np.arange(done + 1, done + len(lines) + 1)
            done += len(lines)
            columns, keep, short = _split_columns(lines, text, width, fields, need)
        else:
            reader = csv.reader(chain(lines, fh))
            try:
                rows = list(islice(reader, len(lines)))
            except csv.Error as exc:
                raise IngestError(f"{path} line {done + reader.line_num}: {exc}") from exc
            if reader.line_num == len(rows):
                ends = np.arange(done + 1, done + len(rows) + 1)
            else:  # a row ends one line after the last, plus its fields' line breaks
                ends = done + np.cumsum([1 + sum(map(_line_breaks, row)) for row in rows])
            done += reader.line_num
            columns, keep, short = _csv_columns(rows, width, fields, need)
        if keep.any():
            too_few = {j: f"too few fields: {n}, the mapped columns need {need}"
                       for j, n in short.items()}
            yield columns, ends[keep], too_few


def _parse_chunk(
    columns: list[list[str]], lines: np.ndarray, reasons: dict[int, str],
    errors: list[RowError],
) -> tuple[np.ndarray, ...]:
    """The accepted rows of one chunk as timestamp_us, demand, wind, solar columns.

    ``reasons`` holds the rows already rejected as too short, by row. Each
    rejected row appends one RowError, in line order. Its reason is the
    first failure in the order: too few fields, the timestamp, demand, wind
    and solar fields, non-finite value, demand sign, wind and solar sign.
    """
    stamps, *texts = columns
    us = _timestamps_us(stamps, reasons)
    demand, wind, solar = (_floats(col, reasons) for col in texts)

    bad = np.zeros(len(stamps), dtype=bool)
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
    file's column names. The file is read in chunks of CHUNK_ROWS lines, each
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
            for texts, lines, reasons in _chunks(fh, reader.line_num, len(header), fields, path):
                n_rows += len(lines)
                parts.append(_parse_chunk(texts, lines, reasons, errors))
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


def canonicalize(records: Records, source: str = "<records>") -> GridSeries:
    """Sort, de-duplicate, gap-fill and convert raw records to a GridSeries.

    Duplicated timestamps keep the first occurrence. Gaps of up to one hour
    (12 samples) are filled by linear interpolation; anything longer is fatal,
    as is any timestamp off the 300 s grid. All repairs are recorded in the
    provenance and logged.
    """
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


def split_weeks(
    start_time: datetime, demand: np.ndarray, wind: np.ndarray, solar: np.ndarray
) -> tuple[WeekSeries, ...]:
    """The 52 weeks of a year's arrays from ``start_time``, as row views of them."""
    step = timedelta(weeks=1)
    rows = zip(*(a.reshape(WEEKS_PER_YEAR, -1) for a in (demand, wind, solar)))
    return tuple(WeekSeries(w + 1, start_time + w * step, *row) for w, row in enumerate(rows))


def cut_year(series: GridSeries) -> GridSeries:
    """The first 52 weeks of a series, as views of its arrays.

    Weeks are counted from the first sample, not calendar-aligned. Any
    trailing remainder beyond week 52 is discarded and logged.
    """
    n = series.n_samples
    if n < SAMPLES_PER_YEAR:
        raise IngestError(
            f"need at least {SAMPLES_PER_YEAR} samples for 52 weeks, got {n}"
        )
    if n == SAMPLES_PER_YEAR:
        return series
    log.info("discarding %d trailing samples beyond week 52", n - SAMPLES_PER_YEAR)
    year = slice(SAMPLES_PER_YEAR)
    return replace(
        series,
        demand=series.demand[year],
        wind_metered=series.wind_metered[year],
        solar=series.solar[year],
    )
