"""Parse, validate and repair raw 5-minute grid records; cut out the 52-week year.

Input files are CSV with MW values; everything downstream works in GW.
Repairs (gap interpolation, duplicate removal) are conservative and logged:
long outages must fail loudly rather than silently fabricate wind lulls.

The file is read as bytes, READ_BYTES at a time; each read is scanned once
for the line ends where csv.reader cuts lines, and its whole lines are parsed
together as one chunk. Each line is one record, read whole on one of two
paths. A plain line is read straight from the bytes: it holds no quote, is no
longer than the csv field limit, has one cell per header column, a timestamp
of 19, 20 or 25 ASCII bytes in YYYY-MM-DD[T ]HH:MM:SS[Z|+00:00] form, read
one byte matrix per length (_iso_cells), and value cells that are JSON
numbers (_number_breaks) that cannot be past float's range, read as float()
reads them by one orjson call per chunk, or two if a cell is not. Every other
line (blank, short or long lines, other timestamps, or value cells such as
"n/a", " 900 ", "+1", "00" or "1e400") is read alone by _odd_row:
a csv.reader of its own, then _parse_timestamp for its timestamp and float()
for its values. A line that leaves a quoted field open at its end is a row
error, "quote not closed on its line" (fatal in the header). _chunks then
decides each row in one place: a blank row is dropped, and a rejected row is
dropped and appends its RowError.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import logging
import os
from dataclasses import dataclass, replace
from datetime import datetime, timedelta, timezone
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np
import orjson

log = logging.getLogger(__name__)

CADENCE_S = 300
SECONDS_PER_DAY = 86400
SAMPLES_PER_HOUR = 3600 // CADENCE_S  # 12
SAMPLES_PER_WEEK = 2016  # 7 days at 5-minute cadence
WEEKS_PER_YEAR = 52
SAMPLES_PER_YEAR = WEEKS_PER_YEAR * SAMPLES_PER_WEEK
MAX_GAP_SAMPLES = 12  # one hour of consecutive missing samples
MW_PER_GW = 1000.0
# bytes per file read; each read's whole lines are parsed together, about 3,800
# lines of the synthetic year. 512 KiB parse a year slightly faster, and raise
# the parse's traced peak from 7.2 to 10.3 MB (Python 3.11, numpy 2.4)
READ_BYTES = 1 << 18

_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_ONE_US = timedelta(microseconds=1)
_CADENCE_US = CADENCE_S * 1_000_000
# where YYYY-MM-DD?HH:MM:SS holds digits
_ISO_DIGITS_AT = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]


def _iso_form(suffix: bytes) -> tuple[np.ndarray, np.ndarray]:
    """The lowest byte a YYYY-MM-DD?HH:MM:SS text with ``suffix`` may hold at
    each position, and how far above it. At "?" that is any byte here;
    _iso_utc_us allows "T" or " "."""
    low = np.frombuffer(b"0000-00-00T00:00:00" + suffix, np.uint8).copy()
    span = np.zeros(low.size, np.uint8)
    span[_ISO_DIGITS_AT] = 9
    low[10], span[10] = 0, 255
    return low, span


_ISO_FORMS = {19 + len(s): _iso_form(s) for s in (b"", b"Z", b"+00:00")}  # by text length
_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark
# bytes.translate table: 1 for a byte the JSON text of plain value cells may not hold
_FOREIGN = bytes(b not in b"0123456789eE.+-,\n" for b in range(256))
_PAIRS = np.zeros(1 << 16, bool)  # [a << 8 | b]: a number may hold b after a, one in ".eE+-"
for _a, _b in [(b"[,\neE", b"-"), (b"eE", b"+"), (b"0123456789", b".eE"),
               (b".eE+-", b"0123456789")]:
    _PAIRS[[a << 8 | b for a in _a for b in _b]] = True

DEFAULT_COLUMNS = {name: name for name in ("timestamp", "demand", "wind", "solar")}


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
    return _frozen(np.array(array, dtype=float))


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array``, which its caller has just made, made read-only in place."""
    array.setflags(write=False)
    return array


@dataclass(frozen=True)
class GridSeries:
    """Contiguous 300 s samples of demand, metered wind and solar, in GW.

    ``input_sha256`` is the SHA-256 of the bytes the series was parsed
    from, taken as parse_csv read them, when the reader recorded it.
    """

    start_time: datetime
    demand: np.ndarray
    wind_metered: np.ndarray
    solar: np.ndarray
    provenance: tuple[str, ...] = ()  # one note a repair, as canonicalize logs it
    input_sha256: str | None = None

    def __post_init__(self):
        for name in ("demand", "wind_metered", "solar"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
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
        for name in ("demand", "wind", "solar"):
            object.__setattr__(self, name, _freeze(getattr(self, name)))
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


_COLUMNS = ("timestamp_us", "demand_mw", "wind_mw", "solar_mw")  # of Records


@dataclass(frozen=True)
class Records:
    """Parsed rows as columns: UTC microseconds since the epoch, and MW values.

    ``len()`` counts the rows; iterating yields one RawRecord per row.
    ``input_sha256`` is the SHA-256 of the bytes they were parsed from, when
    they were parsed from a file.
    """

    timestamp_us: np.ndarray
    demand_mw: np.ndarray
    wind_mw: np.ndarray
    solar_mw: np.ndarray
    input_sha256: str | None = None

    def __post_init__(self):
        sizes = {name: np.size(getattr(self, name)) for name in _COLUMNS}
        if len(set(sizes.values())) > 1:
            raise IngestError("record columns differ in length: "
                              + ", ".join(f"{name} {size}" for name, size in sizes.items()))

    def __len__(self) -> int:
        return self.timestamp_us.size

    def __iter__(self) -> Iterator[RawRecord]:
        for us, demand, wind, solar in zip(*(getattr(self, c).tolist() for c in _COLUMNS)):
            yield RawRecord(_utc(us), demand, wind, solar)


def _iso_utc_us(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized ``YYYY-MM-DD[T ]HH:MM:SS`` with a ``Z`` or ``+00:00`` suffix or none.

    ``codes`` holds one text's bytes per row: 19, 20 or 25 of them, which
    sets the suffix. Returns microseconds since the epoch and the mask of
    rows in exactly that form that also name a real date and time; on those,
    _parse_timestamp gives the same instant. Anything else (other offsets,
    blanks, "NaT", 2017-02-30, non-ASCII digits ...) is left out of the mask.
    """
    low, span = _ISO_FORMS[codes.shape[1]]
    offsets = codes - low  # below the lowest byte wraps past the span
    good = (offsets <= span).all(axis=1)
    good &= (codes[:, 10] == ord("T")) | (codes[:, 10] == ord(" "))
    digits = offsets[:, _ISO_DIGITS_AT].astype(np.int64)
    pairs = digits[:, 0::2] * 10 + digits[:, 1::2]  # century, year, month ... second
    year = pairs[:, 0] * 100 + pairs[:, 1]
    month, day, hour, minute, second = pairs[:, 2:].T
    good &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
    good &= (hour < 24) & (minute < 60) & (second < 60)
    months = np.where(good, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    dates = months.astype("datetime64[D]") + (day - 1)
    good &= dates.astype("datetime64[M]") == months  # day exists in its month
    seconds = ((dates.astype(np.int64) * 24 + hour) * 60 + minute) * 60 + second
    return np.where(good, seconds * 1_000_000, 0), good


def _windows(codes: np.ndarray, size: int) -> np.ndarray:
    """``codes`` as overlapping ``size``-byte items, one starting at each offset."""
    return np.ndarray((codes.size - size + 1,), f"S{size}", buffer=codes, strides=(1,))


def _iso_cells(data: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_iso_utc_us of the cells ``data[lo[i]:hi[i]]``, one byte matrix per
    length; a cell of another length is left out of the mask."""
    us, good = np.zeros(lo.size, np.int64), np.zeros(lo.size, bool)
    for length in _ISO_FORMS:
        group = np.flatnonzero(hi - lo == length)
        if group.size:
            codes = _windows(data, length)[lo[group]].view(np.uint8).reshape(-1, length)
            us[group], good[group] = _iso_utc_us(codes)
    return us, good


def _blank(codes: np.ndarray, at: np.ndarray, sizes: np.ndarray) -> None:
    """Overwrite ``sizes[i]`` bytes of ``codes`` from ``at[i]`` with "\\n"."""
    for size in np.unique(sizes).tolist():
        _windows(codes, size)[at[sizes == size]] = b"\n" * size


def _number_breaks(text: bytearray, heads: np.ndarray) -> np.ndarray:
    """The mask of lines with a cell that breaks the JSON number grammar
    -?(0|[1-9][0-9]*)(\\.[0-9]+)?([eE][+-]?[0-9]+)?, or may be past float's
    range: it is over 308 bytes long after its sign, or its integer digits
    plus its exponent exceed 308, or its exponent has more than three
    digits. ``text`` is "[", cells among "\\n" bytes, each with a comma after
    it, then "0]"; cell k of line i starts at offset ``heads[i, k]`` of
    ``text[1:]``.
    """
    data = np.frombuffer(text, np.uint8)
    codes = data[1:-2]  # offsets as in heads; data[i + 1] is codes[i]
    stops = np.flatnonzero((codes - ord("0") > 9) & (codes != ord("\n")))  # marks and commas
    at = np.flatnonzero(codes[stops] != ord(","))
    marks, cell = stops[at], at - np.arange(at.size)  # each mark's cell: the commas before it
    before, cur, after = (data[marks + k].astype(np.intp) for k in range(3))
    bad = ~(_PAIRS[before << 8 | cur] & _PAIRS[cur << 8 | after])  # "+1", ".5", "1e", " 1"
    first = heads + (codes[heads] == ord("-"))  # where each integer part begins
    cells = (codes[first] == ord("0")) & (data[first + 2] - ord("0") <= 9)  # "00", "-01"
    cells.flat[cell[bad]] = True
    point = (cur != ord("+")) & (cur != ord("-"))
    cell, dot = cell[point], cur[point] == ord(".")  # at most one ".", then at most one "e"
    cells.flat[cell[1:][(cell[1:] == cell[:-1]) & (~dot[:-1] | dot[1:])]] = True  # "1e5.5"
    spans = np.diff(heads[:, 0], append=codes.size)  # each line from its first value cell on
    if b"e" not in text and b"E" not in text and spans.max() <= 308:
        return cells.any(axis=1)  # no exponent, and no line with room for 309 digits
    ends = stops[codes[stops] == ord(",")]  # cell k ends at ends[k]
    cells |= (ends - first.ravel() > 308).reshape(cells.shape)  # room for 309 integer digits
    ex = np.flatnonzero(~dot)  # each exponent's "e" (or a foreign byte)
    marks, e, prev = marks[point], cell[ex], np.maximum(ex - 1, 0)
    dot_first = (ex > 0) & (cell[prev] == e)  # the integer part ends at that "." or at the "e"
    scale = np.where(dot_first, marks[prev], marks[ex]) - first.flat[e]  # its integer digits
    sign = codes[marks[ex] + 1]
    size = ends[e] - marks[ex] - 1 - ((sign == ord("+")) | (sign == ord("-")))  # exponent digits
    last = ends[e] - 1
    power = sum(np.where(size > j, codes[last - j].astype(np.intp) - ord("0"), 0) * 10**j
                for j in range(3))
    scale += np.where(size > 3, 999, np.where(sign == ord("-"), -power, power))
    cells.flat[e[scale > 308]] = True  # "1e400", "1e0001"
    return cells.any(axis=1)


def _plain_rows(chunk: bytes, starts: np.ndarray, stops: np.ndarray, nexts: np.ndarray,
                width: int, fields: list[int]) -> tuple[np.ndarray, ...]:
    """The plain lines of a chunk, read whole straight from its bytes.

    Line i of ``chunk`` runs from ``starts[i]`` to ``stops[i]``, where its
    line end begins, and the next line starts at ``nexts[i]``; every line has
    a line end. A line is plain when it holds no quote, is no longer than the
    csv field limit, has ``width`` cells, its timestamp cell is in one of
    _iso_utc_us's forms, and each value cell is a nonempty JSON number
    other than the integer "-0", whose sign orjson drops. orjson reads them
    from a copy of the chunk where all bytes but the value cells are blanked
    to "\\n", which JSON reads as whitespace, and the byte after each value
    cell is a comma; it rounds as float() does. One call reads them all,
    unless a cell holds a byte outside ``0-9eE.+-`` or orjson rejects one:
    then the lines _number_breaks marks, cells that break the grammar or may
    be past float's range, are not plain, and a second call reads the rest,
    or no line if it still rejects one. Returns the mask of plain lines,
    their timestamp_us and lines x 3 demand/wind/solar values.
    """
    n = stops.size
    us, values, plain = np.zeros(n, np.int64), np.empty((n, 3)), np.zeros(n, bool)
    data = np.frombuffer(chunk, np.uint8)
    commas = np.flatnonzero(data == ord(","))
    first = np.searchsorted(commas, starts)  # index of each line's first comma
    lines = np.flatnonzero(np.searchsorted(commas, stops) - first == width - 1)
    if b'"' in chunk:  # a line with a quote is not plain
        quoted = np.searchsorted(nexts, np.flatnonzero(data == ord('"')), "right")
        lines = lines[~np.isin(lines, quoted)]
    limit = csv.field_size_limit()
    if len(chunk) > limit:  # nor is a line longer than the csv field limit
        lines = lines[nexts[lines] - starts[lines] <= limit]

    def cell(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Where cell ``k`` of each line in ``lines`` starts and ends."""
        lo = starts[lines] if k == 0 else commas[first[lines] + (k - 1)] + 1
        hi = stops[lines] if k == width - 1 else commas[first[lines] + k]
        return lo, hi

    stamps, ok = _iso_cells(data, *cell(fields[0]))
    picked = sorted(set(fields[1:]))  # the value columns in file order, each once
    for lo, hi in map(cell, picked):
        ok &= hi > lo
        two = np.flatnonzero(hi - lo == 2)
        ok[two[(data[lo[two]] == ord("-")) & (data[lo[two] + 1] == ord("0"))]] = False
    lines = lines[ok]
    us[lines] = stamps[ok]
    if not lines.size:
        return plain, us, values

    text = bytearray(b"[" + chunk + b"0]")  # the 0 follows the last value's comma
    codes = np.frombuffer(text, np.uint8)[1:-2]  # offsets as in the chunk
    plain[lines] = True
    _blank(codes, starts[~plain], nexts[~plain] - starts[~plain])
    for k in range(width):
        lo, hi = cell(k)
        if k not in picked:  # the cell, and the comma or line end after it
            _blank(codes, lo, hi - lo + 1)
        else:
            codes[hi] = ord(",")  # after each value, whether a comma or a line end was there
    # JSON reads some cells of other bytes too (" 1", "[1]", "true")
    for check in (text.translate(_FOREIGN).find(1, 1, -2) >= 0, True):
        if check:  # lines with a value cell that breaks the number grammar are not plain
            plain[lines[_number_breaks(text, np.transpose([cell(k)[0] for k in picked]))]] = False
            _blank(codes, starts[~plain], nexts[~plain] - starts[~plain])
            lines = np.flatnonzero(plain)
        with contextlib.suppress(orjson.JSONDecodeError):  # a cell is no number, or out of range
            table = orjson.loads(text)
            break
    else:  # orjson rejects a cell _number_breaks passes: no line is plain
        return np.zeros(n, bool), us, values
    table = np.fromiter(table, np.float64, lines.size * len(picked)).reshape(-1, len(picked))
    values[lines] = table[:, [picked.index(k) for k in fields[1:]]]
    return plain, us, values


def _line_ends(data: bytes, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Where each line of ``data[start:stop]`` ends: the offset of its line
    end's first byte, and the offset after its line end. A line ends in
    "\\n", "\\r\\n" or a lone "\\r", as csv.reader reads lines."""
    codes = np.frombuffer(data, np.uint8, stop - start, start)
    stops = np.flatnonzero(codes == ord("\n"))
    crs = np.count_nonzero(codes == ord("\r")) if data.find(b"\r", start, stop) >= 0 else 0
    if not crs or crs == stops.size and stops[0] and (codes[stops - 1] == ord("\r")).all():
        stops, nexts = stops - (crs > 0), stops + 1  # every line end is "\n", or every one "\r\n"
    else:
        ends = np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
        cr = codes[ends] == ord("\r")
        pair = cr[:-1] & ~cr[1:] & (np.diff(ends) == 1)  # a "\r\n" starts here
        stops = ends[np.concatenate(([True], ~pair))]
        nexts = stops + 1 + np.append(pair, False)[np.concatenate(([True], ~pair))]
    return stops + start, nexts + start


def _reads(fh, digest) -> Iterator[tuple[bytes, np.ndarray, np.ndarray]]:
    """The whole lines of each READ_BYTES read of a binary file, one chunk a
    read: their bytes, and in them each line's _line_ends offsets. Each read
    updates the hashlib object ``digest`` as it is read.

    Lines are cut where csv.reader cuts them. The partial line a read ends in,
    and a "\\r" at its end that may begin a "\\r\\n", wait for the next read,
    so each byte is scanned for line ends once, and by _line_ends only in a
    read that holds one; a read that ends no line gives no chunk. A UTF-8
    byte-order mark at the file's start is skipped, and a last line with no
    line end gets a "\\n", which is not hashed."""
    data = fh.read(len(_BOM))  # bytes read and not yet handed out
    digest.update(data)
    data = data.removeprefix(_BOM)
    scanned = 0  # data before this offset holds no line end
    while True:
        block = fh.read(READ_BYTES)
        digest.update(block)
        final = not block
        if final and data[-1:] not in (b"", b"\n", b"\r"):
            block = b"\n"
        data += block
        whole = len(data) - (not final and data.endswith(b"\r"))  # a last "\r" may begin a "\r\n"
        if data.find(b"\n", scanned, whole) >= 0 or data.find(b"\r", scanned, whole) >= 0:
            stops, nexts = _line_ends(data, scanned, whole)
            end = int(nexts[-1])
            yield data[:end], stops, nexts
            data, whole = data[end:], whole - end
        if final:
            return
        scanned = whole


def _line_row(text: str) -> list[str] | None:
    """csv.reader's row of one line, or None when the line leaves a quoted
    field open at its end: that field then holds the line end."""
    row = next(csv.reader((text,)))
    return None if row and row[-1].endswith(("\n", "\r")) else row


def _odd_row(text: str, width: int, fields: list[int], need: int) -> tuple | None:
    """One line off the byte path, read alone: None for a blank line, else its
    timestamp_us, its demand, wind and solar values and the reason it failed
    to parse, or None.

    A line of at most ``width`` cells that are all whitespace is blank. The
    reason is the first failure in the order: quote not closed on its line,
    fewer than ``need`` cells, the timestamp, demand, wind and solar fields.
    """
    row = _line_row(text)
    if row is None:
        reason = "quote not closed on its line"  # a row error, even where its cells are blank
    elif len(row) <= width and not "".join(row).strip():
        return None
    elif len(row) < need:
        reason = f"too few fields: {len(row)}, the mapped columns need {need}"
    else:
        try:
            us = (_parse_timestamp(row[fields[0]]) - _EPOCH) // _ONE_US
            return us, [float(row[k]) for k in fields[1:]], None
        except (ValueError, OverflowError) as exc:
            reason = f"unparseable field: {exc}"
    return 0, [np.nan] * 3, reason


def _chunks(reads: Iterable[tuple], width: int, fields: list[int], where: str,
            errors: list[RowError]) -> Iterator[tuple[np.ndarray, ...]]:
    """The kept rows after the header, a chunk of _reads at a time, one row a line.

    _chunks decides each row: a line _plain_rows does not take is read alone
    by _odd_row, a blank row is dropped, and a rejected row is dropped and
    appends its RowError to ``errors``, in line order. Its reason is the first
    failure in the order: _odd_row's reason, non-finite value, demand sign,
    wind and solar sign. Yields each chunk's kept rows as timestamp_us,
    demand, wind and solar columns.
    """
    need = max(fields) + 1
    done = 1  # the header's line
    for chunk, stops, nexts in reads:
        if not chunk.isascii():
            chunk.decode()  # text that is not UTF-8 raises here
        starts = np.concatenate(([0], nexts[:-1]))
        plain, us, values = _plain_rows(chunk, starts, stops, nexts, width, fields)
        bad, reasons = np.zeros(us.size, bool), {}
        odd = np.flatnonzero(~plain).tolist()
        for i, a, b in zip(odd, starts[odd].tolist(), nexts[odd].tolist()):
            try:
                row = _odd_row(chunk[a:b].decode(), width, fields, need)
            except csv.Error as exc:
                raise IngestError(f"{where} line {done + 1 + i}: {exc}") from exc
            if row is None:  # a blank row
                bad[i] = True
                continue
            us[i], values[i], reason = row
            if reason:
                reasons[i], bad[i] = reason, True
        demand, wind, solar = values.T
        range_checks = (
            (~np.isfinite(values).all(axis=1), lambda j: "non-finite value"),
            (demand <= 0, lambda j: f"demand must be > 0, got {float(demand[j])}"),
            ((wind < 0) | (solar < 0), lambda j: "wind and solar must be >= 0"),
        )
        for failed, reason in range_checks:
            for j in np.flatnonzero(failed & ~bad).tolist():
                reasons[j] = reason(j)
            bad |= failed
        errors.extend(RowError(done + 1 + j, reasons[j]) for j in sorted(reasons))
        done += stops.size
        keep = ~bad
        yield us[keep], demand[keep], wind[keep], solar[keep]


def parse_csv(
    path: str | Path,
    column_map: dict[str, str] | None = None,
    row_errors: list[RowError] | None = None,
) -> Records:
    """Read raw records from a CSV file with a header row.

    ``column_map`` remaps the logical names timestamp/demand/wind/solar to the
    file's column names. The file is read once, READ_BYTES at a time: each
    read is hashed into the records' ``input_sha256``, and its whole lines are
    turned into columns together. The columns are sized once, from the file's
    byte count and the first read's bytes per line after the header, grown by
    an eighth only where later lines are shorter, and trimmed to the rows
    kept. Malformed rows are skipped, logged, and appended to ``row_errors``
    when a list is supplied; more than 1% malformed rows is fatal. A missing mapped column, text that
    is not UTF-8 and a field the csv module rejects (over its 131,072-character
    limit) are always fatal; a UTF-8 byte-order mark before the header is skipped.
    """
    columns = dict(DEFAULT_COLUMNS, **(column_map or {}))
    where = repr(str(path))  # the path in every message: one printable line, whatever its bytes
    try:
        fh = open(path, "rb")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise IngestError(f"cannot open input file: {exc}") from exc

    digest = hashlib.sha256()
    n = capacity = 0
    errors: list[RowError] = []
    with fh:
        size = os.fstat(fh.fileno()).st_size  # 0 for a pipe: the columns then grow
        reads = _reads(fh, digest)
        try:
            chunk, stops, nexts = next(reads, (b"", None, None))
            if not chunk:
                raise IngestError(f"{where}: empty file, no header row")
            head = int(nexts[0])  # the header is the file's first line
            try:
                header = _line_row(chunk[:head].decode())
            except csv.Error as exc:
                raise IngestError(f"{where} line 1: {exc}") from exc
            if header is None:
                raise IngestError(f"{where} line 1: quote not closed on its line")
            missing = [c for c in columns.values() if c not in header]
            if missing:
                raise IngestError(f"{where}: missing column(s) {missing}; file has {header}")
            repeated = [c for c in columns.values() if header.count(c) > 1]
            if repeated:
                raise IngestError(f"{where}: mapped column {repeated[0]!r} repeats in the header")
            position = {name: i for i, name in enumerate(header)}
            fields = [position[columns[k]] for k in ("timestamp", "demand", "wind", "solar")]
            if stops.size > 1:  # the first read's lines after the header size the columns
                reads = chain([(chunk[head:], stops[1:] - head, nexts[1:] - head)], reads)
                capacity = -(-max(size - head, 0) * (stops.size - 1) // (len(chunk) - head))
            out = [np.empty(capacity, np.int64)] + [np.empty(capacity) for _ in range(3)]
            for part in _chunks(reads, len(header), fields, where, errors):
                end = n + part[0].size
                if end > out[0].size:  # later lines are shorter: grown in place by an eighth
                    for column in out:
                        column.resize(end + end // 8, refcheck=False)
                for column, values in zip(out, part):
                    column[n:end] = values
                n = end
        except UnicodeDecodeError as exc:
            bad = exc.object[exc.start : exc.end].hex(" ")
            raise IngestError(f"{where}: not UTF-8 text ({exc.reason}: byte {bad})") from exc

    if row_errors is not None:
        row_errors.extend(errors)
    for err in errors[:20]:
        log.warning("%s line %d: %s", where, err.line, err.reason)
    if len(errors) > 20:
        log.warning("%s: %d further row errors suppressed", where, len(errors) - 20)
    rows = n + len(errors)  # every row that is not blank is kept or rejected
    if len(errors) > 0.01 * rows:
        raise IngestError(f"{where}: {len(errors)} of {rows} rows malformed (more than 1%)")
    for column in out:
        column.resize(n, refcheck=False)
    return Records(*out, input_sha256=digest.hexdigest())


def _refuse_local_clock(records: Records, order: np.ndarray, stamps: np.ndarray,
                        first: np.ndarray) -> None:
    """Raise when one clock hour, 12 consecutive samples, repeats with other
    values, as a daylight-saving fall-back writes it in local clock time.
    ``stamps`` are the records' stamps in ``order``, and ``first`` marks the
    first row of each."""
    again = np.flatnonzero(~first)  # where each repeated row is in ``order``
    rows, firsts = order[again], order[np.searchsorted(stamps, stamps[again])]  # and its first
    changed = np.zeros(again.size, bool)
    for name in _COLUMNS[1:]:
        changed |= getattr(records, name)[rows] != getattr(records, name)[firsts]
    repeated = np.unique(stamps[again[changed]])
    steps = np.concatenate(([0], np.cumsum(np.diff(repeated) == _CADENCE_US)))
    hour = SAMPLES_PER_HOUR
    runs = np.flatnonzero(steps[hour - 1:] - steps[:1 - hour] == hour - 1)
    if runs.size:
        raise IngestError(f"the hour from {_utc(repeated[runs[0]]).isoformat()} repeats with "
                          "other values: the file looks like local clock time, not UTC")


def canonicalize(records: Records) -> GridSeries:
    """Sort, de-duplicate, gap-fill and convert raw records to a GridSeries.

    Records in strictly increasing time order, as every clean export is, are
    taken in their order with no sort. Duplicated timestamps keep the first
    occurrence, unless a clock hour repeats with other values, which is fatal
    (the file looks like local clock time). Gaps of up to one hour (12
    samples) are filled by linear interpolation; anything longer is fatal, as
    is any timestamp off the 300 s grid. All repairs are recorded in the
    provenance and logged. The series carries the records' ``input_sha256``.
    """
    if not len(records):
        raise IngestError("no records to canonicalize")
    stamps, order, dropped = records.timestamp_us, None, 0
    if not (stamps[1:] > stamps[:-1]).all():  # out of order or repeated: sort, keep the firsts
        order = np.argsort(stamps, kind="stable")
        stamps = stamps[order]
        first = np.concatenate(([True], stamps[1:] != stamps[:-1]))
        dropped = stamps.size - int(np.count_nonzero(first))
        if dropped:
            _refuse_local_clock(records, order, stamps, first)
            order, stamps = order[first], stamps[first]
    start = int(stamps[0])

    # the offsets, then the sample indices; the caller's stamps are never written
    idx = np.subtract(stamps, start, out=None if order is None else stamps)
    misaligned = idx % _CADENCE_US != 0
    if np.any(misaligned):
        bad = _utc(start + idx[np.argmax(misaligned)])
        raise IngestError(f"non-{CADENCE_S} s cadence at {bad.isoformat()}")
    idx //= _CADENCE_US

    gaps = np.diff(idx) - 1
    n_gaps = int(np.count_nonzero(gaps))
    worst_at = int(np.argmax(gaps)) if n_gaps else 0
    if n_gaps and gaps[worst_at] > MAX_GAP_SAMPLES:
        gap_start = _utc(start + (int(idx[worst_at]) + 1) * _CADENCE_US)
        raise IngestError(f"gap exceeds 1 hour: {int(gaps[worst_at])} consecutive samples "
                          f"missing from {gap_start.isoformat()}")
    gaps = np.flatnonzero(gaps)  # now the kept sample before each gap
    around = np.union1d(gaps, gaps + 1)  # and the one after: all np.interp reads

    n = int(idx[-1]) + 1
    present = np.zeros(n, bool)
    present[idx] = True
    missing = np.flatnonzero(np.logical_not(present, out=present))

    def gw(mw: np.ndarray) -> np.ndarray:
        """The kept values at their samples, linear between them at the missing
        ones (np.interp over every sample, bit for bit), in GW and read-only.
        With no sample missing, the gathered values, or a new array of the
        caller's, are the output."""
        kept = mw if order is None else mw[order]
        if not missing.size:
            return _frozen(np.divide(kept, MW_PER_GW, out=None if order is None else kept))
        out = np.empty(n)
        out[idx] = kept
        out[missing] = np.interp(missing, idx[around], kept[around])
        out /= MW_PER_GW
        return _frozen(out)

    provenance = []
    if dropped:
        provenance.append(f"dropped {dropped} duplicate-timestamp rows (kept first)")
    if missing.size:
        provenance.append(f"interpolated {missing.size} missing samples across {n_gaps} gaps")
    for note in provenance:
        log.info(note)

    return GridSeries(
        start_time=_utc(start),
        demand=gw(records.demand_mw),
        wind_metered=gw(records.wind_mw),
        solar=gw(records.solar_mw),
        provenance=tuple(provenance),
        input_sha256=records.input_sha256,
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
