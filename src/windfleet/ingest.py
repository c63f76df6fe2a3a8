"""Parse, validate and repair raw 5-minute grid records; cut out the 52-week year.

Input files are CSV with MW values; everything downstream works in GW.
Repairs (gap interpolation, duplicate removal) are conservative and logged:
long outages must fail loudly rather than silently fabricate wind lulls.

The file is read as bytes, READ_BYTES at a time; each read is scanned once
for the line ends where csv.reader cuts lines, and the lines are parsed
CHUNK_ROWS at a time. In a chunk without a quote, the plain rows are read
straight from the bytes: rows with one cell per header column and a
timestamp of 19, 20 or 25 ASCII bytes in YYYY-MM-DD[T ]HH:MM:SS[Z|+00:00]
form, read one byte matrix per length (_iso_cells). One orjson call per
chunk reads their value cells that are plain JSON numbers, as float() does;
their other value cells ("n/a", "nan", " 900 ", blanks ...) go through
float(), which also gives the reasons. A chunk whose quotes each wrap a
whole cell on one line, with no comma in it, is read the same way once its
quotes are taken out. The other lines of these chunks (blank, short or long
lines, other timestamp forms) are split on commas, and any other chunk with
a quote goes through the csv module. Both kinds of row then take one path:
their values through float(), their timestamps through _parse_timestamp,
after _iso_cells when a chunk has more than _FEW_TEXTS of them. All give
the cells, row errors and line numbers of one csv.reader over the whole
file.
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
# file lines parsed together: 4,096 parse a year about 10% faster, and 8,192
# raise the parse's peak traced memory by 0.8 MB
CHUNK_ROWS = 2048
READ_BYTES = 1 << 16  # bytes per file read; a chunk's lines may take several reads

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
_FEW_TEXTS = 64  # up to this many timestamp texts, _parse_timestamp one by one is faster
_BOM = b"\xef\xbb\xbf"  # UTF-8 byte-order mark
# what the JSON text of plain value cells may hold inside its brackets; no
# space, so "-0" is the one integer zero with a sign
_JSON_BYTES = b"0123456789eE.+-,\n"
# bytes.translate table: 1 for a byte that text may not hold, else 0
_FOREIGN = bytes(b not in _JSON_BYTES for b in range(256))

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


def _timestamps_us(texts: Sequence[str], reasons: dict[int, str]) -> np.ndarray:
    """UTC microseconds per text; a text _parse_timestamp rejects gets a reason.

    Among more than _FEW_TEXTS texts, those in one of _iso_utc_us's forms are
    read by _iso_cells first, and only the others go through _parse_timestamp.
    """
    n = len(texts)
    us = np.zeros(n, np.int64)
    slow = range(n)
    if n > _FEW_TEXTS:
        # one byte per character: "?" for any other than ASCII, which no form holds
        data = np.frombuffer("".join(texts).encode("ascii", "replace"), np.uint8)
        hi = np.cumsum(np.fromiter(map(len, texts), np.int64, n))
        us, fast = _iso_cells(data, np.append(0, hi[:-1]), hi)
        slow = np.flatnonzero(~fast).tolist()
    for j in slow:
        try:
            us[j] = (_parse_timestamp(texts[j]) - _EPOCH) // _ONE_US
        except (ValueError, OverflowError) as exc:
            reasons.setdefault(j, f"unparseable field: {exc}")
    return us


def _floats(texts: Sequence[str], reasons: dict[int, str]) -> np.ndarray:
    """float() of each text, in one call for the column; text by text when
    one fails, where a text float() rejects gets NaN and a reason by row."""
    try:
        return np.fromiter(map(float, texts), np.float64, len(texts))
    except ValueError:
        return np.array([_float(text, j, reasons) for j, text in enumerate(texts)], np.float64)


def _float(text: str, j: int, reasons: dict[int, str]) -> float:
    """float(text), or NaN with a reason for row ``j``."""
    try:
        return float(text)
    except ValueError as exc:
        reasons.setdefault(j, f"unparseable field: {exc}")
        return np.nan


def _columns(rows: list[list[str]], width: int, fields: list[int], need: int):
    """The ``fields`` columns of ``rows``, given as lists of cells.

    A row of at most ``width`` cells that are all whitespace is blank and
    dropped. Returns the columns, the mask of rows kept and, by kept row, the
    reason of each row with fewer than ``need`` cells; its missing cells read "".
    """
    n = len(rows)
    lengths = np.fromiter(map(len, rows), np.int64, n)
    keep = (lengths > width) | np.fromiter(map(bool, map(str.strip, map("".join, rows))), bool, n)
    rows = list(compress(rows, keep))
    reasons = {}
    for j in np.flatnonzero(lengths[keep] < need).tolist():
        reasons[j] = f"too few fields: {len(rows[j])}, the mapped columns need {need}"
        rows[j] = rows[j] + [""] * (need - len(rows[j]))
    return [list(map(itemgetter(i), rows)) for i in fields], keep, reasons


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


def _plain_rows(chunk: bytes, starts: np.ndarray, stops: np.ndarray, nexts: np.ndarray,
                width: int, fields: list[int]) -> tuple[np.ndarray, ...]:
    """The plain lines of a quote-free chunk, read straight from its bytes.

    Line i of ``chunk`` runs from ``starts[i]`` to ``stops[i]``, where its
    line end begins, and the next line starts at ``nexts[i]``; every line has
    a line end. A line is plain when it has ``width`` cells and its timestamp
    cell is in one of _iso_utc_us's forms. Its value cells come from one
    orjson call on a copy of the chunk in brackets, where all bytes but the
    value cells are blanked to "\\n", which JSON reads as whitespace, and the
    byte after each value cell is a comma; orjson rounds as float() does. A value cell that
    is empty, holds a byte outside ``0-9eE.+-`` or is the integer "-0",
    whose sign orjson drops, is blanked too and read by float(), which also
    gives the reason; so is every cell of a chunk that orjson rejects ("+1",
    ".5", "01", "1e400" ...). Returns the mask of plain lines, their
    timestamp_us and lines x 3 demand/wind/solar values, and the reasons of
    those that failed, by line.
    """
    n = stops.size
    us, values, plain = np.zeros(n, np.int64), np.empty((n, 3)), np.zeros(n, bool)
    data = np.frombuffer(chunk, np.uint8)
    commas = np.flatnonzero(data == ord(","))
    first = np.searchsorted(commas, starts)  # index of each line's first comma
    lines = np.flatnonzero(np.searchsorted(commas, stops) - first == width - 1)

    def cell(k: int) -> tuple[np.ndarray, np.ndarray]:
        """Where cell ``k`` of each line in ``lines`` starts and ends."""
        lo = starts[lines] if k == 0 else commas[first[lines] + (k - 1)] + 1
        hi = stops[lines] if k == width - 1 else commas[first[lines] + k]
        return lo, hi

    stamps, ok = _iso_cells(data, *cell(fields[0]))
    lines = lines[ok]
    us[lines] = stamps[ok]
    if not lines.size:
        return plain, us, values, {}
    plain[lines] = True

    text = bytearray(b"[" + chunk + b"]")
    codes = np.frombuffer(text, np.uint8)[1:]  # offsets as in the chunk
    _blank(codes, starts[~plain], nexts[~plain] - starts[~plain])
    picked = sorted(set(fields[1:]))  # the value columns in file order, each once
    for k in range(width):
        if k not in picked:  # the cell, and the comma or line end after it
            lo, hi = cell(k)
            _blank(codes, lo, hi - lo + 1)
    cells = [cell(k) for k in picked]
    for lo, hi in cells:
        codes[hi] = ord(",")  # after each value, whether a comma or a line end was there
    odd = np.zeros((lines.size, len(picked)), bool)
    for i, (lo, hi) in enumerate(cells):
        odd[:, i] = hi == lo
        two = np.flatnonzero(hi - lo == 2)
        odd[two[(data[lo[two]] == ord("-")) & (data[lo[two] + 1] == ord("0"))], i] = True
    if text.translate(None, _JSON_BYTES) != b"[]":  # some value cells hold other bytes
        at = np.flatnonzero(np.frombuffer(text.translate(_FOREIGN), bool)[1:-1])
        row = np.searchsorted(starts[lines], at, "right") - 1
        for i, (lo, hi) in enumerate(cells):
            odd[row[(lo[row] <= at) & (at < hi[row])], i] = True
    for i, (lo, hi) in enumerate(cells):  # each odd cell, with the byte after it
        rows = np.flatnonzero(odd[:, i])
        if rows.size:
            _blank(codes, lo[rows], hi[rows] - lo[rows] + 1)
    table = np.empty(odd.shape)
    if not odd.all():
        text[text.rfind(b",")] = ord("\n")  # no comma after the last value
        try:
            table[~odd] = orjson.loads(text)
        except orjson.JSONDecodeError:
            odd[:] = True
    reasons = {}
    for f in fields[1:]:  # in field order, so that a row's first failure names it
        i = picked.index(f)
        rows = np.flatnonzero(odd[:, i]).tolist()
        if rows:
            lo, hi = cells[i]
            texts = [chunk[a:b].decode() for a, b in zip(lo[rows].tolist(), hi[rows].tolist())]
            failed = {}
            table[rows, i] = _floats(texts, failed)
            for j, reason in failed.items():
                reasons.setdefault(int(lines[rows[j]]), reason)
    values[lines] = table[:, [picked.index(k) for k in fields[1:]]]
    return plain, us, values, reasons


def _unquoted(chunk: bytes, starts: np.ndarray, stops: np.ndarray, nexts: np.ndarray):
    """``chunk`` with its quotes taken out, and its line offsets in that text,
    when every quote opens or closes a whole cell on one line with no comma
    or quote in it: then splitting on commas gives csv.reader's cells. Else
    everything as given."""
    data = np.frombuffer(chunk, np.uint8)
    quotes = np.flatnonzero(data == ord('"'))
    if quotes.size % 2:
        return chunk, starts, stops, nexts
    opens, closes = quotes[0::2], quotes[1::2]
    line = np.searchsorted(stops, opens, "right")
    commas = np.flatnonzero(data == ord(","))
    whole = line == np.searchsorted(stops, closes, "right")
    whole &= np.searchsorted(commas, opens) == np.searchsorted(commas, closes)
    whole &= (starts[line] == opens) | (data[opens - 1] == ord(","))
    whole &= (stops[line] == closes + 1) | (data[np.minimum(closes + 1, data.size - 1)] == ord(","))
    if not whole.all():
        return chunk, starts, stops, nexts
    moved = [offsets - np.searchsorted(quotes, offsets) for offsets in (starts, stops, nexts)]
    return chunk.replace(b'"', b""), *moved


def _line_breaks(field: str) -> int:
    return field.count("\n") + field.count("\r") - field.count("\r\n")


def _line_ends(data: bytes, start: int, final: bool) -> tuple[np.ndarray, np.ndarray]:
    """Where each line of ``data[start:]`` ends: the offset of its line end's
    first byte, and the offset after its line end.

    A line ends in "\\n", "\\r\\n" or a lone "\\r", as csv.reader reads lines.
    A last line with no line end counts only when the data is ``final``; so
    does a "\\r" at the very end, which may begin a "\\r\\n".
    """
    codes = np.frombuffer(data, np.uint8, offset=start)
    if data.find(b"\r", start) < 0:
        stops = np.flatnonzero(codes == ord("\n"))
        nexts = stops + 1
    else:
        ends = np.flatnonzero((codes == ord("\n")) | (codes == ord("\r")))
        cr = codes[ends] == ord("\r")
        pair = cr[:-1] & ~cr[1:] & (np.diff(ends) == 1)  # a "\r\n" starts here
        stops = ends[np.concatenate(([True], ~pair))]
        nexts = stops + 1 + np.append(pair, False)[np.concatenate(([True], ~pair))]
        if not final and stops.size and stops[-1] == codes.size - 1 and cr[-1]:
            stops, nexts = stops[:-1], nexts[:-1]
    if final and (nexts[-1] if nexts.size else 0) < codes.size:
        stops, nexts = np.append(stops, codes.size), np.append(nexts, codes.size)
    return stops + start, nexts + start


class _Lines:
    """The lines of a binary file, read READ_BYTES at a time and cut where
    csv.reader cuts them; a UTF-8 byte-order mark at its start is skipped."""

    def __init__(self, fh):
        self._fh = fh
        self._data = fh.read(len(_BOM))  # bytes read and not yet taken
        if self._data == _BOM:
            self._data = b""
        self._stops = self._nexts = np.zeros(0, np.int64)  # of the lines found in _data
        self._eof = False

    def _fill(self, n: int) -> None:
        """Read until ``n`` lines are found, or to the end of the file; each
        read is scanned from the end of the last line found."""
        while self._nexts.size < n and not self._eof:
            found = int(self._nexts[-1]) if self._nexts.size else 0
            block = self._fh.read(READ_BYTES)
            self._eof = not block
            self._data += block
            stops, nexts = _line_ends(self._data, found, self._eof)
            self._stops = np.concatenate((self._stops, stops))
            self._nexts = np.concatenate((self._nexts, nexts))

    def take(self, n: int) -> tuple[bytes, np.ndarray, np.ndarray] | None:
        """The next ``n`` lines, fewer at the end of the file, or None after
        the last: their bytes, and in them each line's _line_ends offsets."""
        self._fill(n)
        if not self._nexts.size:
            return None
        stops, nexts = self._stops[:n], self._nexts[:n]
        end = int(nexts[-1])
        chunk, self._data = self._data[:end], self._data[end:]
        self._stops, self._nexts = self._stops[n:] - end, self._nexts[n:] - end
        return chunk, stops, nexts

    def texts(self) -> Iterator[str]:
        """The lines left, one at a time, as text with their line ends."""
        while got := self.take(1):
            yield got[0].decode()


def _chunks(lines: _Lines, done: int, width: int, fields: list[int], path: Path):
    """Non-blank rows after the header, CHUNK_ROWS lines at a time.

    ``done`` is the number of lines the header took. Yields each chunk's
    timestamp_us, its rows x 3 demand/wind/solar values, the line each row
    ends on, and the reasons of the rows that failed to parse, by row. A
    chunk with no line longer than the csv field limit, and no quote once
    _unquoted is done with it, has its plain lines read by _plain_rows and
    its other lines split on commas. Any other chunk goes through
    csv.reader, one row per line of the chunk; the reader reads on from the
    file while a quoted field is open, so rows, line numbers and errors are
    those of one csv.reader over the whole file. The split or csv.reader
    rows go through _columns, which drops the blank ones, and then
    _parse_timestamp and float(), which give the reasons.
    """
    need = max(fields) + 1
    limit = csv.field_size_limit()
    while got := lines.take(CHUNK_ROWS):
        chunk, stops, nexts = got
        if not chunk.isascii():
            chunk.decode()  # text that is not UTF-8 raises here
        starts = np.concatenate(([0], nexts[:-1]))
        short = len(chunk) <= limit or (nexts - starts).max() <= limit
        if short and b'"' in chunk:
            chunk, starts, stops, nexts = _unquoted(chunk, starts, stops, nexts)
        if short and b'"' not in chunk:
            numbers = np.arange(done + 1, done + stops.size + 1)
            done += stops.size
            if stops[-1] == len(chunk):  # the file's last line, with no line end
                chunk += b"\n"
                nexts = np.append(nexts[:-1], len(chunk))
            plain, us, values, reasons = _plain_rows(chunk, starts, stops, nexts, width, fields)
            odd = np.flatnonzero(~plain)
            cuts = zip(starts[odd].tolist(), stops[odd].tolist())
            rows = [chunk[a:b].decode().split(",") for a, b in cuts]
        else:
            texts = [chunk[a:b].decode() for a, b in zip(starts.tolist(), nexts.tolist())]
            reader = csv.reader(chain(texts, lines.texts()))
            try:
                rows = list(islice(reader, len(texts)))
            except csv.Error as exc:
                raise IngestError(f"{path} line {done + reader.line_num}: {exc}") from exc
            if reader.line_num == len(rows):
                numbers = np.arange(done + 1, done + len(rows) + 1)
            else:  # a row ends one line after the last, plus its fields' line breaks
                numbers = done + np.cumsum([1 + sum(map(_line_breaks, row)) for row in rows])
            done += reader.line_num
            odd = np.arange(len(rows))
            us, values, reasons = np.zeros(odd.size, np.int64), np.empty((odd.size, 3)), {}
        if rows:
            columns, kept, failed = _columns(rows, width, fields, need)
            at = odd[kept]
            us[at] = _timestamps_us(columns[0], failed)
            for i, column in enumerate(columns[1:]):
                values[at, i] = _floats(column, failed)
            reasons.update((int(at[j]), reason) for j, reason in failed.items())
            if not kept.all():  # drop the blank rows; reasons go by the rows left
                keep = np.ones(us.size, bool)
                keep[odd[~kept]] = False
                rank = np.cumsum(keep) - 1
                reasons = {int(rank[j]): reason for j, reason in reasons.items()}
                us, values, numbers = us[keep], values[keep], numbers[keep]
        if us.size:
            yield us, values, numbers, reasons


def _parse_chunk(
    us: np.ndarray, values: np.ndarray, lines: np.ndarray, reasons: dict[int, str],
    errors: list[RowError],
) -> tuple[np.ndarray, ...]:
    """The accepted rows of one chunk as timestamp_us, demand, wind, solar columns.

    ``reasons`` holds the rows that failed to parse, by row. Each rejected
    row appends one RowError, in line order. Its reason is the first failure
    in the order: too few fields, the timestamp, demand, wind and solar
    fields, non-finite value, demand sign, wind and solar sign.
    """
    demand, wind, solar = values.T
    bad = np.zeros(us.size, dtype=bool)
    bad[list(reasons)] = True
    range_checks = (
        (~np.isfinite(values).all(axis=1), lambda j: "non-finite value"),
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
        fh = open(path, "rb")
    except OSError as exc:
        raise IngestError(f"cannot open input file: {exc}") from exc

    out = [np.empty(0, np.int64), np.empty(0), np.empty(0), np.empty(0)]  # no view of these exists
    n = 0
    errors: list[RowError] = []
    n_rows = 0
    with fh:
        lines = _Lines(fh)
        reader = csv.reader(lines.texts())
        try:
            header = next(reader, None)
            if header is None:
                raise IngestError(f"{path}: empty file, no header row")
            missing = [c for c in columns.values() if c not in header]
            if missing:
                raise IngestError(f"{path}: missing column(s) {missing}; file has {header}")
            repeated = [c for c in columns.values() if header.count(c) > 1]
            if repeated:
                raise IngestError(f"{path}: mapped column {repeated[0]!r} repeats in the header")
            position = {name: i for i, name in enumerate(header)}
            fields = [position[columns[k]] for k in ("timestamp", "demand", "wind", "solar")]
            for chunk in _chunks(lines, reader.line_num, len(header), fields, path):
                n_rows += chunk[2].size
                part = _parse_chunk(*chunk, errors)
                end = n + part[0].size
                if end > out[0].size:  # grown in place, so no chunk's part outlives it
                    for column in out:
                        column.resize(max(2 * column.size, end), refcheck=False)
                for column, values in zip(out, part):
                    column[n:end] = values
                n = end
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
    for column in out:
        column.resize(n, refcheck=False)
    return Records(*out)


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
