"""Result CSV output: the one place that knows the file format.

Every result file is a header row over equal-length columns. Floats are
written as orjson's shortest round-trip text, and as their ``repr`` where
that uses exponent notation or the value is not finite, so the bytes are
those of ``repr`` throughout. Timestamps are written by orjson as UTC
``YYYY-MM-DDTHH:MM:SSZ``; NaT, and a time before year 1, is a ValueError.
Integers and strings are written as themselves.

The bytes are those of the csv module's excel dialect: ``\\r\\n`` line ends,
and minimal quoting (a cell holding a comma, a double quote or a line break
is wrapped in double quotes, with its double quotes doubled; a row that is
one empty cell is written ``""``).

Rows are built as bytes, CHUNK_ROWS at a time: each run of adjacent float
columns is one orjson call over its rows, split into row texts, and each
timestamp column one orjson call, split into cells; one join makes the
chunk's text.
write_blocks writes columns that their caller makes one block at a time,
such as a year scaled to MW, through the same formatting.
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from itertools import groupby
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
import orjson

from .ingest import CADENCE_S

# Rows formatted per write; bounds the bytes alive at once, so a year-long
# export does not raise peak memory.
CHUNK_ROWS = 8192

_NEEDS_QUOTES = re.compile('[,"\r\n]')
_YEAR_ONE = np.datetime64("0001-01-01T00:00:00")
_STAMP_OPTIONS = orjson.OPT_SERIALIZE_NUMPY | orjson.OPT_NAIVE_UTC | orjson.OPT_UTC_Z


def sample_times(start_time: datetime, n: int) -> np.ndarray:
    """datetime64[s] timestamps of n samples at the 300 s cadence (naive = UTC)."""
    if start_time.tzinfo is not None:
        start_time = start_time.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(start_time, "s") + np.arange(n) * np.timedelta64(CADENCE_S, "s")


def _quoted(cell: str) -> str:
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _float_rows(run: Sequence[np.ndarray]) -> list[bytes]:
    """Each row's cells of adjacent float columns, comma-joined, from one orjson call.

    orjson's digits are those of repr, except where repr uses exponent
    notation, 0 < |x| < 1e-4 and |x| >= 1e16 (orjson writes 1e-5 for 1e-05),
    and for nan and inf (orjson writes null); a row holding such a cell is
    written with repr.
    """
    values = np.column_stack(run).astype(np.float64, copy=False)  # C order, as orjson takes
    rows = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].split(b"],[")
    magnitude = np.abs(values)
    unlike_repr = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (magnitude != 0)
    for i in np.flatnonzero(unlike_repr.any(axis=1)).tolist():
        rows[i] = ",".join(map(float.__repr__, values[i].tolist())).encode()
    return rows


def _stamps(times: np.ndarray) -> list[bytes]:
    """UTC ``YYYY-MM-DDTHH:MM:SSZ`` of each datetime64, as np.datetime_as_string
    writes it, from one orjson call. orjson aborts the interpreter on NaT and
    misspells negative years, so NaT, or a time before datetime's year 1, is a
    ValueError before the call."""
    seconds = times.astype("datetime64[s]")
    if not (seconds >= _YEAR_ONE).all():  # False for NaT too
        raise ValueError("timestamps must be times from year 1 on, not NaT")
    return orjson.dumps(seconds, option=_STAMP_OPTIONS)[2:-2].split(b'","')


def _segments(columns: Sequence[np.ndarray]) -> list[list[bytes]]:
    """The cell texts of each column, with each run of adjacent float columns
    as one segment of row texts; only str() of other kinds can need quoting."""
    segments = []
    for is_float, run in groupby(columns, key=lambda c: c.dtype.kind == "f"):
        if is_float:
            segments.append(_float_rows(list(run)))
        else:
            segments += [
                _stamps(c) if c.dtype.kind == "M"
                else [_quoted(str(value)).encode() for value in c.tolist()]
                for c in run
            ]
    return segments


def _write_rows(fh, segments: Sequence[list[bytes]]) -> None:
    """Rows of cell texts, given segment by segment, each row ended by ``\\r\\n``."""
    if len(segments) == 1:  # csv quotes a row that is one empty cell: it is not a blank line
        segments = [[cell or b'""' for cell in segments[0]]]
    fh.write(b"\r\n".join(map(b",".join, zip(*segments))))
    fh.write(b"\r\n")  # on its own, so the rows' text is not copied


def write_csv(
    path: str | Path,
    header: Sequence[str],
    columns: Sequence[Sequence],
    more: Sequence[tuple[Sequence[str], Sequence[Sequence]]] = (),
) -> None:
    """Write header and columns (arrays or lists) as rows.

    datetime64 columns (see sample_times) become timestamp strings. ``more``
    holds further (header, columns) blocks, each written after an empty row.
    """
    with open(path, "wb") as fh:
        for n, (head, cols) in enumerate([(header, columns), *more]):
            arrays = [np.asarray(c) for c in cols]
            rows = len(arrays[0]) if arrays else 0
            if len(head) != len(arrays) or any(len(a) != rows for a in arrays):
                raise ValueError("header and columns must match in count and length")
            if n:
                fh.write(b"\r\n")
            _write_table(fh, head, ([a[lo : lo + CHUNK_ROWS] for a in arrays]
                                    for lo in range(0, rows, CHUNK_ROWS)))


def write_blocks(path: str | Path, header: Sequence[str],
                 blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """Write header and then the rows of each block of columns, as write_csv
    writes them, for columns that are made one block at a time. Each block
    holds one nonempty array per header name, all of one length."""
    with open(path, "wb") as fh:
        _write_table(fh, header, blocks)


def _write_table(fh, header: Sequence[str], blocks: Iterable[Sequence[np.ndarray]]) -> None:
    """The header row, then each block's rows, formatted one block at a time."""
    _write_rows(fh, [[_quoted(str(name)).encode()] for name in header])
    for block in blocks:
        _write_rows(fh, _segments(block))
