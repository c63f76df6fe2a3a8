"""Result CSV output: the one place that knows the file format.

Every result file is a header row over equal-length columns. Floats are
written as orjson's shortest round-trip text, and as their ``repr`` where
that uses exponent notation or the value is not finite, so the bytes are
those of ``repr`` throughout. Timestamps are written as UTC
``YYYY-MM-DDTHH:MM:SSZ``, and integers and strings as themselves.

The bytes are those of the csv module's excel dialect: ``\\r\\n`` line ends,
and minimal quoting (a cell holding a comma, a double quote or a line break
is wrapped in double quotes, with its double quotes doubled; a row that is
one empty cell is written ``""``).
"""

from __future__ import annotations

import re
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np
import orjson

from .ingest import CADENCE_S

# Rows formatted per write; bounds the Python strings alive at once, so a
# year-long export does not raise peak memory.
CHUNK_ROWS = 8192

_NEEDS_QUOTES = re.compile('[,"\r\n]')


def sample_times(start_time: datetime, n: int) -> np.ndarray:
    """datetime64[s] timestamps of n samples at the 300 s cadence (naive = UTC)."""
    if start_time.tzinfo is not None:
        start_time = start_time.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(start_time, "s") + np.arange(n) * np.timedelta64(CADENCE_S, "s")


def _quoted(cell: str) -> str:
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _cells(columns: Sequence[np.ndarray]) -> list[list[str]]:
    """Each column's cell texts; only str() of other kinds can need quoting.

    The float columns, all of one length, are formatted by one orjson call.
    """
    floats = [c.dtype.kind == "f" for c in columns]
    if any(floats):
        # one C-contiguous float64 array, as orjson takes; its digits are those of repr
        values = np.concatenate([c for c, f in zip(columns, floats) if f], dtype=np.float64)
        text = orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
        # except where repr uses exponent notation, 0 < |x| < 1e-4 and |x| >= 1e16
        # (orjson writes 1e-5 for 1e-05), and for nan and inf (orjson writes null)
        magnitude = np.abs(values)
        unlike_repr = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (magnitude != 0)
        for i in np.flatnonzero(unlike_repr).tolist():
            text[i] = repr(float(values[i]))
        n = len(columns[0])
        float_cells = iter([text[lo : lo + n] for lo in range(0, len(text), n)])
    return [
        next(float_cells) if is_float
        else np.datetime_as_string(c, unit="s", timezone="UTC").tolist() if c.dtype.kind == "M"
        else [_quoted(str(value)) for value in c.tolist()]
        for c, is_float in zip(columns, floats)
    ]


def _rows(cells: Sequence[list[str]]) -> str:
    """Rows of cell texts, given column by column, each row ended by ``\\r\\n``."""
    if len(cells) == 1:  # csv quotes a row that is one empty cell: it is not a blank line
        cells = [[cell or '""' for cell in cells[0]]]
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


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
    with open(path, "w", newline="", encoding="utf-8") as fh:
        for n, (head, cols) in enumerate([(header, columns), *more]):
            arrays = [np.asarray(c) for c in cols]
            rows = len(arrays[0]) if arrays else 0
            if len(head) != len(arrays) or any(len(a) != rows for a in arrays):
                raise ValueError("header and columns must match in count and length")
            if n:
                fh.write("\r\n")
            fh.write(_rows([[_quoted(str(name))] for name in head]))
            for lo in range(0, rows, CHUNK_ROWS):
                fh.write(_rows(_cells([a[lo : lo + CHUNK_ROWS] for a in arrays])))
