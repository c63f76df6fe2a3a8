"""Result CSV output: the one place that knows the file format.

Every result file is a header row over equal-length columns. Floats are
written as their shortest round-trip repr, timestamps as UTC
``YYYY-MM-DDTHH:MM:SSZ``, and integers and strings as themselves.
"""

from __future__ import annotations

import csv
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

import numpy as np

from .ingest import CADENCE_S

# Rows formatted per writerows call; bounds the Python objects alive at once,
# so a year-long export does not raise peak memory.
CHUNK_ROWS = 8192


def sample_times(start_time: datetime, n: int) -> np.ndarray:
    """datetime64[s] timestamps of n samples at the 300 s cadence (naive = UTC)."""
    if start_time.tzinfo is not None:
        start_time = start_time.astimezone(timezone.utc).replace(tzinfo=None)
    return np.datetime64(start_time, "s") + np.arange(n) * np.timedelta64(CADENCE_S, "s")


def _cells(column: np.ndarray) -> list:
    if column.dtype.kind == "M":
        return np.datetime_as_string(column, unit="s", timezone="UTC").tolist()
    return column.tolist()  # Python floats, which csv writes as repr


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
        writer = csv.writer(fh)
        for n, (head, cols) in enumerate([(header, columns), *more]):
            arrays = [np.asarray(c) for c in cols]
            rows = len(arrays[0]) if arrays else 0
            if len(head) != len(arrays) or any(len(a) != rows for a in arrays):
                raise ValueError("header and columns must match in count and length")
            if n:
                writer.writerow([])
            writer.writerow(head)
            for lo in range(0, rows, CHUNK_ROWS):
                writer.writerows(zip(*(_cells(a[lo : lo + CHUNK_ROWS]) for a in arrays)))
