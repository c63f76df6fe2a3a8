"""Seeded benchmark inputs built on windfleet's closed-form synthetic year.

The dirty export imitates a grid operator's download of the same year:
renamed and reordered columns, an ISO timestamp with a space and an offset,
MW values at three decimals, and a seeded set of defects whose counts are
fixed so that every seed exercises the same amount of repair work:

- malformed rows (unparseable, empty, negative, non-finite or truncated),
  inserted as extra lines so that they leave no gap behind;
- duplicate timestamps carrying a revised reading, placed after the original
  so that "keep first" keeps the original;
- short gaps of 1 to 12 samples, none touching another or the first or last
  sample;
- week blocks written in shuffled order;
- three trailing days past week 52.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

SAMPLES_PER_WEEK = 2016
SAMPLES_PER_YEAR = 52 * SAMPLES_PER_WEEK
SAMPLES_PER_DAY = 288
TRAILING_DAYS = 3
GAP_LENGTHS = (1, 1, 1, 2, 2, 3, 4, 6, 8, 12)  # cycled to N_GAPS gaps
N_GAPS = 400
N_DUPLICATES = 520
N_MALFORMED = 520
MAX_GAP = 12

# logical column -> column name in the export; file order differs from the default
COLUMNS = {"timestamp": "datetime_utc", "demand": "nd_mw", "wind": "wind_mw", "solar": "solar_mw"}
FILE_ORDER = ("timestamp", "wind", "demand", "solar")


@dataclass(frozen=True)
class DirtyYear:
    """What was written to a dirty export, and what a correct ingester recovers."""

    rows: int  # data lines, malformed ones included
    counts: dict[str, int]  # defects written, in the ingester's terms
    demand_gw: np.ndarray  # canonical 52-week series a correct ingester produces
    wind_gw: np.ndarray  # metered wind, before normalization
    solar_gw: np.ndarray


def columns_flag() -> str:
    return ",".join(f"{k}={v}" for k, v in COLUMNS.items())


def write_dirty_export(seed: int, synthetic_year, path) -> DirtyYear:
    """Write the dirty export for ``seed``, built on windfleet's ``synthetic_year``."""
    rng = random.Random(seed)
    n = SAMPLES_PER_YEAR + TRAILING_DAYS * SAMPLES_PER_DAY
    series = synthetic_year(n_samples=n)

    # gaps: one per equal slot, at a seeded offset, never touching a slot edge
    lengths = [GAP_LENGTHS[g % len(GAP_LENGTHS)] for g in range(N_GAPS)]
    rng.shuffle(lengths)
    slot = (n - 2) // N_GAPS
    missing = np.zeros(n, dtype=bool)
    for g, length in enumerate(lengths):
        first = 1 + g * slot + rng.randrange(1, slot - length)
        missing[first:first + length] = True
    kept = np.flatnonzero(~missing)
    kept_list = kept.tolist()
    duplicated = set(rng.sample(kept_list, N_DUPLICATES))
    malformed_after = dict(zip(rng.sample(kept_list, N_MALFORMED), range(N_MALFORMED)))
    order = list(range(-(-n // SAMPLES_PER_WEEK)))
    rng.shuffle(order)

    mw = {k: (v * 1000.0).tolist() for k, v in
          (("demand", series.demand), ("wind", series.wind_metered), ("solar", series.solar))}
    written = {k: np.zeros(n) for k in ("demand", "wind", "solar")}  # values as the file states them
    is_missing = missing.tolist()
    t0 = np.datetime64(series.start_time.replace(tzinfo=None), "s")
    rows = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(COLUMNS[k] for k in FILE_ORDER) + "\n")
        for block in order:
            lo, hi = block * SAMPLES_PER_WEEK, min(n, (block + 1) * SAMPLES_PER_WEEK)
            stamps = np.datetime_as_string(t0 + np.arange(lo, hi) * np.timedelta64(300, "s"), unit="s")
            lines = []
            for i, stamp in zip(range(lo, hi), stamps.tolist()):
                if is_missing[i]:
                    continue
                row = {"timestamp": stamp.replace("T", " ") + "+00:00"}
                row.update((k, f"{mw[k][i]:.3f}") for k in ("demand", "wind", "solar"))
                for k in written:
                    written[k][i] = float(row[k])
                lines.append(_line(row))
                if i in duplicated:
                    lines.append(_line({k: (v if k == "timestamp" else f"{float(v) * 1.01:.3f}")
                                        for k, v in row.items()}))
                if i in malformed_after:
                    lines.append(_malformed(malformed_after[i], row))
            fh.write("\n".join(lines) + "\n")
            rows += len(lines)

    # What canonicalize must produce: the kept originals, linearly interpolated
    # across the gaps on the 300 s grid, in GW.
    full = np.arange(SAMPLES_PER_YEAR)
    demand, wind, solar = (np.interp(full, kept, written[k][kept]) / 1000.0
                           for k in ("demand", "wind", "solar"))
    counts = {
        "row_errors": N_MALFORMED,
        "duplicates_dropped": N_DUPLICATES,
        "samples_interpolated": int(missing.sum()),
        "gaps": N_GAPS,
        "trailing_discarded": n - SAMPLES_PER_YEAR,
    }
    return DirtyYear(rows, counts, demand, wind, solar)


def _line(field: dict[str, str]) -> str:
    return ",".join(field[k] for k in FILE_ORDER)


def _malformed(k: int, row: dict[str, str]) -> str:
    kind = k % 6
    bad = dict(row)
    if kind == 0:
        bad["demand"] = "n/a"
    elif kind == 1:
        bad["wind"] = ""
    elif kind == 2:
        bad["demand"] = "-" + row["demand"]
    elif kind == 3:
        bad["solar"] = "nan"
    elif kind == 4:
        bad["timestamp"] = "2017-02-30 25:00:00+00:00"
    else:
        return f"{row['timestamp']},{row['wind']}"  # truncated line
    return _line(bad)

