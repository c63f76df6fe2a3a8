#!/usr/bin/env python3
"""Write the bundled deterministic synthetic year as a raw-format CSV.

Usage:
    python scripts/make_synthetic_year.py [out.csv]

The file has the default columns (timestamp,demand,wind,solar) in MW at
5-minute cadence, 52 full weeks. Repeated runs produce identical bytes.
A path that cannot be written exits 3 with one line.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from windfleet.synth import synthetic_year, write_series_csv  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="synthetic_year.csv", help="output CSV path")
    out = Path(parser.parse_args().out)
    series = synthetic_year()
    try:
        write_series_csv(series, out)
    except OSError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {series.n_samples} samples to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
