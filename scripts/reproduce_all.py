#!/usr/bin/env python3
"""Reproduce every artifact from one input file in one go.

Usage:
    python scripts/reproduce_all.py --input data/gridwatch_2017.csv --out-dir out

Runs, in order: ingest --check, histogram, curves, bev (week 17),
lull (week 3, base 7 GWe), table2. The input is opened and parsed once, and
every step works on that one series and its digest. Stops at the first
nonzero exit code; the failing step has said why in one stderr line. The
input is read before --out-dir is made, so an input error (exit 2) leaves no
output directory behind; an --out-dir that cannot be created exits 3 with one
line, as the CLI does. Without --input, makes the output directory and
generates the synthetic year into it first.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from windfleet.cli import configure_logging, load_series, run  # noqa: E402
from windfleet.ingest import IngestError  # noqa: E402
from windfleet.synth import synthetic_year, write_series_csv  # noqa: E402


def steps(input_path, out_dir) -> list[list[str]]:
    """The CLI argument lists of the six steps, in order."""
    common = ["--input", str(input_path), "--out-dir", str(out_dir)]
    return [
        ["ingest", "--check", *common],
        ["histogram", *common],
        ["curves", *common],
        ["bev", *common, "--weeks", "17"],
        ["lull", *common, "--weeks", "3", "--base-gen", "7"],
        ["table2", *common],
    ]


def make_out_dir(out_dir: Path) -> bool:
    """Make ``out_dir``, or say in one line on stderr why it cannot be made."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"configuration error: cannot create output directory {str(out_dir)!r}: {exc}",
              file=sys.stderr)
        return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--input", help="5-minute records CSV; synthetic year if omitted")
    parser.add_argument("--out-dir", default="out")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    input_path = args.input
    if input_path is None:
        if not make_out_dir(out_dir):
            return 3
        input_path = out_dir / "synthetic_year.csv"
        if not input_path.exists():
            write_series_csv(synthetic_year(), input_path)
            print(f"generated {input_path}")

    configure_logging()
    try:
        series = load_series(input_path)
    except IngestError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if not make_out_dir(out_dir):
        return 3
    for step in steps(input_path, out_dir):
        print(f"\n=== windfleet {' '.join(step)}")
        code = run(step, series=series)
        if code != 0:  # the step said why on stderr; its header above names it
            return code
    print(f"\nall artifacts written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
