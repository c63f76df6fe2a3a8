#!/usr/bin/env python3
"""Write the reference outputs that the benchmark's checks compare against.

Usage, from the root of a source checkout at the reference commit:

    python3 perfbench/make_golden.py

Writes perfbench/golden/reproduce.json (hash of every artifact of one
reproduce pass, plus the rows of the curve and Table-2 files that may drift
within tolerance) and perfbench/golden/sweep.json (every value of one full
sweep pass). Neither input depends on the seed.
"""

from __future__ import annotations

import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import LogCapture, Reproduce, Sweep  # noqa: E402

TOLERANT = {"fig5_curve.csv": "curves", "fig7_families.csv": "curves",
            "fig12_families.csv": "curves", "table2.csv": "table2"}


def main() -> int:
    work = ROOT / ".perfbench_work" / "golden"
    out = work / "out"
    out.mkdir(parents=True, exist_ok=True)
    try:
        reproduce = Reproduce(ROOT, work, 0, smoke=False)
        reproduce.generate()
        with redirect_stdout(sys.stderr):
            outcome = reproduce.run_pass(out, LogCapture())
        assert outcome.exit_codes.get("all") == 0, outcome
        files = {}
        for path in checks.csv_files(out):
            entry = {"sha256": checks.sha256(path), "kind": TOLERANT.get(path.name, "exact")}
            if entry["kind"] != "exact":
                entry["rows"] = checks.read_rows(path)[1:]
            files[path.name] = entry
        write(HERE / "golden" / "reproduce.json", {"files": files, "optional": ["fig11_soc.csv"]})

        sweep = Sweep(ROOT, work, 0, smoke=False)
        sweep.generate()
        res = sweep.run_pass(out, LogCapture()).results
        write(HERE / "golden" / "sweep.json", {
            "caps": list(sweep.caps),
            "curves": dict(sorted(res["curves"].items())),
            "inversions": dict(sorted(res["inversions"].items())),
            "approx": dict(sorted(res["approx"].items())),
            "table2": res["table2"],
        })
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


def write(path: Path, data: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    sys.exit(main())
