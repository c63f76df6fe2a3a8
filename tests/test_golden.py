"""Every result CSV of the paper's artifact chain, against committed references.

The chain is scripts/reproduce_all.py on the synthetic year, then ``bev`` and
``lull`` for weeks 1:52:1 on the same year. tests/golden/sha256.json holds
the digest of each file that must match byte for byte. The curve files
(fig5, fig7, fig12) are kept whole under tests/golden/ and compared value by
value within 1e-12 relative, so a curve kernel that sums in another order
still passes. Run manifests are left out: they record when the run was made.

To write the references, from the root of the checkout whose output they are:

    PYTHONPATH=src python tests/test_golden.py

It prints the name of each reference whose content changed, so a change meant
to alter one result shows that it altered only that one.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

from windfleet.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
CURVE_FILES = ("fig5_curve.csv", "fig7_families.csv", "fig12_families.csv")
CURVE_REL = 1e-12


def produce(out: Path) -> dict[str, Path]:
    """Run the chain into ``out``; each result CSV by its name relative to ``out``."""
    spec = importlib.util.spec_from_file_location(
        "reproduce_all", ROOT / "scripts" / "reproduce_all.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    reproduce = out / "reproduce"
    with mock.patch.object(sys, "argv", ["reproduce_all.py", "--out-dir", str(reproduce)]):
        assert script.main() == 0
    year = reproduce / "synthetic_year.csv"
    for command in ("bev", "lull"):
        argv = [command, "--input", str(year), "--out-dir", str(out / "weekly"),
                "--weeks", "1:52:1"]
        assert main(argv) == 0
    return {p.relative_to(out).as_posix(): p for p in sorted(out.glob("*/*.csv"))}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _same_cell(expected: str, actual: str) -> bool:
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return expected == actual
    return a == b or math.isclose(a, b, rel_tol=CURVE_REL, abs_tol=0.0)


def curve_differences(expected: Path, actual: Path) -> list[str]:
    want, got = _rows(expected), _rows(actual)
    if [len(r) for r in want] != [len(r) for r in got]:
        return [f"shape {[len(r) for r in got]} != {[len(r) for r in want]}"]
    return [
        f"row {i} col {j}: {b!r} != {a!r}"
        for i, (row_a, row_b) in enumerate(zip(want, got))
        for j, (a, b) in enumerate(zip(row_a, row_b))
        if not _same_cell(a, b)
    ]


def test_result_files_match_references(tmp_path):
    files = produce(tmp_path)
    digests = json.loads((GOLDEN / "sha256.json").read_text(encoding="utf-8"))
    curves = sorted(n for n in files if Path(n).name in CURVE_FILES)
    assert len(curves) == len(CURVE_FILES)
    assert sorted(files) == sorted([*digests, *curves])

    changed = [n for n, digest in digests.items() if sha256(files[n]) != digest]
    assert changed == []
    for name in curves:
        assert curve_differences(GOLDEN / name, files[name]) == [], name


def write_references() -> None:
    """Write every reference, and print the name of each one that changed."""
    old = {}
    if (GOLDEN / "sha256.json").exists():
        old = json.loads((GOLDEN / "sha256.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(io.StringIO()):  # the chain's own report
            files = produce(Path(tmp))
        digests = {}
        for name, path in files.items():
            digest = sha256(path)
            if path.name in CURVE_FILES:
                if (GOLDEN / name).exists():
                    old[name] = sha256(GOLDEN / name)
                (GOLDEN / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, GOLDEN / name)
            else:
                digests[name] = digest
            if old.get(name) != digest:
                print(f"changed: {name}")
    (GOLDEN / "sha256.json").write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests and {len(files) - len(digests)} curve files to {GOLDEN}")


if __name__ == "__main__":
    write_references()
