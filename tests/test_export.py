import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from windfleet import export
from windfleet.export import sample_times, write_csv
from windfleet.ingest import CADENCE_S, SAMPLES_PER_WEEK


def reference_csv(path, start, values, labels, tail):
    """Per-row writer with explicit repr and strftime: the format write_csv keeps."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value", "label"])
        for i, (v, label) in enumerate(zip(values, labels)):
            ts = start + timedelta(seconds=i * CADENCE_S)
            writer.writerow([ts.strftime("%Y-%m-%dT%H:%M:%SZ"), repr(float(v)), label])
        writer.writerow([])
        writer.writerow(["week_index", "mean"])
        writer.writerow([tail[0], repr(tail[1])])


def test_week_matches_per_row_reference(tmp_path, monkeypatch):
    monkeypatch.setattr(export, "CHUNK_ROWS", 500)  # cross several chunk boundaries
    start = datetime(2017, 3, 15, 13, 35, tzinfo=timezone.utc)  # a Wednesday afternoon
    values = np.sin(np.arange(SAMPLES_PER_WEEK)) * 1e3
    values[[0, 1, 2, 499, 500, SAMPLES_PER_WEEK - 1]] = [-0.0, 1e-17, 1e300, -2.5e-308, 0.1, 3.0]
    labels = [f"w{i % 3}" for i in range(SAMPLES_PER_WEEK)]
    tail = (11, 1 / 3)

    expected, actual = tmp_path / "expected.csv", tmp_path / "actual.csv"
    reference_csv(expected, start, values, labels, tail)
    write_csv(
        actual,
        ["timestamp", "value", "label"],
        [sample_times(start, SAMPLES_PER_WEEK), values, labels],
        more=[(["week_index", "mean"], [[tail[0]], [tail[1]]])],
    )
    assert actual.read_bytes() == expected.read_bytes()
    assert b"-0.0," in actual.read_bytes() and b",1e+300," in actual.read_bytes()


def test_column_lengths_must_match(tmp_path):
    with pytest.raises(ValueError, match="count and length"):
        write_csv(tmp_path / "x.csv", ["a", "b"], [[1.0, 2.0], [1.0]])
