import csv
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


def csv_writer_reference(path, blocks):
    """The per-row csv.writer path: each block's header, then its values as rows."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        for n, (head, cols) in enumerate(blocks):
            if n:
                writer.writerow([])
            writer.writerow(head)
            writer.writerows(zip(*(np.asarray(c).tolist() for c in cols)))


def assert_matches_csv_writer(tmp_path, header, columns, more=()):
    expected, actual = tmp_path / "expected.csv", tmp_path / "actual.csv"
    csv_writer_reference(expected, [(header, columns), *more])
    write_csv(actual, header, columns, more=more)
    assert actual.read_bytes() == expected.read_bytes()


LABELS = ["a,b", 'say "hi"', "cr\rhere", "two\nlines", "\r\n", '"', ",", "", " pad ", "plain"]

# name: (header, columns, more)
CSV_WRITER_CASES = {
    "labels needing quotes": (["value", "label"], [np.arange(len(LABELS)) / 3, LABELS], ()),
    "header needing quotes": (
        ["capacity, GWc", 'the "mean"', "line\nbreak"], [[1.0], [2.0], [3.0]], ()
    ),
    "int and bool columns": (
        ["n", "big", "flag"], [[0, -7, 12], [2**40, -(2**62), 1], [True, False, True]], ()
    ),
    "zero-row block after more": (["a"], [[1.5]], [(["b", "c"], [[], []])]),
    "one-column empty cell": (
        ["a", "b"], [[1.0], ["x"]], [(["note"], [["", "x", ""]]), ([""], [[""]])]
    ),
}


@pytest.mark.parametrize("case", list(CSV_WRITER_CASES))
def test_matches_csv_writer(case, tmp_path):
    header, columns, more = CSV_WRITER_CASES[case]
    assert_matches_csv_writer(tmp_path, header, columns, more)


@pytest.mark.parametrize("rows", [export.CHUNK_ROWS, 2 * export.CHUNK_ROWS, export.CHUNK_ROWS + 1])
def test_chunk_boundary_matches_csv_writer(rows, tmp_path):
    values = np.linspace(-1.0, 1.0, rows) ** 3
    labels = [f"r{i}" if i % 1000 else f"r,{i}" for i in range(rows)]
    assert_matches_csv_writer(tmp_path, ["v", "label"], [values, labels])


# where repr switches between fixed and exponent notation, with both neighbours
NOTATION_EDGES = [
    np.nextafter(edge, toward)
    for edge in (1e-4, -1e-4, 1e16, -1e16)
    for toward in (-np.inf, 0.0, np.inf)
]
SPECIAL_BITS = [
    np.array(v, dtype=np.float64).view(np.uint64).item()
    for v in (
        -0.0, 0.0, 5e-324, -2.2250738585072e-308, np.inf, -np.inf, np.nan, -np.nan, 1e16, 0.1,
        *NOTATION_EDGES,
    )
]


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    bits=st.lists(
        st.one_of(st.integers(0, 2**64 - 1), st.sampled_from(SPECIAL_BITS)), max_size=25
    )
)
def test_any_float64_matches_csv_writer(bits, tmp_path, monkeypatch):
    monkeypatch.setattr(export, "CHUNK_ROWS", 4)
    values = np.array(bits, dtype=np.uint64).view(np.float64)
    assert_matches_csv_writer(tmp_path, ["x", "reversed"], [values, values[::-1]])


def float_bits(rng, exponents):
    """float64 bit patterns with the given biased exponents, random signs and mantissas."""
    exponents = np.asarray(exponents, dtype=np.uint64)
    signs = rng.integers(0, 2, size=exponents.size, dtype=np.uint64)
    mantissas = rng.integers(0, 2**52, size=exponents.size, dtype=np.uint64)
    return (signs << np.uint64(63)) | (exponents << np.uint64(52)) | mantissas


def test_float_cells_match_repr_over_every_binade():
    """Three columns a row, so that most rows patch one cell among orjson's."""
    rng = np.random.default_rng(20170116)
    # biased exponents 1009-1077 span 2**-14 to 2**55: every fixed-notation value,
    # where the cell is orjson's text, and the binades on either side
    fixed_range = float_bits(rng, rng.integers(1009, 1078, size=2**19 + 1))
    any_bits = rng.integers(0, 2**64, size=2**16 + 2, dtype=np.uint64)
    every_binade = float_bits(rng, np.repeat(np.arange(2048), 33))  # log-uniform
    specials = np.tile(np.array(SPECIAL_BITS, dtype=np.uint64), 3)
    for bits in (fixed_range, any_bits, every_binade, specials):
        rows = bits.view(np.float64).reshape(-1, 3)
        expected = [",".join(map(float.__repr__, row)).encode() for row in rows.tolist()]
        assert export._float_rows(list(rows.T)) == expected


def seconds(start, stop, step):
    """datetime64[s] from ``start`` up to ``stop``, every ``step`` seconds."""
    return np.arange(np.datetime64(start, "s"), np.datetime64(stop, "s"), np.timedelta64(step, "s"))


STAMP_SPANS = {
    "month ends and 29 Feb": seconds("2016-01-30T00:00:00", "2016-03-02T00:00:00", 3599),
    "year end": seconds("2016-12-31T21:00:00", "2017-01-01T03:00:00", 61),
    "2100-02-28, no leap day": seconds("2100-02-27T23:00:00", "2100-03-01T01:00:00", 997),
    "before 1970": seconds("1969-12-30T00:00:00", "1970-01-02T00:00:00", 1237),
    "1900 and year 1": np.array(["1900-02-28T23:59:59", "0001-01-01T00:00:00", "1900-03-01"],
                                dtype="datetime64[s]"),
    "irregular, unsorted": np.random.default_rng(7).integers(
        -62_135_596_800, 253_402_300_800, size=5000).astype("datetime64[s]"),  # years 1-9999
    "NaT": np.array(["NaT", "2017-01-16T00:05:00", "NaT"], dtype="datetime64[s]"),
    "past 9999": np.array(["9999-12-31T23:59:59", "10000-01-01T00:00:00", "NaT"],
                          dtype="datetime64[s]"),
}


@pytest.mark.parametrize("span", list(STAMP_SPANS))
def test_stamps_match_datetime_as_string(span):
    times = STAMP_SPANS[span]
    expected = np.datetime_as_string(times, unit="s", timezone="UTC").tolist()
    assert [stamp.decode() for stamp in export._stamps(times)] == expected
