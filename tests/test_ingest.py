import hashlib
import io
import itertools
import math
import os
import re
import threading
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windfleet import ingest
from windfleet.ingest import (
    CADENCE_S,
    SAMPLES_PER_WEEK,
    SAMPLES_PER_YEAR,
    IngestError,
    Records,
    _iso_utc_us,
    _parse_timestamp,
    canonicalize,
    parse_csv,
)
from _helpers import EPOCH, series_to_records, traced_peak
from test_ingest_reference import (
    COLUMNS,
    HEADER,
    assert_same_series,
    check_against_reference,
    document,
    good_line,
    reference_canonicalize,
)

T0 = datetime(2017, 1, 16, tzinfo=timezone.utc)


def ts(i):
    return T0 + timedelta(seconds=i * CADENCE_S)


def rec(i, demand=48000.0, wind=900.0, solar=0.0, offset_s=0):
    """One row at sample ``i`` (plus ``offset_s``): UTC microseconds and MW values."""
    us = (ts(i) - EPOCH) // timedelta(microseconds=1) + offset_s * 1_000_000
    return us, demand, wind, solar


def as_records(*rows):
    """The Records of ``rec`` rows, in the order given."""
    stamps, *values = zip(*rows) if rows else ((),) * 4
    return Records(np.array(stamps, dtype=np.int64), *(np.array(v, dtype=float) for v in values))


def write(tmp_path, text, name="in.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseCsv:
    def test_maps_fields(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,demand,wind,solar\n2017-01-16T00:00:00Z,48000,900,0\n",
        )
        records = parse_csv(path)
        assert len(records) == 1
        [r] = records
        assert r.timestamp == datetime(2017, 1, 16, tzinfo=timezone.utc)
        assert (r.demand_mw, r.wind_mw, r.solar_mw) == (48000.0, 900.0, 0.0)

    def test_negative_demand_recorded_as_row_error(self, tmp_path):
        rows = [f"2017-01-16T{h:02d}:{m:02d}:00Z,48000,900,0"
                for h in range(17) for m in range(0, 60, 5)]
        rows[5] = rows[5].replace("48000", "-5")
        path = write(tmp_path, "timestamp,demand,wind,solar\n" + "\n".join(rows) + "\n")
        errors = []
        records = parse_csv(path, row_errors=errors)
        assert len(records) == len(rows) - 1
        assert len(errors) == 1
        assert "demand" in errors[0].reason

    def test_blank_lines_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "timestamp,demand,wind,solar\n"
            "2017-01-16T00:00:00Z,48000,900,0\n"
            "\n"
            "2017-01-16T00:05:00Z,48100,910,0\n"
            "2017-01-16T00:10:00Z,48200,920,0\n",
        )
        assert len(parse_csv(path)) == 3

    def test_missing_column_fatal(self, tmp_path):
        path = write(tmp_path, "timestamp,demand,wind\n2017-01-16T00:00:00Z,48000,900\n")
        with pytest.raises(IngestError, match="missing column"):
            parse_csv(path)

    def test_column_map(self, tmp_path):
        path = write(tmp_path, "time,load_mw,w,s\n2017-01-16T00:00:00Z,48000,900,12\n")
        [record] = parse_csv(
            path,
            column_map={"timestamp": "time", "demand": "load_mw", "wind": "w", "solar": "s"},
        )
        assert record.solar_mw == 12.0

    def test_more_than_one_percent_bad_rows_fatal(self, tmp_path):
        rows = [f"2017-01-16T{h:02d}:{m:02d}:00Z,48000,900,0"
                for h in range(9) for m in range(0, 60, 5)]
        rows[3] = rows[3].replace("900", "not-a-number")
        rows[7] = rows[7].replace("48000", "nan")
        path = write(tmp_path, "timestamp,demand,wind,solar\n" + "\n".join(rows) + "\n")
        with pytest.raises(IngestError, match="malformed"):
            parse_csv(path)

    def test_exactly_one_percent_bad_rows_tolerated(self, tmp_path):
        rows = [f"2017-01-{16 + h // 24:02d}T{h % 24:02d}:{m:02d}:00Z,48000,900,0"
                for h in range(25) for m in range(0, 60, 5)]
        rows = rows[:200]
        rows[10] = rows[10].replace("900", "x")
        rows[20] = rows[20].replace("900", "y")
        path = write(tmp_path, "timestamp,demand,wind,solar\n" + "\n".join(rows) + "\n")
        assert len(parse_csv(path)) == 198

    @pytest.mark.parametrize("bad", ["n/a", "-48000"], ids=["unparseable", "range-rejected"])
    @pytest.mark.parametrize("note", ["", ',"a,b"'], ids=["byte-path", "csv-reader"])
    def test_blank_lines_are_not_rows_of_the_one_percent_rule(self, tmp_path, note, bad):
        rows = [f"{ts(i):%Y-%m-%dT%H:%M:%SZ},48000,900,0{note}" for i in range(200)]
        for i in (50, 100, 150):
            rows[i] = rows[i].replace("48000", bad)
        lines = [line for row in rows for line in (row, "")]  # and 200 blank lines
        header = "timestamp,demand,wind,solar" + (",note" if note else "")
        path = write(tmp_path, header + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(IngestError, match=r"3 of 200 rows malformed \(more than 1%\)$"):
            parse_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(IngestError, match="cannot open"):
            parse_csv(tmp_path / "absent.csv")

    @pytest.mark.parametrize("header", ["demand,wind,solar,timestamp", "timestamp,demand,wind,solar"])
    def test_short_row_is_row_error(self, tmp_path, header):
        order = header.split(",")
        values = {"demand": "48000", "wind": "900", "solar": "0"}
        rows = []
        for i in range(150):
            values["timestamp"] = ts(i).strftime("%Y-%m-%dT%H:%M:%SZ")
            rows.append(",".join(values[name] for name in order))
        rows[40] = "48000,900"
        path = write(tmp_path, header + "\n" + "\n".join(rows) + "\n")
        errors = []
        records = parse_csv(path, row_errors=errors)
        assert len(records) == 149
        assert [(e.line, e.reason) for e in errors] == [
            (42, "too few fields: 2, the mapped columns need 4")
        ]

    def test_utf8_bom_before_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(
            "\ufefftimestamp,demand,wind,solar\n2017-01-16T00:00:00Z,48000,900,0\n".encode("utf-8")
        )
        [r] = parse_csv(path)
        assert r.timestamp == datetime(2017, 1, 16, tzinfo=timezone.utc)
        assert r.demand_mw == 48000.0

    def test_not_utf8_fatal(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"timestamp,demand,wind,solar\n2017-01-16T00:00:00Z,48\xff00,900,0\n")
        with pytest.raises(IngestError, match="not UTF-8 text .*byte ff"):
            parse_csv(path)

    def test_field_over_csv_limit_fatal_with_line(self, tmp_path):
        path = write(
            tmp_path,
            f"timestamp,demand,wind,solar\n{ts(0)},48000,900,0\n{ts(1)},48000,900,{'x' * 140_000}\n",
        )
        with pytest.raises(IngestError, match="line 3: field larger than field limit"):
            parse_csv(path)


def test_later_lines_shorter_than_the_first_read_match_reference():
    """The columns are sized from the first read's bytes per line; lines
    after it that are a tenth as long grow them, and every row is read."""
    long_lines = {i: good_line(i, note="x" * 400) for i in range(700)}  # more than one read
    text = document(long_lines, n=6000)
    assert len(text[: text.index(good_line(700))]) > ingest.READ_BYTES
    check_against_reference(text)
    check_against_reference(text, 4096)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
def test_a_pipe_whose_size_reads_0_is_read_whole(tmp_path):
    """A header longer than its lines, through a named pipe: the columns,
    sized from a size of 0, grow to every row."""
    text = document({}, n=3000, header=HEADER + ",x" * 100)
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,))
    writer.start()
    try:
        records = parse_csv(path, COLUMNS)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()
    assert len(records) == 3000
    assert records.input_sha256 == hashlib.sha256(text.encode()).hexdigest()


ROWS = [f"{ts(i).isoformat()},48000,900,{i % 7}\n" for i in range(9000)]
HEAD = "timestamp,demand,wind,solar\n" + "".join(ROWS[:20])
# files whose digest is that of their bytes: a byte-order mark, "\r\n" line
# ends, no last line end, more than one read, and a read that ends on a "\r",
# with the "\n" of its "\r\n" in the next read or no next read at all
HASHED_FILES = {
    "bom": ("\ufeff" + HEAD, None),
    "crlf": (HEAD.replace("\n", "\r\n"), None),
    "no last line end": (HEAD.rstrip("\n"), None),
    "over a read": ("timestamp,demand,wind,solar\n" + "".join(ROWS), None),
    "read ends in a \\r\\n": (HEAD.replace("\n", "\r\n"),
                              len("timestamp,demand,wind,solar\r") - len(ingest._BOM)),
    "last read ends on a \\r": (HEAD.replace("\n", "\r"), None),
}


@pytest.mark.parametrize("name", HASHED_FILES)
def test_input_sha256_is_the_digest_of_the_files_bytes(name, tmp_path):
    text, read_bytes = HASHED_FILES[name]
    path = tmp_path / "in.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(ingest, "READ_BYTES", read_bytes or ingest.READ_BYTES):
        records = parse_csv(path)
    assert len(records) == text.count("48000")
    assert records.input_sha256 == hashlib.sha256(path.read_bytes()).hexdigest()
    assert canonicalize(records).input_sha256 == records.input_sha256


# tracemalloc peak of one parse_csv of the synthetic year: csv.reader rows in
# 8,192-row chunks peaked at 9.12 MB by this test's method, the split
# tokenizer in 2,048-line chunks at 6.87 MB, and the byte reader, which grows
# its four result columns in place instead of joining per-chunk parts, at
# 5.48 MB in 2,048-line chunks and 7.18 MB in chunks of one 256 KiB read
# (10.27 MB at 512 KiB; Python 3.11, numpy 2.4); with the columns sized once
# from the file's size instead of doubled from the first read's rows, 6.64 MB
PARSE_PEAK_GUARD_BYTES = 8.72e6


def test_parse_peak_memory_within_guard(synth_csv):
    """Growth in the chunk temporaries fails here, not only as a benchmark's RSS."""
    peak = traced_peak(lambda: parse_csv(synth_csv))
    assert peak <= PARSE_PEAK_GUARD_BYTES, f"parse_csv peak {peak / 1e6:.2f} MB"


# tracemalloc peak of one canonicalize over its records, by the parse guard's
# method and margin: 9.44 MB on the clean year and 9.41 MB on the dirty one
# below while the sorted stamps, their offsets and indices, a bincount and one
# gathered column per output were separate arrays. With the stamps turned into
# sample indices in place and a present mask, the clean year, whose gathered
# columns are the outputs, peaks at 4.62 MB, and the dirty one, whose gathered
# columns are spread over the samples one at a time, at 5.36 MB. Records in
# order, as the clean year's are, take no sort order and no gather, and the
# clean year then peaks at 3.67 MB (Python 3.11, numpy 2.4)
CANONICALIZE_PEAK_GUARD_BYTES = {"clean": 4.40e6, "dirty": 6.43e6}


@pytest.fixture(scope="module")
def year_records(synth_csv):
    return parse_csv(synth_csv)


def dirty(records: Records) -> Records:
    """``records`` shuffled, with 100 gaps of 1 to 12 samples and 150 duplicated rows."""
    n = len(records)
    keep = np.ones(n, bool)
    for k, at in enumerate(range(500, n - 500, n // 100)):
        keep[at:at + 1 + k % 12] = False
    rows = np.concatenate((np.flatnonzero(keep), np.arange(7, n, n // 150)))
    rows = rows[np.random.default_rng(1).permutation(rows.size)]
    return Records(*(column[rows] for column in
                     (records.timestamp_us, records.demand_mw, records.wind_mw, records.solar_mw)))


@pytest.mark.parametrize("year", sorted(CANONICALIZE_PEAK_GUARD_BYTES))
def test_canonicalize_peak_memory_within_guard(year_records, year):
    records = dirty(year_records) if year == "dirty" else year_records
    series = canonicalize(records)
    assert series.n_samples == SAMPLES_PER_YEAR
    assert len(series.provenance) == (3 if year == "dirty" else 1)  # duplicates, gaps
    peak = traced_peak(lambda: canonicalize(records))
    assert peak <= CANONICALIZE_PEAK_GUARD_BYTES[year], f"canonicalize peak {peak / 1e6:.2f} MB"


def test_repaired_year_matches_reference(year_records):
    """np.interp at the missing samples alone gives its bits over every sample."""
    records = dirty(year_records)
    columns = (records.timestamp_us, records.demand_mw, records.wind_mw, records.solar_mw)
    rows = list(zip(*(column.tolist() for column in columns)))
    assert_same_series(canonicalize(records, "year"), reference_canonicalize(rows, "year"))


@pytest.mark.parametrize("gaps", [False, True])
def test_in_order_records_take_no_sort_and_match_a_shuffled_copy(year_records, gaps):
    """Records in order, the clean year and the year with gaps, canonicalize
    with no sort order to the bits of a shuffled copy, and the caller's
    records are not written."""
    columns = (year_records.timestamp_us, year_records.demand_mw, year_records.wind_mw,
               year_records.solar_mw)
    rows = np.flatnonzero(np.arange(len(year_records)) % 997 >= (5 if gaps else 0))
    records = Records(*(column[rows] for column in columns))
    before = [column.copy() for column in columns]
    shuffled = np.random.default_rng(2).permutation(rows.size)
    with mock.patch.object(ingest.np, "argsort", wraps=np.argsort) as argsort:
        series = canonicalize(records)
        assert argsort.call_count == 0
        assert_same_series(series, canonicalize(Records(*(c[rows][shuffled] for c in columns))))
        assert argsort.call_count == 1
    assert len(series.provenance) == 1 + gaps
    for column, copy in zip(columns, before):
        assert column.tobytes() == copy.tobytes()
    for name, mw in zip(("demand", "wind_metered", "solar"), columns[1:]):
        assert not np.shares_memory(getattr(series, name), mw)


class TestCanonicalize:
    def test_single_gap_interpolated_midpoint(self):
        series = canonicalize(as_records(rec(0, demand=48000.0), rec(2, demand=50000.0)))
        assert series.n_samples == 3
        assert series.demand[1] == pytest.approx(49.0)
        assert any("interpolated 1" in note for note in series.provenance)

    def test_gap_of_twelve_repaired(self):
        series = canonicalize(as_records(rec(0), rec(13)))
        assert series.n_samples == 14

    def test_gap_of_thirteen_fatal(self):
        with pytest.raises(IngestError, match="gap exceeds 1 hour"):
            canonicalize(as_records(rec(0), rec(14)))

    def test_duplicates_keep_first(self):
        series = canonicalize(as_records(rec(0, demand=48000.0), rec(0, demand=1000.0), rec(1)))
        assert series.demand[0] == pytest.approx(48.0)

    def test_a_clock_hour_repeated_with_other_values_fatal(self):
        """12 consecutive samples, each repeated with other values, are the
        hour a daylight-saving fall-back writes twice in local clock time."""
        rows = [rec(i) for i in range(30)] + [rec(i, demand=47000.0) for i in range(10, 22)]
        message = ("the hour from 2017-01-16T00:50:00+00:00 repeats with other values: "
                   "the file looks like local clock time, not UTC")
        with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
            canonicalize(as_records(*rows))

    @pytest.mark.parametrize("again", [
        [(i, 47000.0) for i in range(10, 21)],  # eleven samples
        [(i, 48000.0) for i in range(10, 22)],  # an hour with the same values: an overlap
        [(i, 47000.0 if i != 15 else 48000.0) for i in range(10, 22)],
        [(i, 47000.0) for i in range(0, 24, 2)],  # scattered
    ], ids=["eleven", "same values", "one the same", "scattered"])
    def test_repeats_that_are_no_clock_hour_repaired(self, again):
        rows = [rec(i) for i in range(30)] + [rec(i, demand=demand) for i, demand in again]
        series = canonicalize(as_records(*rows))
        assert series.n_samples == 30 and series.demand[again[0][0]] == 48.0
        assert f"dropped {len(again)} duplicate-timestamp rows (kept first)" in series.provenance

    def test_mw_to_gw(self):
        series = canonicalize(as_records(rec(0, demand=48000.0), rec(1, demand=48000.0)))
        assert series.demand[0] == pytest.approx(48.0)

    def test_unsorted_input_sorted(self):
        series = canonicalize(as_records(rec(1, demand=50000.0), rec(0, demand=48000.0)))
        assert series.demand[0] == pytest.approx(48.0)
        assert series.start_time == ts(0)

    def test_off_grid_timestamp_fatal(self):
        bad = rec(0, wind=0.0, offset_s=150)
        with pytest.raises(IngestError, match="cadence"):
            canonicalize(as_records(rec(0), bad, rec(1)))

    def test_empty_fatal(self):
        with pytest.raises(IngestError, match="no records"):
            canonicalize(as_records())

    @pytest.mark.parametrize("sizes", [(3, 4, 5, 3), (4, 3, 3, 3)])
    def test_columns_of_other_lengths_fatal(self, sizes):
        """Longer value columns are not cut to the timestamps', and a shorter
        one is not an IndexError: Records names the four lengths."""
        full = as_records(*(rec(i) for i in range(5)))
        columns = (full.timestamp_us, full.demand_mw, full.wind_mw, full.solar_mw)
        names = "timestamp_us {}, demand_mw {}, wind_mw {}, solar_mw {}".format(*sizes)
        with pytest.raises(IngestError, match=f"record columns differ in length: {names}$"):
            canonicalize(Records(*(column[:size] for column, size in zip(columns, sizes))))

    def test_timestamps_reconstruct(self):
        series = canonicalize(as_records(rec(2), rec(0), rec(1)))
        assert series.start_time == ts(0)
        assert series.n_samples == 3

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=80_000),
                st.integers(min_value=0, max_value=15_000),
                st.integers(min_value=0, max_value=9_000),
            ),
            min_size=2,
            max_size=40,
        ),
        drop=st.sets(st.integers(min_value=1, max_value=38), max_size=6),
    )
    def test_idempotent(self, values, drop):
        first = canonicalize(as_records(*(
            rec(i, demand=float(d), wind=float(w), solar=float(s))
            for i, (d, w, s) in enumerate(values)
            if i not in drop or i in (0, len(values) - 1)
        )))
        second = canonicalize(series_to_records(first))
        assert second.start_time == first.start_time
        assert second.n_samples == first.n_samples
        np.testing.assert_allclose(second.demand, first.demand, rtol=1e-12, atol=0)
        np.testing.assert_allclose(second.wind_metered, first.wind_metered, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(second.solar, first.solar, rtol=1e-12, atol=1e-15)
        assert not any("interpolated" in note for note in second.provenance)


class TestCsvRoundTrip:
    def test_synthetic_year_survives_write_parse_canonicalize(self, synth_series, synth_csv):
        records = parse_csv(synth_csv)
        series = canonicalize(records, source=str(synth_csv))
        assert series.start_time == synth_series.start_time
        assert series.n_samples == synth_series.n_samples
        np.testing.assert_allclose(series.demand, synth_series.demand, rtol=1e-12)
        np.testing.assert_allclose(
            series.wind_metered, synth_series.wind_metered, rtol=1e-12, atol=1e-15
        )
        np.testing.assert_allclose(series.solar, synth_series.solar, rtol=1e-12, atol=1e-15)


# texts cut into lines across reads of each size: every line end, a "\r\n"
# and a lone "\r" at a read's end, blank lines, a byte-order mark, characters
# of two and three bytes, a line longer than several reads, no last line end
READ_TEXTS = {
    "lf": "a,b\n1,2\n3,4\n",
    "crlf": "a,b\r\n1,2\r\n3,4\r\n",
    "cr": "a,b\r1,2\r3,4\r",
    "mixed": "a,b\r\n1,2\r3,4\n\r\n\r\r\n\n5,6",
    "bom": "\ufeffa,b\n1,2\n",
    "utf-8": "\u00e9,\u20ac\n\u20ac\u20ac,\u00e9\r\n",
    "long": "a,b\n" + "x" * 300 + "\r\n1,2\r",
    "one line": "a,b",
    "empty": "",
}


@pytest.mark.parametrize("read_bytes", [1, 2, 7, 64, ingest.READ_BYTES])
@pytest.mark.parametrize("name", READ_TEXTS)
def test_reads_cut_lines_where_csv_does(name, read_bytes):
    """Each chunk of _reads is whole lines, cut at "\\n", "\\r\\n" or a lone
    "\\r" as a text file opened with newline="" cuts them; together they are
    the file less its byte-order mark, with a "\\n" after a last line that
    has no line end. No chunk is empty. The digest the reads update is the
    file's, byte-order mark included and the added "\\n" not."""
    text = READ_TEXTS[name]
    expected = io.StringIO(text.removeprefix("\ufeff"), newline="").readlines()
    if expected and not expected[-1].endswith(("\n", "\r")):
        expected[-1] += "\n"
    lines, digest = [], hashlib.sha256()
    with mock.patch.object(ingest, "READ_BYTES", read_bytes):
        for chunk, stops, nexts in ingest._reads(io.BytesIO(text.encode()), digest):
            assert stops.size and nexts[-1] == len(chunk)
            starts = [0, *nexts[:-1].tolist()]
            for a, stop, b in zip(starts, stops.tolist(), nexts.tolist()):
                assert chunk[stop:b] in (b"\n", b"\r\n", b"\r")
                lines.append(chunk[a:b].decode())
    assert lines == expected
    assert digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("text", [*READ_TEXTS.values(),
                                  "\nx\r\ny\r", "\r\n\r\r\n\n", "x\ry\nz\r\n"])
def test_line_ends_cut_where_csv_does(text):
    """_line_ends of a whole text, every line end of it "\\n", every one
    "\\r\\n" or some of each, against a text file opened with newline=""."""
    data = text.encode()
    stops, nexts = ingest._line_ends(data, 0, len(data))
    expected = [line for line in io.StringIO(text, newline="") if line.endswith(("\n", "\r"))]
    starts = [0, *nexts[:-1].tolist()]
    assert [data[a:b].decode() for a, b in zip(starts, nexts.tolist())] == expected
    assert all(data[a:b] in (b"\n", b"\r\n", b"\r") for a, b in zip(stops.tolist(), nexts.tolist()))


def float_reference(texts):
    """float() of each text as float64 bits (NaN where it fails), and its reasons."""
    values, reasons = [], {}
    for j, text in enumerate(texts):
        try:
            values.append(float(text))
        except ValueError as exc:
            values.append(np.nan)
            reasons[j] = f"unparseable field: {exc}"
    return np.array(values).view(np.uint64), reasons


def read_chunk(lines):
    """The timestamp_us, rows x 3 values and reasons, by row, of one chunk of
    ``lines``, none of them blank, as _chunks reads them before the range
    checks: _plain_rows, then _odd_row on each line it leaves."""
    chunk = "".join(lines).encode()
    stops, nexts = ingest._line_ends(chunk, 0, len(chunk))
    assert stops.size == len(lines)
    starts = np.concatenate(([0], nexts[:-1]))
    plain, us, values = ingest._plain_rows(chunk, starts, stops, nexts, 4, [0, 1, 2, 3])
    reasons = {}
    for i in np.flatnonzero(~plain).tolist():
        line = chunk[starts[i] : nexts[i]].decode()
        us[i], values[i], reason = ingest._odd_row(line, 4, [0, 1, 2, 3], 4)
        if reason:
            reasons[i] = reason
    return us, values, reasons


def byte_path_floats(texts):
    """The wind values and reasons, by row, of one chunk whose rows hold
    ``texts`` as their wind cells; one row per text that a cell can hold."""
    us, values, reasons = read_chunk([f"2017-01-16T00:00:00Z,1,{text},0\n" for text in texts])
    return values[:, 1], reasons


def odd_rows(lines):
    """_odd_row of each line, as lists: timestamp_us, values and reasons by line."""
    rows = [ingest._odd_row(line, 4, [0, 1, 2, 3], 4) for line in lines]
    reasons = {j: reason for j, (_, _, reason) in enumerate(rows) if reason}
    return [us for us, _, _ in rows], [values for _, values, _ in rows], reasons


def quoted(text):
    """``text`` as one quoted csv cell, its quotes doubled."""
    return '"' + text.replace('"', '""') + '"'


def assert_floats_match_float(texts):
    """A line read alone by _odd_row, with the text as its quoted wind cell,
    and the rows of a chunk read from its bytes, give float()'s values and
    reasons."""
    expected, expected_reasons = float_reference(texts)
    _, values, reasons = odd_rows([f"2017-01-16T00:00:00Z,1,{quoted(text)},0\n" for text in texts])
    assert reasons == expected_reasons
    assert np.array([wind for _, wind, _ in values]).view(np.uint64).tolist() == expected.tolist()
    cells = [text for text in texts if not set(text) & set(',"\r\n')]
    if cells:
        out, reasons = byte_path_floats(cells)
        expected, expected_reasons = float_reference(cells)
        assert reasons == expected_reasons
        assert out.view(np.uint64).tolist() == expected.tolist()


# cells where orjson and float() could part: signed zeros, integers at and past
# 2**53 and 64 bits, 17-25 significant digits, halfway cases, under- and
# overflow, and forms one of the two parsers rejects
FLOAT_EDGES = [
    "-0", "-0.0", "-0e0", "-0E+0", "0", "0.0", "-1e-400", "1e-400",
    *(str(sign * (2**k + d)) for k in (53, 63, 64) for d in (-1, 0, 1) for sign in (1, -1)),
    str(2**64 + 2049), str(10**25 + 1), str(10**30),
    "9007199254740993.0", "0.1000000000000000055511151231257827", "123456789012345678901234.5",
    "1.00000000000000011102230246251565404236316680908203125",  # halfway: rounds to even
    "1.00000000000000011102230246251565404236316680908203126",
    "1.7976931348623157e308", "1.7976931348623158e308", "1.7976931348623159e308",
    "2.2250738585072011e-308", "2.2250738585072012e-308", "4.9406564584124654e-324",
    "2.4703282292062327e-324", "2.4703282292062328e-324",
    "1e400", "-1e400", "1" * 5000, "0." + "0" * 5000 + "1",
    " 900 ", " 900", "900 ", "\t900", "900\t", " -0", "-0 ", "\t-0",
    "+1", ".5", "5.", "01", "-01", "1_000", "1e5", "1E5", "1e+5",
    "nan", "NaN", "inf", "-inf", "Infinity", "true", "null", '"1.5"', "[1]", "", " ", "-", "1e",
    "1,5", "1,2,3", "1.2.3", "1e5.5", "--1", "\uff11", "\u0661.5",  # float() reads any digit
]


@pytest.mark.parametrize("text", FLOAT_EDGES)
def test_float_edge_cell_matches_float(text):
    """Alone, between clean cells, and twice around a signed zero."""
    assert_floats_match_float([text])
    assert_floats_match_float(["48000.5", text, "2", "1e3"])
    assert_floats_match_float([text, "-0.0", text])


def test_every_float_edge_in_one_column():
    assert_floats_match_float(FLOAT_EDGES)


JSON_NUMBERS = st.from_regex(
    r"-?(0|[1-9][0-9]{0,24})(\.[0-9]{1,25})?([eE][+-]?[0-9]{1,3})?", fullmatch=True
)

NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")
# every cell of 1 to 5 bytes over "019.e+-", 19,607 of them
SHORT_CELLS = ["".join(t) for n in range(1, 6) for t in itertools.product("019.e+-", repeat=n)]


def past_range(cell: str) -> bool:
    """A grammar number _number_breaks keeps off orjson's path: over 308
    bytes after its sign, or its integer digits plus its exponent exceed
    308, or its exponent has over three digits."""
    mantissa, _, exponent = cell.lstrip("-").lower().partition("e")
    digits = len(mantissa.split(".")[0])
    return (len(cell.lstrip("-")) > 308 or len(exponent.lstrip("+-")) > 3
            or digits + int(exponent or 0) > 308)


def assert_one_number_grammar(cells):
    """_number_breaks marks exactly the cells that re.fullmatch of the
    grammar refuses and the numbers past_range keeps off orjson's path, laid
    out three to a line; orjson rejects exactly the refused cells and the
    numbers float() reads as +-inf, and each of those is past_range.

    Parsing does not rest on orjson's half: a cell orjson newly rejects only
    sends its chunk to _odd_row, and one it newly accepts must still read as
    float() does (test_any_number_cells_match_float). The check is here so
    that a run against the newest orjson shows such a drift.
    """
    texts = [cell.encode() + (b",\n" if k % 3 == 2 else b",") for k, cell in enumerate(cells)]
    heads = np.cumsum([0] + [len(text) for text in texts[:-1]])
    broken = ingest._number_breaks(bytearray(b"[" + b"".join(texts) + b"0]"), heads[:, None])
    refused = [not NUMBER.fullmatch(cell) for cell in cells]
    assert broken.tolist() == [off or past_range(cell) for cell, off in zip(cells, refused)]
    for cell, off in zip(cells, refused):
        try:
            orjson.loads(f"[{cell}]")
            rejected = False
        except orjson.JSONDecodeError:
            rejected = True
        assert rejected == (off or math.isinf(float(cell))), cell
        assert off or not math.isinf(float(cell)) or past_range(cell), cell


def test_one_number_grammar_over_short_cells():
    assert_one_number_grammar(SHORT_CELLS)


@settings(max_examples=40, deadline=None)
@given(cells=st.lists(JSON_NUMBERS, min_size=1, max_size=20))
def test_one_number_grammar_over_json_numbers(cells):
    assert_one_number_grammar(cells)


# cells that keep a column of plain numbers off orjson's path one cell at a time
DIRTY_CELLS = ["", "n/a", "nan", "-0", " 900 ", "\uff11"]


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.one_of(
    JSON_NUMBERS,
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-(2**70), 2**70).map(str),
    st.sampled_from(FLOAT_EDGES),
), min_size=1, max_size=40), dirty=st.lists(
    st.tuples(st.integers(0, 40), st.sampled_from(DIRTY_CELLS)), max_size=4))
def test_any_number_cells_match_float(texts, dirty):
    """Number cells; the same column with every cell space-padded, or every
    cell "nan" or "n/a"; and the numbers with a few odd cells among them."""
    assert_floats_match_float(texts)
    assert_floats_match_float([f" {text} " for text in texts])
    assert_floats_match_float(["nan"] * len(texts))
    assert_floats_match_float(["n/a"] * len(texts))
    for at, cell in dirty:
        texts.insert(at, cell)
    assert_floats_match_float(texts)


@pytest.mark.parametrize("header", ["time,nd,w,pv,note", "note,pv,time,w,nd", "time,nd,w,pv"])
def test_lines_with_odd_cells_are_read_whole(header, tmp_path):
    """A line with an odd value cell is read whole by _odd_row, and no other
    line is."""
    names = header.split(",")
    cells = {"time": "2017-01-16T00:00:00Z", "nd": "48000", "w": "900", "pv": "0", "note": ""}
    rows = [dict(cells, time=f"2017-01-16T{i // 12:02d}:{i % 12 * 5:02d}:00Z") for i in range(240)]
    rows[7]["pv"], rows[9]["nd"], rows[9]["w"], rows[200]["w"] = " 1", "n/a", "", "-0"
    path = tmp_path / "odd.csv"
    path.write_text("".join(",".join(row[n] for n in [*names]) + "\r\n"
                            for row in [dict(zip(names, names)), *rows]))
    read = []
    odd_row = ingest._odd_row

    def spy(text, width, fields, need):
        read.append([ingest._line_row(text)[k] for k in fields[1:]])
        return odd_row(text, width, fields, need)

    with mock.patch.object(ingest, "_odd_row", spy):
        errors = []
        records = parse_csv(path, {"timestamp": "time", "demand": "nd", "wind": "w", "solar": "pv"},
                            errors)
    # demand, wind and solar of rows 7, 9 and 200, column by column
    assert [list(column) for column in zip(*read)] == [
        ["48000", "n/a", "48000"], ["900", "", "-0"], [" 1", "0", "0"]]
    assert [(e.line, e.reason) for e in errors] == [
        (11, "unparseable field: could not convert string to float: 'n/a'")]
    assert records.solar_mw[7] == 1.0 and np.signbit(records.wind_mw[199])  # row 9 was dropped


def test_float_cells_match_repr_over_every_binade():
    """Every finite binade read back from its repr, a chunk of rows at a time,
    bit for bit and without a call to float()."""
    rng = np.random.default_rng(20170116)
    # biased exponents 1009-1077 span the fixed-notation reprs; 0-2046 every finite binade
    exponents = np.concatenate(
        [rng.integers(1009, 1078, size=2**17), np.repeat(np.arange(2047), 32)]
    )
    signs = rng.integers(0, 2, size=exponents.size, dtype=np.uint64)
    mantissas = rng.integers(0, 2**52, size=exponents.size, dtype=np.uint64)
    bits = (signs << np.uint64(63)) | (exponents.astype(np.uint64) << np.uint64(52)) | mantissas
    texts = list(map(float.__repr__, bits.view(np.float64).tolist()))
    with mock.patch.object(ingest, "float", create=True, side_effect=AssertionError):
        for start in range(0, len(texts), 2048):
            chunk = texts[start:start + 2048]
            out, reasons = byte_path_floats(chunk)
            assert not reasons
            assert out.view(np.uint64).tolist() == bits[start:start + len(chunk)].tolist()


def test_clean_year_takes_only_the_fast_paths(synth_csv):
    """float() is looked up in the module first, so a clean value column that
    fell back to it would call the mock; so would a timestamp that left the
    byte matrix for _parse_timestamp."""
    with mock.patch.object(ingest, "float", create=True, side_effect=AssertionError), \
            mock.patch.object(ingest, "_parse_timestamp", side_effect=AssertionError):
        records = parse_csv(synth_csv)
    assert len(records) == SAMPLES_PER_YEAR


# YYYY-MM-DD[T ]HH:MM:SS with a Z or +00:00 suffix or none, in ASCII digits
FAST_STAMP = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}[T ][0-9]{2}:[0-9]{2}:[0-9]{2}(Z|\+00:00)?")
STAMP_EDGES = [
    "2017-01-16T00:00:00", "2017-01-16 00:00:00Z", "2017-01-16T00:00:00+00:00",
    "2017-02-30T00:00:00Z", "2017-01-16T24:00:00", "2017-01-16T00:00:00+01:00",
    "\uff12\uff10\uff11\uff17-01-16T00:00:00Z", "2017-01-16T00:00:0\uff10",
    "2016-02-29T12:00:00Z", "2017-02-29T12:00:00Z", "1900-02-29 00:00:00", "2000-02-29 00:00:00",
    "0001-01-01T00:00:00", "9999-12-31T23:59:59Z", "0000-01-01T00:00:00",
    "2017-01-16T00:00:60Z", "2017-13-01T00:00:00Z", "2017-00-10T00:00:00Z",
    "2017-01-00T00:00:00Z", "2017-01-16T00:00:00z", "2017-01-16T00:00:00+00:01",
    "2017/01/16T00:00:00", "2017-01-16X00:00:00", "2017-01-16T00:00:00.000Z", "2017-01-16",
    "", "NaT", " 2017-01-16T00:00:00", "2017-01-16T00:00:00 ", "2017-1-16T00:00:00Z",
]


def iso_utc_us(texts):
    """_iso_utc_us on each group of ASCII texts of one of its lengths."""
    us, mask = np.zeros(len(texts), np.int64), np.zeros(len(texts), bool)
    for length in ingest._ISO_FORMS:
        rows = [j for j, text in enumerate(texts) if len(text) == length and text.isascii()]
        if rows:
            group = "".join(texts[j] for j in rows).encode()
            us[rows], mask[rows] = _iso_utc_us(np.frombuffer(group, np.uint8).reshape(-1, length))
    return us, mask


def stamp_reference(texts):
    """_parse_timestamp of each text as UTC microseconds (0 where it fails),
    and its reasons."""
    us, reasons = [], {}
    for j, text in enumerate(texts):
        try:
            us.append((_parse_timestamp(text) - ingest._EPOCH) // ingest._ONE_US)
        except (ValueError, OverflowError) as exc:
            us.append(0)
            reasons[j] = f"unparseable field: {exc}"
    return us, reasons


def assert_stamps_match_parse_timestamp(texts):
    """Exactly the texts in the fast form that _parse_timestamp reads are in
    _iso_utc_us's mask, with its instants. A line read alone by _odd_row, with
    the text as its quoted timestamp cell, and the rows of a chunk read from
    its bytes, give _parse_timestamp's instants and reasons."""
    expected, expected_reasons = stamp_reference(texts)
    us, mask = iso_utc_us(texts)
    for j, text in enumerate(texts):
        assert mask[j] == (j not in expected_reasons and bool(FAST_STAMP.fullmatch(text))), text
        assert us[j] == expected[j] or not mask[j], text
    us, _, reasons = odd_rows([f"{quoted(text)},1,900,0\n" for text in texts])
    assert (us, reasons) == (expected, expected_reasons)
    cells = [text for text in texts if not set(text) & set(',"\r\n')]
    if cells:
        us, _, reasons = read_chunk([f"{text},1,900,0\n" for text in cells])
        assert (us.tolist(), reasons) == stamp_reference(cells)


@st.composite
def stamp_texts(draw):
    """An ISO stamp in one of several forms, sometimes with one character changed."""
    t = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31)))
    text = t.replace(microsecond=0).isoformat(draw(st.sampled_from("T ")))
    text += draw(st.sampled_from(["", "Z", "+00:00", "+01:00", ".000Z", "-00:00"]))
    if draw(st.booleans()):
        k = draw(st.integers(0, len(text) - 1))
        text = text[:k] + draw(st.sampled_from("0123456789\uff10-: TZ+x")) + text[k + 1:]
    return text


@pytest.mark.parametrize("text", STAMP_EDGES)
def test_stamp_edge_matches_parse_timestamp(text):
    assert_stamps_match_parse_timestamp([text])
    assert_stamps_match_parse_timestamp(["2017-01-16T00:00:00Z", text, "2017-01-16 00:05:00"])


def test_every_stamp_edge_in_one_chunk():
    assert_stamps_match_parse_timestamp(STAMP_EDGES * 2)


@settings(max_examples=300, deadline=None)
@given(texts=st.lists(st.one_of(stamp_texts(), st.sampled_from(STAMP_EDGES)),
                      min_size=1, max_size=40))
def test_mixed_length_stamp_chunks_match_parse_timestamp(texts):
    assert_stamps_match_parse_timestamp(texts)
