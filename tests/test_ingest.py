import io
import re
import tracemalloc
from datetime import datetime, timedelta, timezone
from unittest import mock

import numpy as np
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
    _floats,
    _iso_utc_us,
    _parse_timestamp,
    _timestamps_us,
    canonicalize,
    parse_csv,
)
from _helpers import EPOCH, series_to_records

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


# tracemalloc peak of one parse_csv of the synthetic year: csv.reader rows in
# 8,192-row chunks peaked at 9.12 MB by this test's method, the split
# tokenizer in 2,048-line chunks at 6.87 MB, and the byte reader, which grows
# its four result columns in place instead of joining per-chunk parts, at
# 5.64 MB (Python 3.11, numpy 2.4)
PARSE_PEAK_GUARD_BYTES = 8.72e6


def test_parse_peak_memory_within_guard(synth_csv):
    """Growth in the chunk temporaries fails here, not only as a benchmark's RSS."""
    parse_csv(synth_csv)  # first-call caches stay out of the measurement
    tracemalloc.start()
    try:
        parse_csv(synth_csv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= PARSE_PEAK_GUARD_BYTES, f"parse_csv peak {peak / 1e6:.2f} MB"


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


def byte_path_floats(texts):
    """The wind values and reasons, by row, of a quote-free chunk whose rows
    hold ``texts`` as their wind cells; one row per text that a cell can hold."""
    lines = "".join(f"2017-01-16T00:00:00Z,1,{text},0\n" for text in texts)
    chunk, stops, nexts = ingest._Lines(io.BytesIO(lines.encode())).take(len(texts))
    starts = np.concatenate(([0], nexts[:-1]))
    plain, us, values, reasons = ingest._plain_rows(chunk, starts, stops, nexts, 4, [0, 1, 2, 3])
    assert plain.all()
    return values[:, 1], reasons


def assert_floats_match_float(texts):
    """_floats, and the rows of a chunk read from its bytes, give float()'s
    values and reasons."""
    reasons = {}
    out = _floats(texts, reasons)
    expected, expected_reasons = float_reference(texts)
    assert reasons == expected_reasons
    assert out.view(np.uint64).tolist() == expected.tolist()
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
    " 900 ", "\t900", "900\t", " -0", "-0 ", "\t-0",
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


@pytest.mark.parametrize("cell", [" 900", "900 ", "nan", "-0", "\uff11", "n/a", ""])
def test_column_of_odd_cells_is_read_in_one_float_call(cell):
    """A chunk whose every value cell in one column leaves the byte path,
    padded or not a JSON number, reads that column through float() as one
    call; only a cell float() rejects is then read alone."""
    texts = [cell] * ingest.CHUNK_ROWS
    texts[7] = "48000.5"
    try:
        float(cell)
    except ValueError:
        assert_floats_match_float(texts)
        return
    with mock.patch.object(ingest, "_float", side_effect=AssertionError):
        assert_floats_match_float(texts)


@pytest.mark.parametrize("header", ["time,nd,w,pv,note", "note,pv,time,w,nd", "time,nd,w,pv"])
def test_odd_cells_are_read_alone(header, tmp_path):
    """Only the odd value cells go through float(): the others of their rows,
    before an unmapped column or not, stay on the byte path."""
    names = header.split(",")
    cells = {"time": "2017-01-16T00:00:00Z", "nd": "48000", "w": "900", "pv": "0", "note": ""}
    rows = [dict(cells, time=f"2017-01-16T{i // 12:02d}:{i % 12 * 5:02d}:00Z") for i in range(240)]
    rows[7]["pv"], rows[9]["nd"], rows[9]["w"], rows[200]["w"] = " 1", "n/a", "", "-0"
    path = tmp_path / "odd.csv"
    path.write_text("".join(",".join(row[n] for n in [*names]) + "\r\n"
                            for row in [dict(zip(names, names)), *rows]))
    read = []
    floats = ingest._floats
    with mock.patch.object(ingest, "_floats", lambda texts, reasons: read.extend(texts)
                           or floats(texts, reasons)):
        errors = []
        records = parse_csv(path, {"timestamp": "time", "demand": "nd", "wind": "w", "solar": "pv"},
                            errors)
    assert sorted(read) == sorted([" 1", "n/a", "", "-0"])
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
        for start in range(0, len(texts), ingest.CHUNK_ROWS):
            chunk = texts[start:start + ingest.CHUNK_ROWS]
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


def assert_stamps_match_parse_timestamp(texts):
    """Exactly the texts in the fast form are in _iso_utc_us's mask, with
    _parse_timestamp's instants; _timestamps_us gives those instants and
    reasons, text by text and by byte matrix."""
    us, mask = iso_utc_us(texts)
    for few in (ingest._FEW_TEXTS, 0):
        reasons = {}
        with mock.patch.object(ingest, "_FEW_TEXTS", few):
            slow = _timestamps_us(texts, reasons)
        for j, text in enumerate(texts):
            try:
                expected = (_parse_timestamp(text) - ingest._EPOCH) // ingest._ONE_US
            except (ValueError, OverflowError) as exc:
                assert not mask[j], text
                assert reasons[j] == f"unparseable field: {exc}"
                continue
            assert mask[j] == bool(FAST_STAMP.fullmatch(text)), text
            assert slow[j] == expected and j not in reasons, text
            if mask[j]:
                assert us[j] == expected, text


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
