import tracemalloc
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windfleet.ingest import (
    CADENCE_S,
    SAMPLES_PER_WEEK,
    SAMPLES_PER_YEAR,
    IngestError,
    RawRecord,
    canonicalize,
    parse_csv,
)
from _helpers import series_to_records

T0 = datetime(2017, 1, 16, tzinfo=timezone.utc)


def ts(i):
    return T0 + timedelta(seconds=i * CADENCE_S)


def rec(i, demand=48000.0, wind=900.0, solar=0.0):
    return RawRecord(ts(i), demand, wind, solar)


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
# tokenizer in 2,048-line chunks at 6.87 MB (Python 3.11, numpy 2.4)
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
        records = [rec(0, demand=48000.0), rec(2, demand=50000.0)]
        series = canonicalize(records)
        assert series.n_samples == 3
        assert series.demand[1] == pytest.approx(49.0)
        assert any("interpolated 1" in note for note in series.provenance)

    def test_gap_of_twelve_repaired(self):
        series = canonicalize([rec(0), rec(13)])
        assert series.n_samples == 14

    def test_gap_of_thirteen_fatal(self):
        with pytest.raises(IngestError, match="gap exceeds 1 hour"):
            canonicalize([rec(0), rec(14)])

    def test_duplicates_keep_first(self):
        records = [rec(0, demand=48000.0), rec(0, demand=1000.0), rec(1)]
        series = canonicalize(records)
        assert series.demand[0] == pytest.approx(48.0)

    def test_mw_to_gw(self):
        series = canonicalize([rec(0, demand=48000.0), rec(1, demand=48000.0)])
        assert series.demand[0] == pytest.approx(48.0)

    def test_unsorted_input_sorted(self):
        series = canonicalize([rec(1, demand=50000.0), rec(0, demand=48000.0)])
        assert series.demand[0] == pytest.approx(48.0)
        assert series.start_time == ts(0)

    def test_off_grid_timestamp_fatal(self):
        bad = RawRecord(ts(0) + timedelta(seconds=150), 48000.0, 0.0, 0.0)
        with pytest.raises(IngestError, match="cadence"):
            canonicalize([rec(0), bad, rec(1)])

    def test_empty_fatal(self):
        with pytest.raises(IngestError, match="no records"):
            canonicalize([])

    def test_timestamps_reconstruct(self):
        series = canonicalize([rec(2), rec(0), rec(1)])
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
        records = [
            rec(i, demand=float(d), wind=float(w), solar=float(s))
            for i, (d, w, s) in enumerate(values)
            if i not in drop or i in (0, len(values) - 1)
        ]
        first = canonicalize(records)
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
