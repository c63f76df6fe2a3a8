"""The columnar parse_csv + canonicalize against a row-by-row reference.

The reference is the row-at-a-time reader this package used before its
ingest worked on columns (csv.DictReader, one record per row, a sorted list
for canonicalize), with its three fixes: a row too short for the mapped
columns is a row error, a UTF-8 byte-order mark is skipped, and a header
that repeats a mapped name is fatal, where csv.DictReader would read the
last column of that name. A record is a (UTC microseconds since the epoch,
demand, wind, solar) tuple, compared with the columns of parse_csv's Records.
"""

import csv
import io
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windfleet import ingest
from windfleet.ingest import (
    CADENCE_S,
    DEFAULT_COLUMNS,
    MAX_GAP_SAMPLES,
    MW_PER_GW,
    GridSeries,
    IngestError,
    _parse_timestamp,
    canonicalize,
    parse_csv,
)

T0 = datetime(2017, 1, 16, tzinfo=timezone.utc)
EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
ONE_US = timedelta(microseconds=1)
COLUMNS = {"timestamp": "time", "demand": "nd", "wind": "w", "solar": "pv"}


def reference_parse(path, column_map):
    """(records, [(line, reason)], rows counted), one row at a time."""
    columns = dict(DEFAULT_COLUMNS, **column_map)
    records, errors, n_rows = [], [], 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        repeated = [c for c in columns.values() if reader.fieldnames.count(c) > 1]
        if repeated:
            raise IngestError(f"{path}: mapped column {repeated[0]!r} repeats in the header")
        need = max(reader.fieldnames.index(c) for c in columns.values()) + 1
        for row in reader:
            if all(v is None or not str(v).strip() for v in row.values()):
                continue
            n_rows += 1
            line = reader.line_num
            if any(row[c] is None for c in columns.values()):
                n_fields = sum(v is not None for v in row.values())
                errors.append((line, f"too few fields: {n_fields}, the mapped columns need {need}"))
                continue
            try:
                ts = _parse_timestamp(row[columns["timestamp"]])
                demand = float(row[columns["demand"]])
                wind = float(row[columns["wind"]])
                solar = float(row[columns["solar"]])
            except (ValueError, OverflowError) as exc:
                errors.append((line, f"unparseable field: {exc}"))
                continue
            if not all(np.isfinite(v) for v in (demand, wind, solar)):
                errors.append((line, "non-finite value"))
                continue
            if demand <= 0:
                errors.append((line, f"demand must be > 0, got {demand}"))
                continue
            if wind < 0 or solar < 0:
                errors.append((line, "wind and solar must be >= 0"))
                continue
            records.append(((ts - EPOCH) // ONE_US, demand, wind, solar))
    return records, errors, n_rows


def reference_canonicalize(records, source):
    if not records:
        raise IngestError("no records to canonicalize")
    deduped, dropped, last_us = [], 0, None
    for rec in sorted(records, key=lambda r: r[0]):
        if last_us is not None and rec[0] == last_us:
            dropped += 1
            continue
        deduped.append(rec)
        last_us = rec[0]
    t0 = deduped[0][0]
    offsets = np.array([r[0] - t0 for r in deduped])
    cadence_us = CADENCE_S * 1_000_000
    misaligned = offsets % cadence_us != 0
    if np.any(misaligned):
        bad = EPOCH + ONE_US * deduped[int(np.argmax(misaligned))][0]
        raise IngestError(f"non-{CADENCE_S} s cadence at {bad.isoformat()}")
    idx = offsets // cadence_us
    gaps = np.diff(idx) - 1
    n_gaps = int(np.count_nonzero(gaps))
    if n_gaps:
        worst_at = int(np.argmax(gaps))
        worst = int(gaps[worst_at])
        if worst > MAX_GAP_SAMPLES:
            gap_start = EPOCH + ONE_US * (deduped[worst_at][0] + cadence_us)
            raise IngestError(
                f"gap exceeds 1 hour: {worst} consecutive samples missing "
                f"from {gap_start.isoformat()}"
            )
    n = int(idx[-1]) + 1
    full = np.arange(n)
    columns = [np.interp(full, idx, [r[k] for r in deduped]) / MW_PER_GW for k in (1, 2, 3)]
    provenance = [f"source: {source}"]
    if dropped:
        provenance.append(f"dropped {dropped} duplicate-timestamp rows (kept first)")
    if n - len(deduped):
        provenance.append(
            f"interpolated {n - len(deduped)} missing samples across {n_gaps} gaps"
        )
    return GridSeries(EPOCH + ONE_US * t0, *columns, provenance=tuple(provenance))


def stamp(i, form):
    t = T0 + timedelta(seconds=CADENCE_S * i)
    return {
        "Z": t.strftime("%Y-%m-%dT%H:%M:%SZ"),
        "space+00:00": t.strftime("%Y-%m-%d %H:%M:%S+00:00"),
        "naive": t.strftime("%Y-%m-%dT%H:%M:%S"),
        "+01:00": (t + timedelta(hours=1)).strftime("%Y-%m-%dT%H:%M:%S+01:00"),
        "padded": f" {t:%Y-%m-%dT%H:%M:%SZ} ",
        "fraction": t.strftime("%Y-%m-%dT%H:%M:%S.000Z"),
        "date-only": t.strftime("%Y-%m-%d"),
    }[form]


GOOD_VALUES = [
    "48000", "48000.5", " 900 ", "1_000", "1e3", "0.25", "+1", ".5", "5.", "01",
    "9007199254740993", "18446744073709551617", "0.1000000000000000055511151231257827",
    "1.00000000000000011102230246251565404236316680908203125", "4.9406564584124654e-324",
]
ZERO_VALUES = ["-0", "-0.0", "-0e0", " -0", "1e-400", "0.0"]  # good for wind and solar only
BAD_VALUES = [
    "nan", "-inf", "inf", "x", "", "-5", "1e999", "0", "1" * 5000, "true", "null", '"1.5"',
    "1,5", "1e",
]
BAD_STAMPS = [
    "NaT", "now", "today", "", "2017-02-30T00:00:00Z", "2017-01-16 25:00:00+00:00",
    "0000-01-01T00:00:00", "2017-01-16T00:02:30Z", "0001-01-01T00:00:00+01:00",
    "2017-01-16T00:00:00+0000", "2017-1-16T00:00:00Z", "2017-01-16T00:00:00Zjunk",
]
NOTES = ["", "plain", "a,b", 'say "hi"']
BROKEN_NOTES = ["two\nlines", "cr\r\nlf", "cr\ronly"]  # quoted or not, line numbers move


@st.composite
def documents(draw):
    """A CSV document: renamed, reordered columns plus a note column; mostly
    good rows over a short run of samples, with odd lines mixed in."""
    header = draw(st.permutations([*COLUMNS.values(), "note"]))
    n_good = draw(st.sampled_from([1, 3, 20, 150, 250]))  # 1% of 150 rows: one row error
    good = draw(st.lists(st.fixed_dictionaries({
        "time": st.builds(stamp, st.integers(0, 30), st.sampled_from(
            ["Z", "space+00:00", "naive", "+01:00", "padded", "fraction", "date-only"])),
        "nd": st.sampled_from(GOOD_VALUES),
        "w": st.sampled_from(GOOD_VALUES + ZERO_VALUES),
        "pv": st.sampled_from(GOOD_VALUES + ZERO_VALUES),
        "note": st.sampled_from(NOTES),
    }), min_size=n_good, max_size=n_good))
    rows = [[row[name] for name in header] for row in good]
    replace = lambda row, col, text: [text if name == col else v for name, v in zip(header, row)]
    odd_rows = st.one_of(
        st.just([]),                                   # blank line
        st.just([""] * len(header)),                   # comma-only line
        st.just([" "]),                                # whitespace-only line
        st.just([""] * (len(header) + 2)),             # comma-only, longer than the header
        st.builds(lambda row, k: row[:k], st.sampled_from(rows), st.integers(1, len(header) - 1)),
        st.builds(lambda row, extra: row + extra, st.sampled_from(rows),
                  st.lists(st.sampled_from(NOTES + BROKEN_NOTES), min_size=1, max_size=3)),
        st.builds(replace, st.sampled_from(rows), st.just("note"), st.sampled_from(BROKEN_NOTES)),
        st.builds(replace, st.sampled_from(rows), st.sampled_from(["nd", "w", "pv"]),
                  st.sampled_from(BAD_VALUES)),
        st.builds(replace, st.sampled_from(rows), st.just("time"), st.sampled_from(BAD_STAMPS)),
    )
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(odd_rows))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def assert_same_series(series, expected):
    assert series.start_time == expected.start_time
    assert series.provenance == expected.provenance
    for name in ("demand", "wind_metered", "solar"):
        assert getattr(series, name).tobytes() == getattr(expected, name).tobytes()


def outcome(fn, *args):
    try:
        return fn(*args)
    except IngestError as exc:
        return str(exc)


def every_odd_case() -> str:
    """Each bad stamp, bad value and odd line once, after a line-breaking
    note, among enough good rows that the 1% rule lets them all through."""
    header = ["note", "w", "time", "nd", "pv"]
    good = lambda i, **kw: [kw.get(name, v) for name, v in zip(header, (
        "", "900", stamp(i % 31, "Z"), "48000", "0"))]
    odd = [[], [""] * 5, [" "], [""] * 7, good(3)[:2], good(4)[:3], good(5) + ["x", ""]]
    odd += [good(6, time=text) for text in BAD_STAMPS]
    odd += [good(7, **{col: text}) for col in ("nd", "w", "pv") for text in BAD_VALUES]
    rows = []
    for i, row in enumerate(odd):
        rows.append(good(i, note=BROKEN_NOTES[i % len(BROKEN_NOTES)]))
        rows += [good(i + k) for k in range(100)]
        rows.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


CHUNK_SIZES = [1, 3, 16, ingest.CHUNK_ROWS, 8192]
READ_SIZES = [1, 7, 64, ingest.READ_BYTES]  # bytes per file read


@pytest.mark.parametrize("chunk_rows", CHUNK_SIZES)
def test_every_odd_case_matches_reference(chunk_rows):
    check_against_reference(every_odd_case(), chunk_rows)


@pytest.mark.parametrize("read_bytes", READ_SIZES[:-1])
@pytest.mark.parametrize("chunk_rows", [3, ingest.CHUNK_ROWS])
def test_every_odd_case_at_small_reads(chunk_rows, read_bytes):
    check_against_reference(every_odd_case(), chunk_rows, read_bytes)


@settings(max_examples=80, deadline=None)
@given(text=documents(), chunk_rows=st.sampled_from(CHUNK_SIZES),
       read_bytes=st.sampled_from(READ_SIZES))
def test_matches_row_by_row_reference(text, chunk_rows, read_bytes):
    check_against_reference(text, chunk_rows, read_bytes)


@pytest.mark.parametrize("chunk_rows", [16, 8192])
def test_bad_cells_at_chunk_and_column_edges(chunk_rows):
    """Bad value cells on the first and last cell of a chunk and of a column."""
    n = 2 * chunk_rows + 3
    edges = [0, 1, chunk_rows - 1, chunk_rows, chunk_rows + 1, 2 * chunk_rows - 1,
             2 * chunk_rows, n - 1]
    rows = [[stamp(i, "Z"), "48000", "900", "0"] for i in range(n)]
    for k, i in enumerate(edges):
        rows[i][1 + k % 3] = ["n/a", "", "x"][k % 3]
    rows[chunk_rows][1:] = ["", "n/a", "x"]  # the first failing column names the row
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([list(COLUMNS.values()), *rows])
    check_against_reference(out.getvalue(), chunk_rows)


HEADER = "time,nd,w,pv,note"


def good_line(i, note="", end="\n"):
    """A good row for HEADER, or without its note column when ``note`` is None."""
    cells = [stamp(i % 31, "Z"), "48000", "900", "0"] + ([] if note is None else [note])
    return ",".join(cells) + end


def document(odd: dict[int, str], n=200, last_end="\n", end="\n", header=HEADER):
    """The header, then ``n`` good lines, with ``odd[i]`` in place of the i-th."""
    note = "" if header.endswith("note") else None
    lines = [odd.get(i, good_line(i, note, end)) for i in range(n)]
    lines[-1] = lines[-1].rstrip("\r\n") + last_end
    return header + "\n" + "".join(lines)


@pytest.mark.parametrize("chunk_rows", [3, 4, 16])
@pytest.mark.parametrize("at", [-1, 0, 1])  # the quoted note starts on this line of a chunk
def test_quoted_note_straddles_a_chunk_boundary(chunk_rows, at):
    """The chunk with the quote reads on into the next chunk's lines; the
    quote-free chunks after it keep their line numbers."""
    first = 2 * chunk_rows + at
    odd = {first: good_line(first, note='"two\nlines"'),
           first + 2 * chunk_rows: f"{stamp(3, 'Z')},48000\n",  # row errors name their lines
           first + 3 * chunk_rows: f"{stamp(4, 'Z')},48000,n/a,0,\n"}
    check_against_reference(document(odd, n=300), chunk_rows)


@pytest.mark.parametrize("last_end", ["\n", ""])
@pytest.mark.parametrize("note", ['say "hi"', '"a,b"', '"open\nnote"'])
def test_quote_only_in_the_last_chunk(note, last_end):
    check_against_reference(document({198: good_line(198, note=note)}, last_end=last_end), 16)


def quote_all(line: str) -> str:
    """``line`` with each of its comma-separated cells in quotes."""
    body = line.rstrip("\r\n")
    return ",".join(f'"{cell}"' for cell in body.split(",")) + line[len(body):]


# cells that take a chunk with quotes off the byte path, and cells that keep it there
QUOTE_BREAKERS = ['"a""b"', '"a"b', 'a"b"', '"1,5"', '"two\nlines"', '"', '"open']
QUOTE_KEEPERS = ['""', '" "', '"n/a"', '" 900 "', '"-0"', '"x"']


@pytest.mark.parametrize("last_end", ["\n", ""])
@pytest.mark.parametrize("cell", QUOTE_BREAKERS + QUOTE_KEEPERS)
def test_quoted_cells_match_reference(cell, last_end):
    """Every line quoted, cell by cell, with one odd cell as a value, as a
    note, at a line's start and on the last line; a chunk whose quotes each
    wrap a whole cell is read from its bytes, any other by csv.reader."""
    odd = {i: quote_all(good_line(i)) for i in range(400)}
    odd[21] = quote_all(good_line(21)).replace('"900"', cell)
    odd[40] = quote_all(good_line(40)).rsplit(",", 1)[0] + f",{cell}\n"
    odd[63] = cell + quote_all(good_line(63))[len(quote_all(stamp(63 % 31, "Z"))):]
    odd[399] = quote_all(good_line(399)).replace('"0"', cell)
    text = document(odd, n=400, last_end=last_end)
    with mock.patch.object(ingest, "_plain_rows", wraps=ingest._plain_rows) as plain_rows:
        check_against_reference(text, 16)
    # 25 chunks of 16 lines; a breaker sends its chunks to csv.reader
    assert (plain_rows.call_count == 25) == (cell in QUOTE_KEEPERS)


@pytest.mark.parametrize("header", ["time,nd,w,pv,w", "pv,time,nd,w,pv", "time,nd,w,pv,note,note"])
def test_repeated_header_names_match_reference(header, tmp_path):
    """A header that repeats a mapped name is fatal, naming the column; a
    repeated unmapped name is read."""
    cells = {"time": stamp(0, "Z"), "nd": "48000", "w": "900", "pv": "0", "note": "x"}
    text = header + "\n" + ",".join(cells[name] for name in header.split(",")) + "\n"
    path = tmp_path / "export.csv"
    path.write_text(text)
    expected = outcome(reference_parse, path, COLUMNS)
    if isinstance(expected, str):
        assert expected.endswith("repeats in the header")
        assert outcome(parse_csv, path, COLUMNS) == expected
    else:
        check_against_reference(text, 16)


@pytest.mark.parametrize("chunk_rows", [1, 3, 16])
@pytest.mark.parametrize("header", [HEADER, "time,nd,w,pv"])
def test_cr_only_and_mixed_line_ends(chunk_rows, header):
    """No line end stays in a cell: the last column's bad texts keep their reasons."""
    ends = ["\r", "\n", "\r\n"]
    note = "" if header == HEADER else None
    mixed = {i: good_line(i, note, end=ends[i % 3]) for i in range(500)}
    mixed.update({
        17: "\r", 18: ",,,,\r\n", 19: " \r",
        40: f"{stamp(4, 'Z')},48000\r",
        41: "x\r\n",
        42: f"{stamp(5, 'Z')},48000,900,x\r\n",
        43: f"{stamp(6, 'Z')},48000,900,\r",
    })
    check_against_reference(document(mixed, n=500, header=header), chunk_rows)
    check_against_reference(document({5: "\r", 6: " , \r"}, end="\r", header=header), chunk_rows)


BLANK_LINES = ["\n", " \n", "\t\n", ",,,,\n", " , ,, ,\n", ",\n", "\x1c\n", "\u3000,\n"]


@pytest.mark.parametrize("blank", BLANK_LINES)
@pytest.mark.parametrize("last_end", ["\n", ""])
def test_blank_lines_at_chunk_edges_and_end_of_file(blank, last_end):
    """Blank, whitespace-only and comma-only lines first and last in a chunk of
    4 lines, and as the file's last line, with and without a line end."""
    odd = {i: blank for i in (0, 3, 4, 7, 12, 13, 14, 15, 197, 199)}
    check_against_reference(document(odd, last_end=last_end), 4)


@pytest.mark.parametrize("chunk_rows", [1, 4, 16])
@pytest.mark.parametrize("last_end", ["\n", ""])
def test_lines_starting_with_a_control_or_non_ascii_byte(chunk_rows, last_end):
    """Lines whose first byte is a control or non-ASCII byte, blank or not."""
    odd = {
        3: "\x01" + good_line(3),            # its timestamp is unparseable
        5: "\u00e9" + good_line(5),
        7: "\u3000" + good_line(7),          # whitespace that strip() takes off the stamp
        9: "\x0c" + good_line(9),
        11: "\u00a0,,,,\n", 12: "\x1f,,,,\n",  # blank
        13: "\x7f,48000,900,0,\n",
    }
    check_against_reference(document(odd, n=700, last_end=last_end), chunk_rows)
    check_against_reference(document({699: "\u3000" + good_line(699)}, n=700, last_end=last_end),
                            chunk_rows)


@pytest.mark.parametrize("chunk_rows", [3, 16, ingest.CHUNK_ROWS])
def test_rows_shorter_and_longer_than_the_header(chunk_rows):
    full = good_line(9).rstrip("\n")
    odd = {
        3: full.rsplit(",", 1)[0] + "\n",      # no note: the mapped columns are all there
        4: ",".join(full.split(",")[:2]) + "\n",  # too few fields
        5: full.split(",")[0] + "\n",          # one field
        6: full + ",x,y,z\n",                  # longer than the header
        7: full + ",,,,,,\n",
        8: ",,,,,,,,\n",                       # comma-only, longer than the header: a row error
    }
    check_against_reference(document(odd, n=700), chunk_rows)


def cut_at_a_read(text, read_bytes, test):
    """Whether ``test(data, at)`` holds at some offset ``at`` of ``text``'s
    UTF-8 bytes where one file read ends and the next begins: after the
    three bytes read for a byte-order mark, then every ``read_bytes``."""
    data = text.encode()
    return any(test(data, at) for at in range(3, len(data), read_bytes))


def with_errors(odd: dict[int, str], end="\n", **kw) -> str:
    """A 300-line document with ``odd`` lines and two row errors late in it,
    so that a line miscounted early shows in their line numbers."""
    errors = {150: f"{stamp(3, 'Z')},48000{end}", 290: good_line(7, end=end).replace("900", "n/a")}
    return document({**errors, **odd}, n=300, end=end, **kw)


READ_EDGES = {
    # a "\r\n" whose "\r" ends one read and whose "\n" starts the next
    "crlf": (with_errors({}, end="\r\n"), lambda data, at: data[at - 1:at + 1] == b"\r\n"),
    # only lone "\r" line ends, one at the end of a read
    "cr": (with_errors({5: "\r", 6: " , \r"}, end="\r", last_end="\r").replace("\n", "\r"),
           lambda data, at: data[at - 1:at] == b"\r"),
    # a two- and a three-byte character cut between two reads
    "utf-8": (with_errors({i: good_line(i, note="\u00e9t\u20ac") for i in range(0, 300, 3)}),
              lambda data, at: 0x80 <= data[at] < 0xc0),
    # a byte-order mark, then a read that ends inside the header
    "bom": ("\ufeff" + with_errors({}), lambda data, at: at < data.index(b"\n")),
    # a quoted field open across a read boundary, and across chunks
    "quoted": (with_errors({i: good_line(i, note='"open\n,note"') for i in range(1, 300, 7)}),
               lambda data, at: data.rfind(b'"', 0, at) > data.rfind(b"\n", 0, at)),
}


@pytest.mark.parametrize("read_bytes", READ_SIZES)
@pytest.mark.parametrize("chunk_rows", [1, 4, 16])
@pytest.mark.parametrize("edge", READ_EDGES)
def test_read_boundary_edges(edge, chunk_rows, read_bytes):
    """Records, row errors and line numbers stay the reference's, wherever
    a file read ends."""
    text, cut = READ_EDGES[edge]
    if read_bytes < 64:
        assert cut_at_a_read(text, read_bytes, cut)
    check_against_reference(text, chunk_rows, read_bytes)


def expected_csv_error(path):
    """The IngestError text of a csv.reader over the whole file, as parse_csv
    reported it before it split quote-free lines itself."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for _ in reader:
                pass
        except csv.Error as exc:
            return f"{path} line {reader.line_num}: {exc}"
    return None


@pytest.mark.parametrize("chunk_rows", [1, 3, ingest.CHUNK_ROWS])
def test_field_over_the_csv_limit_same_error_and_line(tmp_path, chunk_rows):
    path = tmp_path / "long.csv"
    path.write_text(document({5: good_line(5, note="x" * 140_000)}), encoding="utf-8")
    expected = expected_csv_error(path)
    assert expected == f"{path} line 7: field larger than field limit (131072)"
    with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
        with pytest.raises(IngestError) as raised:
            parse_csv(path, COLUMNS)
    assert str(raised.value) == expected


@pytest.mark.parametrize("chunk_rows", [1, 3, 16])
@pytest.mark.parametrize("odd", [
    {5: good_line(5, note="x" * 60)},                       # one field over the limit
    {5: good_line(5, note="x" * 30 + ",y" + "y" * 30)},     # a long line of short fields
    {5: good_line(5, note="x" * 60), 9: good_line(9, note='"q"')},
    {9: good_line(9, note='"q\n' + "x" * 60 + '"')},         # a quoted field over the limit
])
def test_lines_over_a_lowered_csv_limit(tmp_path, chunk_rows, odd):
    """Lines longer than the field limit go through the csv module: a field
    over it is the same fatal error, on the same line; short fields pass."""
    path = tmp_path / "long.csv"
    path.write_text(document(odd), encoding="utf-8")
    limit = csv.field_size_limit(50)
    try:
        expected = expected_csv_error(path)
        if expected is None:
            check_against_reference(document(odd), chunk_rows)
        else:
            with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows):
                with pytest.raises(IngestError) as raised:
                    parse_csv(path, COLUMNS)
            assert str(raised.value) == expected
    finally:
        csv.field_size_limit(limit)


def check_against_reference(text, chunk_rows, read_bytes=ingest.READ_BYTES):
    """Same row errors, records and GridSeries (or error) as the reference."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected_records, expected_errors, n_rows = reference_parse(path, COLUMNS)
        errors = []
        with mock.patch.object(ingest, "CHUNK_ROWS", chunk_rows), \
                mock.patch.object(ingest, "READ_BYTES", read_bytes):
            if len(expected_errors) > 0.01 * n_rows:
                with pytest.raises(IngestError, match="malformed"):
                    parse_csv(path, COLUMNS, errors)
                records = None
            else:
                records = parse_csv(path, COLUMNS, errors)
    assert [(e.line, e.reason) for e in errors] == expected_errors
    if records is None:
        return
    expected_columns = list(zip(*expected_records)) or [()] * 4
    assert records.timestamp_us.tolist() == list(expected_columns[0])
    for name, column in zip(("demand_mw", "wind_mw", "solar_mw"), expected_columns[1:]):
        # bit for bit: -0.0 is not 0.0
        assert getattr(records, name).tobytes() == np.array(column, float).tobytes(), name
    expected = outcome(reference_canonicalize, expected_records, "x")
    series = outcome(canonicalize, records, "x")
    if isinstance(expected, str):
        assert series == expected
    else:
        assert_same_series(series, expected)


def test_synthetic_year_matches_reference(synth_csv):
    expected_records, expected_errors, _ = reference_parse(synth_csv, {})
    records = parse_csv(synth_csv)
    assert not expected_errors
    assert len(records) == len(expected_records)
    assert_same_series(
        canonicalize(records, source="year"), reference_canonicalize(expected_records, "year")
    )
