"""The columnar parse_csv + canonicalize against a row-by-row reference.

The reference is the row-at-a-time reader this package used before its
ingest worked on columns (csv.DictReader, one record per row, a sorted list
for canonicalize), with its four fixes: a row too short for the mapped
columns is a row error, a UTF-8 byte-order mark is skipped, a header that
repeats a mapped name is fatal, where csv.DictReader would read the last
column of that name, and each physical line is one record, where
csv.DictReader would read on while a quoted field spans lines: a line that
leaves a quoted field open at its end is a row error (fatal in the header).
Its canonicalize also refuses a clock hour repeated with other values, the
mark of a local-clock export. A record is a (UTC microseconds since the epoch, demand, wind, solar)
tuple, compared with the columns of parse_csv's Records.
"""

import csv
import hashlib
import io
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from windfleet import cli, ingest
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


UNCLOSED = "quote not closed on its line"


def read_alone(line, fieldnames=None):
    """csv.DictReader's row of one physical line (csv.reader's, without
    ``fieldnames``), None for a blank line, and whether a quoted field is
    still open at the line's end: then the reader reads on into the "\\n"
    given after it."""
    reader = (csv.reader if fieldnames is None else csv.DictReader)([line, "\n"], fieldnames)
    row = next(reader, None)
    return row, reader.line_num > 1 and row is not None


def reference_parse(path, column_map):
    """(records, [(line, reason)], rows counted), one line at a time."""
    columns = dict(DEFAULT_COLUMNS, **column_map)
    records, errors, n_rows = [], [], 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = enumerate(fh, start=1)  # newline="": cut at "\n", "\r\n" or "\r", as csv is
        fieldnames, unclosed = read_alone(next(lines)[1])
        if unclosed:
            raise IngestError(f"{path} line 1: {UNCLOSED}")
        repeated = [c for c in columns.values() if fieldnames.count(c) > 1]
        if repeated:
            raise IngestError(f"{path}: mapped column {repeated[0]!r} repeats in the header")
        need = max(fieldnames.index(c) for c in columns.values()) + 1
        for line, text in lines:
            row, unclosed = read_alone(text, fieldnames)
            if unclosed:
                n_rows += 1
                errors.append((line, UNCLOSED))
                continue
            if row is None or all(v is None or not str(v).strip() for v in row.values()):
                continue
            n_rows += 1
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
    deduped, dropped, changed = [], 0, set()
    cadence_us = CADENCE_S * 1_000_000
    for rec in sorted(records, key=lambda r: r[0]):
        if deduped and rec[0] == deduped[-1][0]:
            dropped += 1
            if rec[1:] != deduped[-1][1:]:
                changed.add(rec[0])
            continue
        deduped.append(rec)
    for us in sorted(changed):  # one clock hour, each sample repeated with other values
        if all(us + k * cadence_us in changed for k in range(3600 // CADENCE_S)):
            raise IngestError(f"the hour from {(EPOCH + ONE_US * us).isoformat()} repeats with "
                              "other values: the file looks like local clock time, not UTC")
    t0 = deduped[0][0]
    offsets = np.array([r[0] - t0 for r in deduped])
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
BROKEN_NOTES = ["two\nlines", "cr\r\nlf", "cr\ronly"]  # quoted or not, two lines, two rows


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
    note, among enough good rows that the 1% rule lets them all through; a
    note's two lines are read as two rows, a row error and a record."""
    header = ["note", "w", "time", "nd", "pv"]
    good = lambda i, **kw: [kw.get(name, v) for name, v in zip(header, (
        "", "900", stamp(i % 31, "Z"), "48000", "0"))]
    odd = [[], [""] * 5, [" "], [""] * 7, good(3)[:2], good(4)[:3], good(5) + ["x", ""]]
    odd += [good(6, time=text) for text in BAD_STAMPS]
    odd += [good(7, **{col: text}) for col in ("nd", "w", "pv") for text in BAD_VALUES]
    rows = []
    for i, row in enumerate(odd):
        rows.append(good(i, note=BROKEN_NOTES[i % len(BROKEN_NOTES)]))
        rows += [good(i + k) for k in range(200)]
        rows.append(row)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([header, *rows])
    return out.getvalue()


# bytes per file read: a chunk is one read's whole lines, and a read of 1
# byte ends at every offset
READ_SIZES = [1, 7, 64, ingest.READ_BYTES]


@pytest.mark.parametrize("read_bytes", READ_SIZES)
def test_every_odd_case_matches_reference(read_bytes):
    check_against_reference(every_odd_case(), read_bytes)


# no shrink phase: shrinking documents of up to 250 rows through the parse and
# the reference takes minutes; the failing example is reported as drawn
@settings(max_examples=80, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(text=documents(), read_bytes=st.sampled_from(READ_SIZES))
def test_matches_row_by_row_reference(text, read_bytes):
    check_against_reference(text, read_bytes)


def chunk_sizes(text, read_bytes=ingest.READ_BYTES):
    """How many lines, the header's among them, each chunk of ``text`` holds."""
    with mock.patch.object(ingest, "READ_BYTES", read_bytes):
        reads = ingest._reads(io.BytesIO(text.encode()), hashlib.sha256())
        return [stops.size for _, stops, _ in reads]


def edge_rows(text, read_bytes):
    """The rows, counted from 0 after the header, that are first or last in
    the file or in their chunk, and the first row of the second chunk."""
    ends = np.cumsum(chunk_sizes(text, read_bytes)).tolist()  # the line after each chunk
    lines = {1, *ends[:-1], *(end - 1 for end in ends)} - {0}  # the header is line 0
    return sorted(line - 1 for line in lines), ends[0] - 1


@pytest.mark.parametrize("read_bytes", [640, ingest.READ_BYTES])
def test_bad_cells_at_chunk_and_column_edges(read_bytes):
    """Bad value cells on the first and last line of a chunk and of a column.
    Every value cell is 5 characters wide, good or bad, so the bad cells move
    no line end."""
    cells = ["48000", "900.0", "0.000"]
    rows = [[stamp(i, "Z"), *cells] for i in range(2 * read_bytes // 39 + 3)]  # 39-byte lines

    def text():
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows([list(COLUMNS.values()), *rows])
        return out.getvalue()

    edges, second = edge_rows(text(), read_bytes)
    assert len(edges) >= 6 and edges[-1] == len(rows) - 1
    for k, i in enumerate(edges):
        rows[i][1 + k % 3] = ["n/a  ", "     ", "x0000"][k % 3]
    rows[second][1:] = ["     ", "n/a  ", "x0000"]  # the first failing column names the row
    assert edge_rows(text(), read_bytes) == (edges, second)
    check_against_reference(text(), read_bytes)


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


@pytest.mark.parametrize("at", [-1, 0, 1])  # a read ends this many bytes after the note's break
def test_quoted_note_straddles_a_chunk_boundary(at):
    """The line whose quote stays open is a row error, and the line after
    it, in the next chunk or not, is read fresh; the chunks after them keep
    their line numbers."""
    first = 40
    odd = {first: good_line(first, note='"two\nlines"'),
           first + 30: f"{stamp(3, 'Z')},48000\n",  # row errors name their lines
           first + 45: f"{stamp(4, 'Z')},48000,n/a,0,\n"}
    text = document(odd, n=500)
    cut = text.index('"two\n') + len('"two\n') + at
    read_bytes = cut - 3  # the first read after the three bytes of the byte-order mark check
    assert chunk_sizes(text, read_bytes)[0] == first + 1 + (at >= 0)  # the header and 40 lines
    errors = check_against_reference(text, read_bytes)
    assert errors[:2] == [(first + 2, UNCLOSED),
                          (first + 3, "too few fields: 1, the mapped columns need 4")]


@pytest.mark.parametrize("last_end", ["\n", ""])
@pytest.mark.parametrize("note", ['say "hi"', '"a,b"', '"open\nnote"'])
def test_quote_only_in_the_last_chunk(note, last_end):
    text = document({198: good_line(198, note=note)}, last_end=last_end)
    read_bytes = len(text) - 300  # the first chunk holds all but the last few lines
    first = chunk_sizes(text, read_bytes)[0]
    assert first > 190 and '"' not in "".join(text.splitlines(True)[:first])
    check_against_reference(text, read_bytes)


def quote_all(line: str) -> str:
    """``line`` with each of its comma-separated cells in quotes."""
    body = line.rstrip("\r\n")
    return ",".join(f'"{cell}"' for cell in body.split(",")) + line[len(body):]


# odd quoted cells, and whole-cell quoted ones
QUOTED_CELLS = ['"a""b"', '"a"b', 'a"b"', '"1,5"', '"two\nlines"', '"', '"open',
                '""', '" "', '"n/a"', '" 900 "', '"-0"', '"x"']


@pytest.mark.parametrize("last_end", ["\n", ""])
@pytest.mark.parametrize("cell", QUOTED_CELLS)
def test_quoted_cells_match_reference(cell, last_end):
    """Every line quoted, cell by cell, with one odd cell as a value, as a
    note, at a line's start and on the last line; every line holds a quote,
    so csv.reader reads them all and no line is read plain."""
    odd = {i: quote_all(good_line(i)) for i in range(400)}
    odd[21] = quote_all(good_line(21)).replace('"900"', cell)
    odd[40] = quote_all(good_line(40)).rsplit(",", 1)[0] + f",{cell}\n"
    odd[63] = cell + quote_all(good_line(63))[len(quote_all(stamp(63 % 31, "Z"))):]
    odd[399] = quote_all(good_line(399)).replace('"0"', cell)
    text = document(odd, n=400, last_end=last_end)
    masks, read_plain = [], ingest._plain_rows

    def plain_rows(*args):
        out = read_plain(*args)
        masks.append(out[0])
        return out

    with mock.patch.object(ingest, "_plain_rows", plain_rows):
        check_against_reference(text, 1024)
    assert masks and not any(mask.any() for mask in masks)


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
        check_against_reference(text)


@pytest.mark.parametrize("read_bytes", [7, 64, ingest.READ_BYTES])
@pytest.mark.parametrize("header", [HEADER, "time,nd,w,pv"])
def test_cr_only_and_mixed_line_ends(read_bytes, header):
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
    check_against_reference(document(mixed, n=500, header=header), read_bytes)
    check_against_reference(document({5: "\r", 6: " , \r"}, end="\r", header=header), read_bytes)


BLANK_LINES = ["\n", " \n", "\t\n", ",,,,\n", " , ,, ,\n", ",\n", "\x1c\n", "\u3000,\n"]


@pytest.mark.parametrize("blank", BLANK_LINES)
@pytest.mark.parametrize("last_end", ["\n", ""])
def test_blank_lines_at_chunk_edges_and_end_of_file(blank, last_end):
    """Blank, whitespace-only and comma-only lines at the edges of chunks of a
    few lines, and as the file's last line, with and without a line end."""
    odd = {i: blank for i in (0, 3, 4, 7, 12, 13, 14, 15, 197, 199)}
    check_against_reference(document(odd, last_end=last_end), 64)


@pytest.mark.parametrize("read_bytes", [7, 64, ingest.READ_BYTES])
@pytest.mark.parametrize("last_end", ["\n", ""])
def test_lines_starting_with_a_control_or_non_ascii_byte(read_bytes, last_end):
    """Lines whose first byte is a control or non-ASCII byte, blank or not."""
    odd = {
        3: "\x01" + good_line(3),            # its timestamp is unparseable
        5: "\u00e9" + good_line(5),
        7: "\u3000" + good_line(7),          # whitespace that strip() takes off the stamp
        9: "\x0c" + good_line(9),
        11: "\u00a0,,,,\n", 12: "\x1f,,,,\n",  # blank
        13: "\x7f,48000,900,0,\n",
    }
    check_against_reference(document(odd, n=700, last_end=last_end), read_bytes)
    check_against_reference(document({699: "\u3000" + good_line(699)}, n=700, last_end=last_end),
                            read_bytes)


@pytest.mark.parametrize("read_bytes", [64, 512, ingest.READ_BYTES])
def test_rows_shorter_and_longer_than_the_header(read_bytes):
    full = good_line(9).rstrip("\n")
    odd = {
        3: full.rsplit(",", 1)[0] + "\n",      # no note: the mapped columns are all there
        4: ",".join(full.split(",")[:2]) + "\n",  # too few fields
        5: full.split(",")[0] + "\n",          # one field
        6: full + ",x,y,z\n",                  # longer than the header
        7: full + ",,,,,,\n",
        8: ",,,,,,,,\n",                       # comma-only, longer than the header: a row error
    }
    check_against_reference(document(odd, n=700), read_bytes)


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
    # a quoted field open across a read boundary, closed on its line, and
    # one left open at its line's end
    "quoted": (with_errors({**{i: good_line(i, note='"open,note"') for i in range(1, 300, 7)},
                            100: good_line(100, note='"open,note')}),
               lambda data, at: data.rfind(b'"', 0, at) > data.rfind(b"\n", 0, at)),
}


@pytest.mark.parametrize("read_bytes", READ_SIZES)
@pytest.mark.parametrize("edge", READ_EDGES)
def test_read_boundary_edges(edge, read_bytes):
    """Records, row errors and line numbers stay the reference's, wherever
    a file read ends."""
    text, cut = READ_EDGES[edge]
    if read_bytes < 64:
        assert cut_at_a_read(text, read_bytes, cut)
    check_against_reference(text, read_bytes)


def expected_csv_error(path):
    """The IngestError text of the first csv.Error of csv.reader reading
    each line of the file alone."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for line, text in enumerate(fh, start=1):
            try:
                read_alone(text)
            except csv.Error as exc:
                return f"{path} line {line}: {exc}"
    return None


@pytest.mark.parametrize("read_bytes", [1024, ingest.READ_BYTES])
def test_field_over_the_csv_limit_same_error_and_line(tmp_path, read_bytes):
    path = tmp_path / "long.csv"
    path.write_text(document({5: good_line(5, note="x" * 140_000)}), encoding="utf-8")
    expected = expected_csv_error(path)
    assert expected == f"{path} line 7: field larger than field limit (131072)"
    with mock.patch.object(ingest, "READ_BYTES", read_bytes):
        with pytest.raises(IngestError) as raised:
            parse_csv(path, COLUMNS)
    assert str(raised.value) == expected


@pytest.mark.parametrize("read_bytes", [64, ingest.READ_BYTES])
@pytest.mark.parametrize("odd", [
    {5: good_line(5, note="x" * 60)},                       # one field over the limit
    {5: good_line(5, note="x" * 30 + ",y" + "y" * 30)},     # a long line of short fields
    {5: good_line(5, note="x" * 60), 9: good_line(9, note='"q"')},
    {9: good_line(9, note='"q\n' + "x" * 60 + '"')},         # a quoted field over the limit
])
def test_lines_over_a_lowered_csv_limit(tmp_path, read_bytes, odd):
    """Lines longer than the field limit go through the csv module: a field
    over it is the same fatal error, on the same line; short fields pass."""
    path = tmp_path / "long.csv"
    path.write_text(document(odd), encoding="utf-8")
    limit = csv.field_size_limit(50)
    try:
        expected = expected_csv_error(path)
        if expected is None:
            check_against_reference(document(odd), read_bytes)
        else:
            with mock.patch.object(ingest, "READ_BYTES", read_bytes):
                with pytest.raises(IngestError) as raised:
                    parse_csv(path, COLUMNS)
            assert str(raised.value) == expected
    finally:
        csv.field_size_limit(limit)


def check_against_reference(text, read_bytes=ingest.READ_BYTES):
    """Same row errors, records and GridSeries (or error) as the reference;
    returns the row errors as (line, reason) pairs."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "export.csv"
        path.write_text(text, encoding="utf-8", newline="")
        expected_records, expected_errors, n_rows = reference_parse(path, COLUMNS)
        errors = []
        with mock.patch.object(ingest, "READ_BYTES", read_bytes):
            if len(expected_errors) > 0.01 * n_rows:
                with pytest.raises(IngestError, match="malformed"):
                    parse_csv(path, COLUMNS, errors)
                records = None
            else:
                records = parse_csv(path, COLUMNS, errors)
    assert [(e.line, e.reason) for e in errors] == expected_errors
    if records is None:
        return expected_errors
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
    return expected_errors


def test_synthetic_year_matches_reference(synth_csv):
    expected_records, expected_errors, _ = reference_parse(synth_csv, {})
    records = parse_csv(synth_csv)
    assert not expected_errors
    assert len(records) == len(expected_records)
    assert_same_series(
        canonicalize(records, source="year"), reference_canonicalize(expected_records, "year")
    )


# solar cells float() reads and orjson rejects
REJECTED = ["00", "01", "+1", ".5", "5.", "+0", "1.e3", "+.5", "000"]


def with_solar(line, text):
    """A line of the synthetic year with ``text`` as its solar cell."""
    return line.rsplit(",", 1)[0] + f",{text}\n"


def test_only_the_lines_of_rejected_cells_reach_csv_reader(synth_csv, tmp_path):
    """One cell that breaks the number grammar, every 1,000 lines, sends its
    line alone off the byte path: csv.reader sees the header and exactly
    those lines."""
    lines = synth_csv.read_text().splitlines(keepends=True)
    odd = [*REJECTED, "-01"]  # the last is a row error: below 0
    bad = {i: with_solar(lines[i], odd[k % len(odd)])
           for k, i in enumerate(range(7, len(lines), 1000))}
    path = tmp_path / "rejected.csv"
    path.write_text("".join(bad.get(i, line) for i, line in enumerate(lines)))
    seen, line_row, errors = [], ingest._line_row, []
    with mock.patch.object(ingest, "_line_row", lambda text: seen.append(text) or line_row(text)):
        records = parse_csv(path, {}, errors)
    assert seen == [lines[0], *bad.values()]
    assert [(e.line, e.reason) for e in errors] == [
        (i + 1, "wind and solar must be >= 0") for i, text in bad.items() if text.endswith("-01\n")]
    assert len(records) == len(lines) - 1 - len(errors)
    solar = dict(zip(records.timestamp_us.tolist(), records.solar_mw.tolist()))
    for text in bad.values():
        cells = text.rstrip("\n").split(",")
        if cells[-1] in REJECTED:
            assert solar[(_parse_timestamp(cells[0]) - EPOCH) // ONE_US] == float(cells[-1])


def test_rejected_cell_on_every_line_matches_reference(synth_csv):
    lines = synth_csv.read_text().splitlines(keepends=True)
    check_against_reference(",".join(COLUMNS.values()) + "\n" + "".join(
        with_solar(line, REJECTED[i % len(REJECTED)]) for i, line in enumerate(lines[1:])))


@pytest.mark.parametrize("read_bytes", [4096, ingest.READ_BYTES])
def test_runs_of_rejected_cells_match_reference(read_bytes):
    """Rejected cells alone, in pairs and runs, on every other line and on
    the first and last lines, in chunks of about 120 lines and in one."""
    at = [0, 1, 50, 51, 200, 201, 202, 203, 400, *range(600, 700, 2), *range(900, 960), 2998, 2999]
    odd = {i: good_line(i).replace(",0,", f",{REJECTED[i % len(REJECTED)]},") for i in at}
    check_against_reference(document(odd, n=3000), read_bytes)


def test_zeros_on_every_third_line_cost_two_orjson_calls_a_chunk():
    """A "00" cell on every third line: each chunk makes at most two orjson
    calls, and csv.reader sees the header and the "00" lines only."""
    odd = {i: good_line(i).replace(",0,", ",00,") for i in range(0, 3000, 3)}
    text = document(odd, n=3000)
    lines = text.splitlines(keepends=True)
    seen, line_row, loads = [], ingest._line_row, mock.Mock(wraps=orjson.loads)
    with mock.patch.object(ingest, "_line_row", lambda text: seen.append(text) or line_row(text)), \
            mock.patch.object(orjson, "loads", loads):
        check_against_reference(text, 4096)
    assert seen == [lines[0], *(lines[1 + i] for i in odd)]
    assert 0 < loads.call_count <= 2 * len(chunk_sizes(text, 4096))


@pytest.mark.parametrize("cell", ["1e400", "-1e400", "1" * 400, "1.7976931348623159e308"])
def test_out_of_range_number_sends_only_its_line_to_csv_reader(cell):
    """A number float() reads as +-inf, which orjson rejects, sends only its
    own line to _odd_row, at two orjson calls for its chunk; its line is a
    row error."""
    text = document({150: good_line(150).replace(",0,", f",{cell},")}, n=300)
    lines = text.splitlines(keepends=True)
    seen, odd_row, loads = [], ingest._odd_row, mock.Mock(wraps=orjson.loads)
    with mock.patch.object(ingest, "_odd_row", lambda text, *a: seen.append(text) or odd_row(text, *a)), \
            mock.patch.object(orjson, "loads", loads):
        errors = check_against_reference(text, 640)
    assert seen == [lines[151]]
    assert loads.call_count == len(chunk_sizes(text, 640)) + 1
    assert errors == [(152, "non-finite value")]


def test_lines_longer_than_a_read():
    """A header of 2,000 long column names, and a row of 70,000 short cells,
    each longer than one file read."""
    header = HEADER + "".join(f",extra{k:04}" + "x" * 130 for k in range(2_000))
    assert len(header) > ingest.READ_BYTES
    long_row = good_line(7, note="x").rstrip("\n") + ",y1234" * 70_000 + "\n"
    assert len(long_row) > ingest.READ_BYTES
    text = document({7: long_row, 8: good_line(8, note='"a,b"')}, n=300, header=header)
    errors = check_against_reference(text)
    assert not errors


def test_stray_quote_pair_costs_only_its_two_lines(synth_csv, tmp_path):
    """A quote opened in line 1000 and one at the end of line 1006 do not
    join the lines between them into one record: those two lines are the
    only row errors, and every other line is read."""
    lines = synth_csv.read_text().splitlines(keepends=True)
    lines[999] = lines[999].replace(",", ',"', 1)  # opens a quoted demand cell
    lines[1005] = lines[1005].replace("\n", '"\n')
    path = tmp_path / "stray.csv"
    path.write_text("".join(lines))
    errors = []
    records = parse_csv(path, {}, errors)
    assert [e.line for e in errors] == [1000, 1006] and errors[0].reason == UNCLOSED
    assert errors[1].reason.startswith("unparseable field: could not convert string to float")
    assert len(records) == len(lines) - 3
    series = canonicalize(records, "stray")
    assert series.provenance[1:] == ("interpolated 2 missing samples across 2 gaps",)


ROWS = "".join(f"{stamp(i, 'Z')},48000,900,0\n" for i in range(3))


@pytest.mark.parametrize("text", [
    '"timestamp,demand,wind,solar\n' + ROWS, 'timestamp,demand,wind,"solar\r\n' + ROWS,
    'timestamp,demand,wind,solar,"note\r' + ROWS,
    '"timestamp,demand,wind,solar',  # the file's one line, with no line end
])
def test_header_with_an_unclosed_quote_is_fatal(text, tmp_path, capsys):
    path = tmp_path / "export.csv"
    path.write_text(text, newline="")
    assert cli.run(["ingest", "--check", "--input", str(path)]) == 2
    assert capsys.readouterr().err == f"input error: {path} line 1: {UNCLOSED}\n"
    assert outcome(reference_parse, path, {}) == f"{path} line 1: {UNCLOSED}"
