"""A fuzz gate for the command line: each command of cli.COMMANDS, run in
process on the synthetic year with odd values for every setting it reads,
and on mutated copies of the synthetic year's file.

Each setting is left to its default, given by its flag, or given in a config
file. Whatever the values or the file, a run exits 0, 1, 2 or 3; a run that
fails says why in one printable stderr line, with no traceback; no CSV it
writes holds NaN or inf; and an input error, or a configuration error, writes
no result CSV. A mutated file that parses gives the records and row errors
of the row-by-row reference parser, and each warning logged is one printable
line, whatever the file is named.
"""

import contextlib
import csv
import io
import logging
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windfleet import cli
from windfleet.ingest import parse_csv
from test_cli import run_subprocess
from test_ingest_reference import reference_parse

# odd values of any setting: not numbers, not finite, extreme, empty,
# repeated or decreasing lists, non-ASCII text (digits that float() reads
# among it), and "\udcff", a byte that is not UTF-8 as sys.argv holds it
ODD = ["nan", "-NaN", "inf", "-inf", "-0", "1e308", "-1e308", "5e-324", "", " ", "0", "-1",
       "0.5", "1,1", "3,2,1", "1,,2", "é", "風速", "٣", "１e3", "\udcff"]
# start:stop:step ranges: too many values, values out of every bound, or malformed
RANGES = ["1:1e9:1", "0:1e308:1e-300", "1e300:1e308:1e305", "5:1:1", "1:52:0", "1:2",
          "nan:5:1", "1:inf:1"]
# valid values beyond each key's default, of a size that keeps a run that
# succeeds to milliseconds
VALID = {
    "capacities_gwc": ["20, 80", "10:100:30", "5, 10"],  # table2 exits 1 on the last
    "headrooms_gwe": ["20", "30, 20"],
    "fleet_sizes_millions": ["15", "0, 35"],
    "weeks": ["3", "52", "1:3:1", "3, 2"],
    "columns": ["timestamp=ts"],
    "fleet_size_millions": ["1"],
    "solar_scale": ["1.5"],
    "base_generation_gwe": ["-5", "10"],
}
# odd values that only some keys read as such
ODD_FOR = {
    "weeks": ["2, 2", "53", "1.5"],
    "columns": ["demand=wind", "bogus=x", "demand", "demand=é"],
}
MISSING_INPUTS = ["absent.csv", "abs\x01ent\n.csv", "é\0.csv"]
OUT_DIRS = ["out", "é/風 ,out"]
EXAMPLES = 80  # per command


@st.composite
def runs(draw, name):
    """``(settings, missing input or None, out dir)`` for one run of command
    ``name``. Up to two settings get odd values and the others valid ones or
    none; each given setting is ``(True, text)`` given by its flag, or
    ``(False, text)`` given in the config file."""
    cmd = cli.COMMANDS[name]
    defaults = {**cli._DEFAULTS, **cmd.defaults}
    keys = [key for key in cmd.keys if key not in ("input", "out_dir")]
    odd = draw(st.sets(st.sampled_from(keys), max_size=2))
    chosen = {}
    for key in keys:
        if key in odd:
            pool = ODD + RANGES + ODD_FOR.get(key, [])
        else:
            pool = [None, cli._config_text(defaults[key]), *VALID.get(key, [])]
        text = draw(st.sampled_from(pool))
        if text is not None:
            chosen[key] = (key in cli._FLAGS and draw(st.booleans()), text)
    missing = draw(st.sampled_from([None] * 6 + MISSING_INPUTS))
    return chosen, missing, draw(st.sampled_from(OUT_DIRS))


def numbers_not_finite(path: Path) -> list[str]:
    """The cells of CSV ``path`` that float() reads as NaN or +-inf."""
    with open(path, newline="", encoding="utf-8") as fh:
        cells = [cell for row in csv.reader(fh) for cell in row]
    bad = []
    for cell in cells:
        try:
            if not math.isfinite(float(cell)):
                bad.append(cell)
        except ValueError:  # a timestamp, a header or another text cell
            pass
    return bad


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_captured(argv, series=None):
    """``cli.run(argv, series=series)``, its stdout and its stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv, series=series)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(argv, code, out, err, out_dir):
    """The gate's checks of one run, whose results go to ``out_dir``."""
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in out + err, argv
    if code:
        assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
        assert err[:-1].isprintable(), (argv, err)
    written = sorted(out_dir.rglob("*.csv"))
    for path in written:
        assert not numbers_not_finite(path), (argv, path)
    if code in (2, 3):  # in a fresh directory, only the input or a setting fails so
        assert not written, (argv, code, err)


@pytest.mark.parametrize("name", list(cli.COMMANDS))
def test_any_settings_give_a_documented_exit(name, hashed_series, synth_csv, fuzz_dir):
    """A missing input is looked for and not found; every other run works on
    the series, which carries its digest, so a run gets past the input to
    the settings. Some runs of each command exit 0: refusals alone do not
    pass the gate."""
    codes = []

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(data=st.data())
    def one_run(data):
        chosen, missing, out_name = data.draw(runs(name))
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            tmp = Path(tmp)
            argv = [name, "--input", str(tmp / missing) if missing else str(synth_csv),
                    "--out-dir", str(tmp / out_name)]
            config = [f"{key} = {text}\n" for key, (by_flag, text) in chosen.items() if not by_flag]
            argv += [f"{cli._FLAGS[key]}={text}" for key, (by_flag, text) in chosen.items() if by_flag]
            if config:
                cfg = tmp / "run.cfg"
                cfg.write_bytes("".join(config).encode("utf-8", "surrogateescape"))
                argv += ["--config", str(cfg)]
            code, out, err = run_captured(argv, None if missing else hashed_series)
            assert_documented_exit(argv, code, out, err, tmp / out_name)
        codes.append(code)

    one_run()
    assert 0 in codes, f"no run of {name} exited 0: {sorted(set(codes))}"


# one case of the families above each, run as the console script runs: argv,
# with {csv} the synthetic year and {tmp} a fresh directory, the config
# file's text or None, and the exit
FRESH_INTERPRETER = {
    "unknown flag": (["histogram", "--input", "{csv}", "--bogus", "1", "--out-dir", "{tmp}/out"],
                     None, 3),
    "value not finite": (["curves", "--input", "{csv}", "--out-dir", "{tmp}/out"],
                         "solar_scale = nan\n", 3),
    "missing input named with control bytes": (
        ["ingest", "--input", "{tmp}/abs\x01ent\n.csv"], None, 2),
    "out_dir with a NUL byte": (["histogram", "--input", "{csv}"], "out_dir = o\0ut\n", 3),
}


@pytest.mark.parametrize("case", list(FRESH_INTERPRETER))
def test_fresh_interpreter_gives_the_documented_exit(case, synth_csv, tmp_path):
    """``python -m windfleet.cli`` exits as documented, with one printable
    stderr line and no traceback, and makes nothing."""
    argv, config, code = FRESH_INTERPRETER[case]
    argv = [a.format(csv=synth_csv, tmp=tmp_path) for a in argv]
    if config:
        (tmp_path / "run.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "run.cfg")]
    result = run_subprocess(*argv)
    assert result.returncode == code, result.stderr
    assert "Traceback" not in result.stdout + result.stderr
    assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")
    assert result.stderr[:-1].isprintable()
    assert sorted(p.name for p in tmp_path.iterdir()) == (["run.cfg"] if config else [])


# each command's settings for a mutated file, small enough for a run of milliseconds
ROW_ARGS = {
    "ingest": ["--check"],
    "histogram": [],
    "curves": ["--capacities", "20,80", "--headrooms", "20", "--fleet-sizes", "15"],
    "bev": ["--weeks", "3"],
    "lull": ["--capacities", "20,80"],
    "table2": ["--fleet-sizes", "15"],
}
# names of existing input and config files; each message must quote them
FILE_NAMES = ["year", "ye\x01ar\n", "\u00e9 \u98a8\t"]
CONFIGS = [None, None, None, "columns = timestamp=timestamp\n", "bogus = 1\n", "weeks\n"]
ROW_EXAMPLES = 18


def mutated_cells(draw, body: str) -> str:
    """``body``, a line without its end, cut short, with two cells swapped,
    a cell repeated or quoted, or a stray quote."""
    cells = body.split(",")
    k = draw(st.integers(0, len(cells) - 1))
    kind = draw(st.sampled_from(["cut", "swap", "repeat", "quote", "stray"]))
    if kind == "cut":
        return body[:draw(st.integers(0, max(len(body) - 1, 0)))]
    if kind == "swap":
        j = draw(st.integers(0, len(cells) - 1))
        cells[k], cells[j] = cells[j], cells[k]
    elif kind == "repeat":
        cells.insert(k, cells[k])
    elif kind == "quote":
        cells[k] = f'"{cells[k]}"'
    else:
        at = draw(st.integers(0, len(body)))
        return body[:at] + '"' + body[at:]
    return ",".join(cells)


@st.composite
def mutated_years(draw, header: str, bodies: list[str]):
    """``(text, header, end, last, lines)``: the synthetic year's file, its
    columns perhaps in another order, with up to four lines mutated, dropped
    or repeated, and perhaps its last line cut short, other line ends, a
    byte-order mark or a mapped name repeated in the header. ``end`` ends
    each line but the last, which ``last`` ends; ``lines`` holds, for each
    line after the header, its text and the index of the clean line it
    still equals, or None."""
    order = draw(st.permutations(range(4)))
    names = header.split(",")
    header = ",".join(names[k] for k in order)
    if order != list(range(4)):  # the same columns in another order: the same records
        bodies = [",".join([cells[k] for k in order]) for cells in (b.split(",") for b in bodies)]
    lines = [(body, i) for i, body in enumerate(bodies)]
    for _ in range(draw(st.integers(0, 4))):
        n = len(lines)
        i = draw(st.one_of(st.integers(0, 2), st.integers(0, n - 1), st.integers(n - 3, n - 1)))
        kind = draw(st.sampled_from(["cells", "cells", "drop", "repeat"]))
        if kind == "cells":
            lines[i] = (mutated_cells(draw, lines[i][0]), None)
        elif kind == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    last = end
    if draw(st.sampled_from([False, False, True])):  # the file ends inside its last line
        body = lines[-1][0]
        lines[-1], last = (body[:draw(st.integers(0, len(body)))], None), ""
    if draw(st.sampled_from([False] * 5 + [True])):
        header += "," + draw(st.sampled_from(names))
    bom = draw(st.sampled_from(["", "", "\ufeff"]))
    text = bom + header + end + end.join(body for body, _ in lines) + last
    return text, header, end, last, lines


def expected_parse(header, end, last, lines, clean, tmp):
    """The records and row errors of reference_parse over the mutated file.

    The reference reads each line alone, under the header, so a line that
    still equals a clean one keeps the clean line's record, and each other
    line is read by the reference in a file of the header and that line."""
    src = np.array([-1 if i is None else i for _, i in lines])
    keep = src >= 0
    columns = [column[np.where(keep, src, 0)] for column in clean]
    errors = []
    for n in np.flatnonzero(~keep).tolist():
        alone = tmp / "line.csv"
        alone.write_text(header + end + lines[n][0] + (last if n == len(lines) - 1 else end),
                         encoding="utf-8", newline="")
        records, row_errors, _ = reference_parse(alone, {})
        errors += [(n + 2, reason) for _, reason in row_errors]
        if records:
            keep[n] = True
            for column, value in zip(columns, records[0]):
                column[n] = value
    return [column[keep] for column in columns], errors


@pytest.fixture(scope="module")
def clean_year(synth_csv):
    """The synthetic year's header, its lines without their ends, and its
    records as columns; test_ingest_reference checks them against the
    reference."""
    header, *bodies = synth_csv.read_text().splitlines()
    records = parse_csv(synth_csv)
    return header, bodies, [records.timestamp_us, records.demand_mw, records.wind_mw,
                            records.solar_mw]


class Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def test_mutated_rows_give_a_documented_exit(clean_year, fuzz_dir):
    """Some runs exit 0 on a file whose mutated lines the parse read, and
    some parses log row errors: the gate reaches the parse's odd paths."""
    header, bodies, clean = clean_year
    codes, row_errors = [], []

    @settings(max_examples=ROW_EXAMPLES, deadline=None)
    @given(data=st.data())
    def one_run(data):
        text, head, end, last, lines = data.draw(mutated_years(header, bodies))
        name = data.draw(st.sampled_from(list(ROW_ARGS)))
        file_name = data.draw(st.sampled_from(FILE_NAMES))
        config = data.draw(st.sampled_from(CONFIGS))
        with tempfile.TemporaryDirectory(dir=fuzz_dir) as tmp:
            tmp = Path(tmp)
            path = tmp / f"{file_name}.csv"
            path.write_text(text, encoding="utf-8", newline="")
            argv = [name, "--input", str(path), "--out-dir", str(tmp / "out"), *ROW_ARGS[name]]
            if config:
                (tmp / f"{file_name}.cfg").write_text(config)
                argv += ["--config", str(tmp / f"{file_name}.cfg")]
            parsed, warnings = [], Warnings()

            def parse(path, columns):
                errors = []
                parsed.append((parse_csv(path, columns, errors), errors))
                return parsed[-1][0]

            logger = logging.getLogger("windfleet")
            logger.addHandler(warnings)
            try:
                with mock.patch.object(cli, "parse_csv", parse):
                    code, out, err = run_captured(argv)
            finally:
                logger.removeHandler(warnings)
            assert_documented_exit(argv, code, out, err, tmp / "out")
            assert all(m.isprintable() for m in warnings.messages), warnings.messages
            if code == 0:
                assert parsed
            if parsed:  # the parse returned: the reference's records and row errors
                records, errors = parsed[0]
                columns, expected_errors = expected_parse(head, end, last, lines, clean, tmp)
                assert [(e.line, e.reason) for e in errors] == expected_errors
                assert np.array_equal(records.timestamp_us, columns[0])
                for column_name, column in zip(("demand_mw", "wind_mw", "solar_mw"), columns[1:]):
                    # bit for bit: -0.0 is not 0.0
                    assert getattr(records, column_name).tobytes() == column.tobytes(), column_name
                row_errors.append(len(errors))
        codes.append(code)

    one_run()
    assert 0 in codes and any(row_errors), (codes, row_errors)
