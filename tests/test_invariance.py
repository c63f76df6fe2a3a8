"""Metamorphic invariances of the model, end to end from a CSV file.

A variant of the synthetic year that changes only the file's form (row
order, column order, line ends, a byte-order mark, quoting) must read to a
GridSeries whose arrays and start time are byte-equal to the plain file's:
every command is a function of the series and its settings, so no command
needs to run.

A variant that changes what the model reads in a way its results cancel
runs curves, table2, lull, bev and histogram in process:
- every timestamp shifted by whole days: the result CSVs are byte-identical
  but for their timestamp columns, which move by the same days;
- metered wind x lambda (normalize's k absorbs the scale) and another
  reference_capacity_gwc (every result but the histogram is in absolute
  GWc or GWe): every result cell is within 1e-12 relative of the plain
  file's, or equal where it is text. Relative means to the largest
  magnitude in the cell's column: a gas-turbine or curtailment output is a
  difference of larger numbers, so a small one can differ from the plain
  file's by more than 1e-12 of itself.
"""

import csv
from dataclasses import replace
from datetime import datetime, timedelta

import numpy as np
import pytest

from windfleet import cli
from windfleet.ingest import SAMPLES_PER_WEEK
from windfleet.synth import write_series_csv

COMMANDS = (["curves"], ["table2"], ["lull", "--weeks", "3,10"], ["bev", "--weeks", "17"],
            ["histogram"])
SCALE_RTOL = 1e-12
SHIFT = timedelta(days=37)


@pytest.fixture(scope="module")
def plain_lines(synth_csv):
    """The synthetic year's file as its header and its lines."""
    header, *lines = synth_csv.read_text().splitlines(keepends=True)
    return header, lines


@pytest.fixture(scope="module")
def plain_series(synth_csv):
    return cli.load_series(synth_csv)


@pytest.fixture(scope="module")
def plain_results(plain_series, synth_csv, tmp_path_factory):
    return results(plain_series, synth_csv, tmp_path_factory.mktemp("plain"))


def results(series, path, out, *flags):
    """The tables of every result CSV the commands write for ``series``: a
    table per block between blank lines, as its columns of cells by name."""
    for command, *args in COMMANDS:
        argv = [command, "--input", str(path), "--out-dir", str(out), *args, *flags]
        assert cli.run(argv, series=series) == 0
    tables = {}
    for csv_path in sorted(out.glob("*.csv")):
        for k, block in enumerate(csv_path.read_text().split("\n\n")):
            names, *rows = csv.reader(block.splitlines())
            tables[csv_path.name, k] = dict(zip(names, map(list, zip(*rows))))
    return tables


def reversed_rows(header, lines):
    return header + "".join(reversed(lines))


def shuffled_weeks(header, lines):
    weeks = [lines[i:i + SAMPLES_PER_WEEK] for i in range(0, len(lines), SAMPLES_PER_WEEK)]
    order = np.random.default_rng(20170116).permutation(len(weeks)).tolist()
    return header + "".join("".join(weeks[w]) for w in order)


def permuted_columns(header, lines):
    """Columns in the order wind, note, timestamp, solar, demand; "note" is
    mapped to nothing."""
    def line(text):
        stamp, demand, wind, solar = text.rstrip("\n").split(",")
        return f"{wind},x,{stamp},{solar},{demand}\n"
    return "wind,note,timestamp,solar,demand\n" + "".join(map(line, lines))


def crlf_and_bom(header, lines):
    return "\ufeff" + (header + "".join(lines)).replace("\n", "\r\n")


def quoted_timestamps(header, lines):
    """Every timestamp cell of every fourth week, the first among them,
    quoted, so that none of their lines is read straight from the file's
    bytes; quoting the whole year takes three times as long."""
    def line(i, text):
        return '"' + text.replace(",", '",', 1) if i // SAMPLES_PER_WEEK % 4 == 0 else text
    return header + "".join(map(line, range(len(lines)), lines))


@pytest.mark.parametrize("variant", [reversed_rows, shuffled_weeks, permuted_columns,
                                     crlf_and_bom, quoted_timestamps])
def test_file_form_reads_to_the_same_series(variant, plain_lines, plain_series, tmp_path):
    path = tmp_path / "variant.csv"
    path.write_text(variant(*plain_lines), encoding="utf-8", newline="")
    series = cli.load_series(path)
    assert series.start_time == plain_series.start_time
    for name in ("demand", "wind_metered", "solar"):
        assert getattr(series, name).tobytes() == getattr(plain_series, name).tobytes(), name


def assert_within_scale(got, expected, skip=()):
    """Every table of ``expected`` but those of files in ``skip``: text cells
    equal, number cells within SCALE_RTOL of their column's largest magnitude."""
    expected = {key: columns for key, columns in expected.items() if key[0] not in skip}
    assert {key for key in got if key[0] not in skip} == expected.keys()
    for key, columns in expected.items():
        assert got[key].keys() == columns.keys(), key
        for name, cells in columns.items():
            try:
                want = np.array(cells, float)
            except ValueError:
                assert got[key][name] == cells, (key, name)
                continue
            have = np.array(got[key][name], float)
            scale = np.abs(want).max()
            np.testing.assert_allclose(have, want, rtol=0, atol=SCALE_RTOL * scale,
                                       err_msg=f"{key} {name}")


@pytest.mark.parametrize("factor", [1e-3, 3.7, 1e3])
def test_metered_wind_scale_cancels(factor, plain_series, plain_results, tmp_path):
    path = tmp_path / "scaled.csv"
    wind = plain_series.wind_metered * factor
    write_series_csv(replace(plain_series, wind_metered=wind), path)
    got = results(cli.load_series(path), path, tmp_path / "out")
    assert_within_scale(got, plain_results)


def test_reference_capacity_cancels_but_in_the_histogram(plain_series, synth_csv, plain_results,
                                                         tmp_path):
    config = tmp_path / "reference.cfg"
    config.write_text("reference_capacity_gwc = 31.5\n")
    got = results(plain_series, synth_csv, tmp_path / "out", "--config", str(config))
    assert_within_scale(got, plain_results, skip={"fig1_histogram.csv"})


def test_whole_day_time_shift_moves_only_the_timestamps(plain_series, plain_results, tmp_path):
    path = tmp_path / "shifted.csv"
    write_series_csv(replace(plain_series, start_time=plain_series.start_time + SHIFT), path)
    got = results(cli.load_series(path), path, tmp_path / "out")
    assert got.keys() == plain_results.keys()

    def stamps(cells):
        return [datetime.fromisoformat(cell.replace("Z", "+00:00")) for cell in cells]

    for key, columns in plain_results.items():
        shifted, columns = dict(got[key]), dict(columns)
        if "timestamp" in columns:
            expected = [t + SHIFT for t in stamps(columns.pop("timestamp"))]
            assert stamps(shifted.pop("timestamp")) == expected, key
        assert shifted == columns, key
