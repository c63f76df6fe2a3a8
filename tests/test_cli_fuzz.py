"""A fuzz gate for the command line: each command of cli.COMMANDS, run in
process on the synthetic year, with odd values for every setting it reads.

Each setting is left to its default, given by its flag, or given in a config
file. Whatever the values, a run exits 0, 1, 2 or 3; a run that fails says
why in one printable stderr line, with no traceback; no CSV it writes holds
NaN or inf; and an input error, or a configuration error, writes no result CSV.
"""

import contextlib
import csv
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from windfleet import cli

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


@pytest.mark.parametrize("name", list(cli.COMMANDS))
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_any_settings_give_a_documented_exit(name, data, synth_series, synth_csv, fuzz_dir):
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
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv, series=synth_series)
        out, err = out.getvalue(), err.getvalue()

        assert code in (0, 1, 2, 3), (argv, code)
        assert "Traceback" not in out + err, argv
        if code:
            assert err.count("\n") == 1 and err.endswith("\n"), (argv, err)
            assert err[:-1].isprintable(), (argv, err)
        written = sorted(tmp.rglob("*.csv"))
        for path in written:
            assert not numbers_not_finite(path), (argv, path)
        if code in (2, 3):  # in a fresh directory, only the input or a setting fails so
            assert not written, (argv, code, err)
