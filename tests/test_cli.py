import builtins
import contextlib
import csv
import dataclasses
import hashlib
import importlib.util
import io
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import windfleet
from windfleet import BevFleetSpec, ScalingSpec, ScenarioConstants, cli, report
from windfleet.bev import MAX_FLEET_FIGURE, MAX_FLEET_POWER_GW
from windfleet.cli import load_config_file, main, ConfigError
from windfleet.dispatch import MAX_POWER_GWE
from windfleet.export import sample_times, write_csv
from windfleet.scaling import MAX_CAPACITY_GWC, normalize
from windfleet.synth import write_series_csv
from _helpers import make_year_series, traced_peak

ROOT = Path(__file__).resolve().parent.parent
REPRODUCE_ALL = ROOT / "scripts" / "reproduce_all.py"
MAKE_SYNTHETIC_YEAR = ROOT / "scripts" / "make_synthetic_year.py"
SRC = ROOT / "src"

# one bad setting each; "{file}" stands for an existing file
BAD_VALUES = [
    ["curves", "--capacities", "nan"],
    ["curves", "--capacities", "20,inf"],
    ["curves", "--headrooms", "-inf"],
    ["table2", "--fleet-sizes", "nan"],
    ["bev", "--fleet-size", "nan"],
    ["lull", "--solar-scale", "inf"],
    ["lull", "--weeks", "3.7"],
    ["lull", "--weeks", "nan"],
    ["curves", "--capacities", "20:80"],
    ["histogram", "--out-dir", "{file}"],
    ["bev", "--out-dir", "{file}/sub"],
    ["curves", "--capacities", "40,20"],
    ["lull", "--capacities", "0,20"],
    ["table2", "--solar-scale", "-1"],
    ["bev", "--fleet-size", "-5"],
    ["table2", "--fleet-sizes", "15,-5"],
    ["curves", "--fleet-sizes", "-1"],
    ["lull", "--weeks", "3,3"],
    ["bev", "--weeks", "3, 5, 3"],
    ["histogram", "--columns", "demand=wind"],
    ["lull", "--columns", "timestamp=ts,demand=ts"],
]

FLEET_READERS = ("curves", "bev", "lull", "table2")
# each spec-field config key: an out-of-range value, and the commands that read it
SPEC_FIELD_BAD_VALUES = {
    "reference_capacity_gwc": ("-20", ("histogram",)),
    "target_capacity_factor": ("2", ("histogram", "curves", "lull", "table2")),
    "solar_scale": ("0", ("curves", "lull", "table2")),
    "fleet_size_millions": ("-1", ("bev", "lull")),
    "daily_energy_per_vehicle_kwh": ("0", FLEET_READERS),
    "battery_per_vehicle_kwh": ("0", ("bev", "table2")),
    "night_fraction": ("2", ("bev",)),
    "day_start_hour": ("22", ("bev",)),
    "day_end_hour": ("25", ("bev",)),
    "initial_soc_fraction": ("1.5", ("bev",)),
    "v2g_power_limit_gw": ("0", ("bev",)),
    "round_trip_efficiency": ("2", ("bev",)),
    "baseline_fleet_emissions_mtpa": ("0", ("table2",)),
    "baseline_fleet_size_millions": ("0", ("table2",)),
    "battery_unit_cost_eur_per_kwh": ("0", ("table2",)),
    "baseline_wind_gwe": ("-6", ("table2",)),
}
PATH_AND_SWEEP_KEYS = [
    "input", "out_dir", "columns", "base_generation_gwe",
    "capacities_gwc", "headrooms_gwe", "fleet_sizes_millions", "weeks",
]


def run(*argv):
    return main(list(argv))


def fresh_env(**extra):
    """A fresh interpreter's environment: PATH, ``extra``, and PYTHONDONTWRITEBYTECODE
    when this run has it, so a run that writes no bytecode cache leaves none in src/."""
    keep = {k: os.environ[k] for k in ("PYTHONDONTWRITEBYTECODE",) if k in os.environ}
    return {"PATH": "/usr/bin:/bin:/usr/local/bin", **keep, **extra}


def run_subprocess(*argv):
    """``python -m windfleet.cli`` in a fresh interpreter, with its output as text."""
    return subprocess.run(
        [sys.executable, "-m", "windfleet.cli", *argv],
        capture_output=True,
        text=True,
        env=fresh_env(PYTHONPATH=str(SRC)),
    )


def run_script(script, *argv, cwd):
    """One of scripts/ in a fresh interpreter, run from ``cwd``, with its output as text."""
    return subprocess.run(
        [sys.executable, str(script), *argv], capture_output=True, text=True, cwd=cwd,
        env=fresh_env(),
    )


def assert_one_line_config_error(result):
    assert result.returncode == 3
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error: ")


def bad_value_argv(argv, tmp_path):
    existing = tmp_path / "a_file"
    existing.write_text("")
    argv = [a.replace("{file}", str(existing)) for a in argv]
    if "--out-dir" not in argv:
        argv += ["--out-dir", str(tmp_path / "out")]
    return argv


class TestExitCodes:
    def test_missing_input_path_is_input_error(self, tmp_path):
        code = run("histogram", "--input", str(tmp_path / "absent.csv"))
        assert code == 2

    def test_no_input_at_all_is_config_error(self, tmp_path):
        code = run("histogram", "--out-dir", str(tmp_path))
        assert code == 3

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "ingest"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_empty_out_dir_is_config_error(self, command, given, tmp_path, monkeypatch, capsys):
        """Before the input is read: an absent input would exit 2."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out_dir =\n")
        argv = ["--out-dir", ""] if given == "flag" else ["--config", str(cfg)]
        assert run(command, "--input", str(tmp_path / "absent.csv"), *argv) == 3
        err = capsys.readouterr().err
        assert err == "configuration error: no output directory given (use --out-dir or the config file)\n"
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("command", [c for c in cli.COMMANDS if c != "ingest"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_nul_byte_in_out_dir_is_config_error(self, command, given, tmp_path, monkeypatch,
                                                 capsys):
        """Before the input is read (an absent input would exit 2), with
        nothing written; mkdir would raise ValueError, a simulation error."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"out_dir = o\x00x\n")
        argv = ["--out-dir", "o\x00x"] if given == "flag" else ["--config", str(cfg)]
        assert run(command, "--input", str(tmp_path / "absent.csv"), *argv) == 3
        err = capsys.readouterr().err
        assert err == "configuration error: output directory 'o\\x00x' holds a NUL byte\n"
        assert list(tmp_path.iterdir()) == [cfg]

    def test_seedless_rejected(self, synth_csv, tmp_path):
        code = run("histogram", "--input", str(synth_csv), "--seedless")
        assert code == 3

    @pytest.mark.parametrize("argv", [
        ["ingest", "--solar-scale", "nan"],
        ["histogram", "--base-gen", "abc"],
        ["bev", "--base-gen", "inf"],
        ["histogram", "--solar-scale", "1.5"],
        ["bev", "--solar-scale", "1.5"],
    ])
    def test_flag_the_command_never_reads_is_rejected(self, argv, synth_csv, tmp_path, capsys):
        code = run(*argv, "--input", str(synth_csv), "--out-dir", str(tmp_path / "out"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: unrecognized arguments: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_unknown_flag_is_config_error(self, synth_csv):
        code = run("histogram", "--input", str(synth_csv), "--frobnicate")
        assert code == 3

    def test_empty_headroom_list_is_config_error(self, synth_csv, tmp_path):
        code = run(
            "curves", "--input", str(synth_csv), "--out-dir", str(tmp_path),
            "--headrooms", "",
        )
        assert code == 3

    def test_unreachable_fleet_is_simulation_error(self, synth_csv, tmp_path):
        code = run(
            "table2", "--input", str(synth_csv), "--out-dir", str(tmp_path),
            "--fleet-sizes", "500",
        )
        assert code == 1

    def test_unknown_config_key_is_config_error(self, synth_csv, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code = run("histogram", "--input", str(synth_csv), "--config", str(cfg))
        assert code == 3

    @pytest.mark.parametrize(
        "body",
        [
            b"2017-01-16T00:00:00Z,48\xff00,900,0\n",
            b"2017-01-16T00:00:00Z,48000,900," + b"x" * 140_000 + b"\n",
        ],
        ids=["not-utf8", "field-over-csv-limit"],
    )
    def test_unreadable_input_is_one_line_input_error(self, body, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"timestamp,demand,wind,solar\n" + body)
        result = run_subprocess("ingest", "--input", str(path))
        assert result.returncode == 2
        assert result.stderr.startswith("input error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("argv", BAD_VALUES)
    def test_bad_value_is_one_line_config_error(self, argv, synth_csv, tmp_path, capsys):
        argv = bad_value_argv(argv, tmp_path)
        assert run(*argv, "--input", str(synth_csv)) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not list((tmp_path / "out").glob("*.csv"))

    @pytest.mark.parametrize("argv", BAD_VALUES)
    def test_bad_value_fails_before_input_is_read(self, argv, tmp_path, capsys):
        # a missing input would exit 2; settings are checked first
        argv = bad_value_argv(argv, tmp_path)
        assert run(*argv, "--input", str(tmp_path / "absent.csv")) == 3
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_spec_field_cases_cover_every_field(self):
        specs = (ScalingSpec, BevFleetSpec, ScenarioConstants)
        names = {f.name for spec in specs for f in dataclasses.fields(spec)}
        assert set(SPEC_FIELD_BAD_VALUES) == names
        for key, (_, commands) in SPEC_FIELD_BAD_VALUES.items():
            assert commands == tuple(c for c in cli.COMMANDS if key in cli.COMMANDS[c].keys), key

    @pytest.mark.parametrize("key,value,command", [
        (key, value, command)
        for key, (value, commands) in SPEC_FIELD_BAD_VALUES.items()
        for command in commands
    ])
    def test_bad_spec_field_in_config_fails_before_input_is_read(
        self, key, value, command, tmp_path, capsys
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        out = tmp_path / "out"
        code = run(
            command, "--config", str(cfg), "--input", str(tmp_path / "absent.csv"),
            "--out-dir", str(out),
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    @pytest.mark.parametrize("key,value,command", [
        (key, value, command)
        for key, (value, commands) in SPEC_FIELD_BAD_VALUES.items()
        for command in cli.COMMANDS if command not in commands
    ])
    def test_bad_spec_field_a_command_does_not_read_is_ignored(
        self, key, value, command, hashed_series, tmp_path, capsys
    ):
        _, block, _ = run_config(
            command, {**SMALL, key: value}, hashed_series, tmp_path / "out", capsys)
        assert block is None or not [line for line in block if line.startswith(f"{key} =")]

    def test_unwritable_result_file_is_one_line_config_error(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        (out / "fig1_histogram.csv").mkdir(parents=True)  # root ignores permission bits
        result = run_subprocess("histogram", "--input", str(synth_csv), "--out-dir", str(out))
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        errors = [l for l in result.stderr.splitlines() if "error" in l]
        assert len(errors) == 1 and errors[0].startswith("configuration error: ")
        assert str(out / "fig1_histogram.csv") in errors[0]


class TestRangeCap:
    """A start:stop:step range is sized from its count before any array is built;
    np.arange fails the test if it is reached with a range over the cap."""

    @pytest.mark.parametrize("text", ["1:1e9:1", "1:2:1e-300", "1:2:1e-320", "0:10000:1"])
    def test_over_the_cap_is_config_error(self, text, monkeypatch):
        monkeypatch.setattr(cli.np, "arange", pytest.fail)
        with pytest.raises(ConfigError, match="more than 10,000 values"):
            cli._parse_float_list(text, "capacities_gwc")

    def test_at_the_cap_is_accepted(self):
        values = cli._parse_float_list("1:10000:1", "capacities_gwc")
        assert len(values) == cli.MAX_RANGE_VALUES == 10_000
        assert values[-1] == 10_000

    @pytest.mark.parametrize("argv", [
        ["curves", "--capacities", "1:1e9:1"],
        ["bev", "--weeks", "1:1e9:1"],
        ["lull", "--capacities", "20:80:1e-300"],
    ])
    def test_cli_exits_3_with_one_line(self, argv, synth_csv, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.np, "arange", pytest.fail)
        assert run(*argv, "--input", str(synth_csv), "--out-dir", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "more than 10,000 values" in err


class TestIngestCommand:
    def test_check_passes_on_clean_year(self, synth_csv, capsys):
        assert run("ingest", "--check", "--input", str(synth_csv)) == 0
        out = capsys.readouterr().out
        assert "weeks usable: 52" in out

    def test_check_fails_on_truncated_file(self, tmp_path, synth_csv):
        short = tmp_path / "short.csv"
        with open(synth_csv) as src:
            head = [next(src) for _ in range(5000)]
        short.write_text("".join(head))
        assert run("ingest", "--check", "--input", str(short)) == 2


class TestHistogramCommand:
    def test_writes_histogram(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        assert run("histogram", "--input", str(synth_csv), "--out-dir", str(out)) == 0
        path = out / "fig1_histogram.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        total = sum(float(r["percent"]) for r in rows)
        assert total == pytest.approx(100.0, abs=1e-9)
        assert (out / "run_manifest_histogram.txt").exists()


class TestCurvesCommand:
    def test_writes_family_files(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            "curves", "--input", str(synth_csv), "--out-dir", str(out),
            "--capacities", "20,40,80", "--headrooms", "20,30",
            "--fleet-sizes", "0,35",
        )
        assert code == 0
        for name in ("fig5_curve.csv", "fig7_families.csv", "fig12_families.csv"):
            assert (out / name).exists()
        lines = (out / "fig7_families.csv").read_text().strip().splitlines()
        assert lines[0] == "capacity_gwc,mean_wind_gwe,family_label"
        assert len(lines) == 1 + 2 * 3
        fig12 = (out / "fig12_families.csv").read_text()
        assert "bev=0M" in fig12 and "bev=35M" in fig12

    def test_range_labels_do_not_drift(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            "curves", "--input", str(synth_csv), "--out-dir", str(out),
            "--capacities", "0.1:0.7:0.1", "--headrooms", "20", "--fleet-sizes", "",
        )
        assert code == 0
        with open(out / "fig5_curve.csv", newline="") as fh:
            labels = [row["capacity_gwc"] for row in csv.DictReader(fh)]
        assert labels == ["0.1", "0.2", "0.3", "0.4", "0.5", "0.6", "0.7"]


class TestBevCommand:
    def test_default_week_17(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run("bev", "--input", str(synth_csv), "--out-dir", str(out)) == 0
        assert (out / "fig9_schedule.csv").exists()
        text = capsys.readouterr().out
        assert "week 17" in text and "feasible" in text
        with open(out / "fig9_schedule.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2016
        assert "soc_gwh" in rows[0]
        soc = [float(r["soc_gwh"]) for r in rows]
        assert all(0.0 <= v <= 1050.0 for v in soc)


    def test_year_without_wind(self, tmp_path, capsys):
        """bev reads demand alone: a year whose metered wind is all zero still
        gets its schedule. No command that reads wind can normalize it: the
        input is at fault, so each exits 2 with one line and writes nothing."""
        series = dataclasses.replace(make_year_series(wind=0.0), input_sha256="0" * 64)
        out = tmp_path / "out"
        assert cli.run(["bev", "--input", "y.csv", "--out-dir", str(out)], series=series) == 0
        assert (out / "fig9_schedule.csv").exists()
        capsys.readouterr()
        for command in ("histogram", "curves", "table2", "lull"):
            argv = [command, "--input", "y.csv", "--out-dir", str(tmp_path / command)]
            assert cli.run(argv, series=series) == 2
            assert capsys.readouterr().err == (
                "input error: annual mean of metered wind is zero; cannot normalize\n")
            assert not (tmp_path / command).exists()


class TestColumnRemap:
    def test_renamed_columns_through_cli(self, synth_csv, tmp_path):
        renamed = tmp_path / "renamed.csv"
        with open(synth_csv) as src, open(renamed, "w") as dst:
            header = next(src)
            assert header.strip() == "timestamp,demand,wind,solar"
            dst.write("ts,load_mw,wind_mw,pv_mw\n")
            for line in src:
                dst.write(line)
        out = tmp_path / "out"
        code = run(
            "histogram", "--input", str(renamed), "--out-dir", str(out),
            "--columns", "timestamp=ts,demand=load_mw,wind=wind_mw,solar=pv_mw",
        )
        assert code == 0
        assert (out / "fig1_histogram.csv").exists()


class TestMultiWeekSuffixes:
    def test_bev_extra_weeks_get_suffixed_files(self, synth_csv, tmp_path):
        out = tmp_path / "out"
        code = run(
            "bev", "--input", str(synth_csv), "--out-dir", str(out),
            "--weeks", "17,18",
        )
        assert code == 0
        assert (out / "fig9_schedule.csv").exists()
        assert (out / "fig9_schedule_w18.csv").exists()
        header = (out / "fig9_schedule_w18.csv").read_text().splitlines()[0]
        assert "soc_gwh" in header.split(",")


class TestRealDataDiscovery:
    def test_env_var_points_at_dataset(self, synth_csv, monkeypatch):
        from conftest import real_data_path

        monkeypatch.setenv("WINDFLEET_DATA_2017", str(synth_csv))
        assert real_data_path() == synth_csv

    def test_absent_by_default(self, monkeypatch):
        from conftest import real_data_path

        monkeypatch.delenv("WINDFLEET_DATA_2017", raising=False)
        # no data/ directory in a clean checkout
        assert real_data_path() is None or real_data_path().exists()


class TestLullCommand:
    def test_writes_gt_trace_and_report(self, synth_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            "lull", "--input", str(synth_csv), "--out-dir", str(out),
            "--weeks", "43", "--capacities", "20,80",
        )
        assert code == 0
        assert (out / "fig15_gt.csv").exists()
        assert (out / "lull_report.csv").exists()
        text = capsys.readouterr().out
        assert "GT energy" in text and "mean GT x 168 h" in text

    def test_dispatches_each_capacity_once(self, synth_csv, tmp_path, monkeypatch):
        capacities = []
        dispatch_week = report.dispatch_week
        spy = lambda *a, **k: capacities.append(a[1]) or dispatch_week(*a, **k)
        for module in (cli, report):
            if hasattr(module, "dispatch_week"):
                monkeypatch.setattr(module, "dispatch_week", spy)
        code = run(
            "lull", "--input", str(synth_csv), "--out-dir", str(tmp_path),
            "--weeks", "43", "--capacities", "20,80",
        )
        assert code == 0
        assert capacities == [20.0, 80.0]


class TestTable2Command:
    def test_writes_table_and_respects_flags_over_config(self, synth_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"input = {synth_csv}\n"
            "fleet_sizes_millions = 15, 25\n"
            "capacities_gwc = 20:100:20\n"
        )
        out = tmp_path / "out"
        code = run(
            "table2", "--config", str(cfg), "--out-dir", str(out),
            "--fleet-sizes", "15",
        )
        assert code == 0
        with open(out / "table2.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1  # the flag overrode the config's two sizes
        assert float(rows[0]["fleet_size_millions"]) == 15.0
        assert float(rows[0]["storage_gwh"]) == 450.0


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, synth_csv, tmp_path):
        args = ["curves", "--input", str(synth_csv), "--capacities", "20,50,80",
                "--headrooms", "20,30", "--fleet-sizes", "35"]
        dirs = [tmp_path / name for name in ("a", "b")]
        for d in dirs:
            assert run(*args, "--out-dir", str(d)) == 0
        names = ["fig5_curve.csv", "fig7_families.csv", "fig12_families.csv"]
        for name in names:
            assert (dirs[1] / name).read_bytes() == (dirs[0] / name).read_bytes()
        strip = lambda p: [
            l for l in p.read_text().splitlines() if not l.startswith("created_utc")
        ]
        assert strip(dirs[0] / "run_manifest_curves.txt") == strip(dirs[1] / "run_manifest_curves.txt")


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# scenario\n"
            "base_generation_gwe = 13  # 2017 composite\n"
            "capacities_gwc = 20, 30, 40\n"
            "\n"
            "columns = timestamp=ts, demand=load\n"
        )
        values = load_config_file(cfg)
        assert values["base_generation_gwe"] == "13"
        assert values["capacities_gwc"] == "20, 30, 40"

    def test_accepts_exactly_the_known_keys(self, tmp_path):
        keys = [*SPEC_FIELD_BAD_VALUES, *PATH_AND_SWEEP_KEYS]
        assert len(keys) == 24
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = 1\n" for key in keys))
        assert sorted(load_config_file(cfg)) == sorted(keys)
        for key in ("config", "check", "command", "seedless", "label"):
            cfg.write_text(f"{key} = 1\n")
            with pytest.raises(ConfigError, match="unknown config key"):
                load_config_file(cfg)

    def test_example_config_documents_exactly_the_known_keys(self):
        path = ROOT / "config.example.cfg"
        values = load_config_file(path)
        commented = {
            m.group(1) for line in path.read_text().splitlines()
            if (m := re.match(r"#\s*(\w+)\s*=", line.strip()))
        }
        assert not set(values) & commented
        assert set(values) | commented == cli._KNOWN_CONFIG_KEYS
        assert cli._KNOWN_CONFIG_KEYS == {*SPEC_FIELD_BAD_VALUES, *PATH_AND_SWEEP_KEYS}
        assert values["weeks"] == "17"

    def test_repeated_key_rejected(self, synth_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("weeks = 3\n# stressed week\nweeks = 17\n")
        with pytest.raises(ConfigError, match=r"run.cfg':3: 'weeks' already set on line 1"):
            load_config_file(cfg)
        assert run("bev", "--input", str(synth_csv), "--config", str(cfg)) == 3
        assert capsys.readouterr().err.startswith("configuration error: ")

    def test_byte_order_mark_is_skipped(self, hashed_series, tmp_path):
        """A config file saved with a UTF-8 byte-order mark, as Notepad and
        spreadsheets save it, reads like the same file without one."""
        text = b"input = year.csv\nreference_capacity_gwc = 20\n"
        for name, data in (("plain", text), ("bom", b"\xef\xbb\xbf" + text)):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(data)
            argv = ["histogram", "--config", str(cfg), "--out-dir", str(tmp_path / name)]
            assert cli.run(argv, series=hashed_series) == 0
        plain = manifest_settings(tmp_path / "plain", "histogram")
        assert plain == manifest_settings(tmp_path / "bom", "histogram")
        assert plain["reference_capacity_gwc"] == "20.0"

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"out_dir = o\xff\n")
        assert run("histogram", "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot read config file: 'utf-8' codec ")
        assert err.count("\n") == 1
        with pytest.raises(ConfigError, match="byte 0xff"):
            load_config_file(cfg)

    def test_config_path_with_a_nul_byte_is_config_error(self, capsys):
        assert run("histogram", "--config", "run\x00.cfg") == 3
        assert capsys.readouterr().err == (
            "configuration error: cannot read config file: embedded null byte\n")

    def test_bad_line_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            load_config_file(cfg)

    def test_manifest_of_an_input_named_with_a_hash_reruns(self, synth_csv, tmp_path):
        # '#' starts a comment only at a line's start or after whitespace
        data = tmp_path / "run#1.csv"
        data.symlink_to(synth_csv)
        first, again = tmp_path / "a", tmp_path / "b"
        assert run("histogram", "--input", str(data), "--out-dir", str(first)) == 0
        block = [l for l in (first / "run_manifest_histogram.txt").read_text().splitlines()
                 if not l.startswith(RUN_LINES)]
        assert f"input = {data}" in block
        cfg = tmp_path / "manifest.cfg"
        cfg.write_text("\n".join(block) + "\n")
        assert run("histogram", "--config", str(cfg), "--out-dir", str(again)) == 0
        name = "fig1_histogram.csv"
        assert (again / name).read_bytes() == (first / name).read_bytes()


def test_module_entrypoint_subprocess(synth_csv, tmp_path):
    result = run_subprocess("ingest", "--check", "--input", str(synth_csv))
    assert result.returncode == 0
    assert "weeks usable: 52" in result.stdout


@pytest.mark.parametrize("command", ["ingest", "lull"])
def test_trailing_samples_logged_once_per_command(command, tmp_path, caplog):
    series = dataclasses.replace(make_year_series(n=105_120), input_sha256="0" * 64)
    argv = [command, "--input", "year.csv", "--out-dir", str(tmp_path)]
    with caplog.at_level(logging.INFO, logger="windfleet.ingest"):
        assert cli.run(argv, series=series) == 0
    trailing = [m for m in caplog.messages if "trailing" in m]
    assert trailing == ["discarding 288 trailing samples beyond week 52"]


class TestScripts:
    def test_make_synthetic_year_help_writes_nothing(self, tmp_path):
        result = run_script(MAKE_SYNTHETIC_YEAR, "--help", cwd=tmp_path)
        assert result.returncode == 0
        assert result.stdout.startswith("usage: ")
        assert list(tmp_path.iterdir()) == []

    def test_make_synthetic_year_unwritable_path_exits_3(self, tmp_path):
        result = run_script(MAKE_SYNTHETIC_YEAR, str(tmp_path / "absent" / "year.csv"), cwd=tmp_path)
        assert_one_line_config_error(result)

    def test_reproduce_all_out_dir_that_is_a_file_exits_3(self, tmp_path):
        (tmp_path / "out").write_text("")
        result = run_script(REPRODUCE_ALL, "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
        assert_one_line_config_error(result)
        assert str(tmp_path / "out") in result.stderr

    def test_reproduce_all_input_error_leaves_no_out_dir(self, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("timestamp,demand,wind,solar\n2017-01-16T00:00:00Z,1,0,0\n")
        result = run_script(REPRODUCE_ALL, "--input", str(data), "--out-dir", str(tmp_path / "out"),
                            cwd=tmp_path)
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "input error: mean demand is 0.001 GW, outside 1-5,000 GW: input values must be in MW"]
        assert not (tmp_path / "out").exists()

    def test_reproduce_all_failing_step_is_one_stderr_line(self, synth_csv, tmp_path):
        """A step that fails says why in its one line, and the chain adds none:
        its header on stdout names the step."""
        (tmp_path / "out" / "fig1_histogram.csv").mkdir(parents=True)
        result = run_script(REPRODUCE_ALL, "--input", str(synth_csv),
                            "--out-dir", str(tmp_path / "out"), cwd=tmp_path)
        assert_one_line_config_error(result)
        assert "Is a directory" in result.stderr
        assert result.stdout.rstrip().splitlines()[-1].startswith("=== windfleet histogram ")

    def test_reproduce_all_input_and_out_dir_that_is_a_file_exits_3(self, tmp_path):
        data = tmp_path / "short.csv"
        data.write_text("timestamp,demand,wind,solar\n2017-01-16T00:00:00Z,48000,900,0\n")
        (tmp_path / "out").write_text("")
        result = run_script(REPRODUCE_ALL, "--input", str(data), "--out-dir", str(tmp_path / "out"),
                            cwd=tmp_path)
        assert_one_line_config_error(result)
        assert str(tmp_path / "out") in result.stderr


class TestReproduceAll:
    def test_parses_once_and_matches_separate_commands(self, synth_csv, tmp_path, monkeypatch):
        spec = importlib.util.spec_from_file_location("reproduce_all", REPRODUCE_ALL)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        parsed = []
        parse_csv = cli.parse_csv
        monkeypatch.setattr(cli, "parse_csv", lambda *a, **k: parsed.append(a) or parse_csv(*a, **k))

        together, separate = tmp_path / "together", tmp_path / "separate"
        monkeypatch.setattr(
            sys, "argv", ["reproduce_all.py", "--input", str(synth_csv), "--out-dir", str(together)]
        )
        assert script.main() == 0
        assert len(parsed) == 1
        steps = script.steps(synth_csv, separate)
        for step in steps:
            assert main(step) == 0
        assert len(parsed) == 1 + len(steps)

        names = sorted(p.name for p in together.glob("*.csv"))
        assert len(names) == 8
        assert names == sorted(p.name for p in separate.glob("*.csv"))
        for name in names:
            assert (together / name).read_bytes() == (separate / name).read_bytes(), name

        digest = hashlib.sha256(synth_csv.read_bytes()).hexdigest()
        for out in (together, separate):
            manifests = sorted(out.glob("run_manifest_*.txt"))
            assert len(manifests) == 5
            for path in manifests:
                assert f"input_sha256 = {digest}\n" in path.read_text(), path.name
        for path in together.glob("run_manifest_*.txt"):
            strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("created_utc")]
            assert strip(path) == strip(separate / path.name)

    def test_opens_the_input_once(self, synth_csv, tmp_path, monkeypatch):
        """One read of the input gives the series and the digest every
        manifest records."""
        spec = importlib.util.spec_from_file_location("reproduce_all", REPRODUCE_ALL)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        monkeypatch.setattr(
            sys, "argv", ["reproduce_all.py", "--input", str(synth_csv), "--out-dir", str(tmp_path)]
        )
        with opens_of(synth_csv) as opened:
            assert script.main() == 0
        assert opened == ["rb"]
        digest = hashlib.sha256(synth_csv.read_bytes()).hexdigest()
        for path in tmp_path.glob("run_manifest_*.txt"):
            assert f"input_sha256 = {digest}\n" in path.read_text(), path.name


@contextlib.contextmanager
def opens_of(path):
    """The mode of each open() of ``path``, by builtins.open or io.open, while
    the block runs."""
    opened, target, real = [], Path(path).resolve(), io.open

    def spy(file, mode="r", *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and Path(file).resolve() == target:
            opened.append(mode)
        return real(file, mode, *args, **kwargs)

    with mock.patch.object(builtins, "open", spy), mock.patch.object(io, "open", spy):
        yield opened


# tracemalloc peak of one load_series of the synthetic year, by the parse
# guard's method: 7.97 MB while the file was read a second time for its
# digest and canonicalize sorted the in-order stamps, 7.03 MB with the digest
# taken by the one parse and no sort; the margin is 8% so that the parent's
# peak fails it (Python 3.11, numpy 2.4)
LOAD_SERIES_PEAK_GUARD_BYTES = 7.6e6


def test_load_series_opens_its_input_once_within_its_memory_guard(synth_csv):
    with opens_of(synth_csv) as opened:
        series = cli.load_series(synth_csv)
    assert opened == ["rb"]
    assert series.input_sha256 == hashlib.sha256(synth_csv.read_bytes()).hexdigest()
    peak = traced_peak(lambda: cli.load_series(synth_csv))
    assert peak <= LOAD_SERIES_PEAK_GUARD_BYTES, f"load_series peak {peak / 1e6:.2f} MB"


def test_local_clock_export_is_an_input_error(synth_series, tmp_path):
    """The synthetic year as naive Europe/London wall time: the October hour
    is written twice, so the run exits 2 with one line and writes nothing."""
    times = sample_times(synth_series.start_time, synth_series.n_samples)
    summer = (times >= np.datetime64("2017-03-26T01:00")) & (times < np.datetime64("2017-10-29T01:00"))
    path = tmp_path / "london.csv"
    write_csv(path, ["timestamp", "demand", "wind", "solar"],
              [times + summer * np.timedelta64(1, "h"), *(1000.0 * getattr(synth_series, name)
               for name in ("demand", "wind_metered", "solar"))])
    path.write_bytes(path.read_bytes().replace(b"Z,", b","))
    result = run_subprocess("histogram", "--input", str(path), "--out-dir", str(tmp_path / "out"))
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        "input error: the hour from 2017-10-29T01:00:00+00:00 repeats with other values: "
        "the file looks like local clock time, not UTC"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_in_memory_series_without_digest_is_refused(command, synth_series, synth_csv, tmp_path,
                                                    capsys):
    """A series that does not carry the digest of the bytes it was parsed
    from is a configuration error before anything is made or written: no
    file is hashed in its place."""
    assert synth_series.input_sha256 is None
    out = tmp_path / "new" / "out"
    argv = [command, "--input", str(synth_csv), "--out-dir", str(out)]
    with opens_of(synth_csv) as opened:
        assert cli.run(argv, series=synth_series) == 3
    assert opened == []
    assert capsys.readouterr().err == (
        "configuration error: the series given carries no input_sha256: read it with load_series\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_missing_input_writes_nothing(command, tmp_path, capsys):
    out = tmp_path / "out"
    argv = [command, "--input", str(tmp_path / "absent.csv"), "--out-dir", str(out)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"input error: cannot open input file: [Errno 2] No such file or directory: "
                   f"{str(tmp_path / 'absent.csv')!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command, name", [("histogram", "year\0.csv"),
                                           ("histogram", "year\x01.csv"),
                                           ("ingest", "year\x01\n.csv")])
def test_input_path_with_control_bytes_is_one_printable_line(command, name, tmp_path, capsys):
    """parse_csv's open is the one check that the input exists: a NUL byte
    in the path is an input error too. A name with a line break is read
    only by ingest, which writes no manifest
    (TestManifest::test_refuses_an_input_that_would_not_read_back)."""
    out = tmp_path / "out"
    argv = [command, "--input", str(tmp_path / name), "--out-dir", str(out)]
    assert cli.run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: cannot open input file: ")
    assert err.endswith("\n") and err[:-1].isprintable()
    assert not out.exists()


@pytest.mark.parametrize("name", ["bad\n.csv", "bad\r\x01.csv"])
def test_existing_files_named_with_line_breaks_fail_in_one_line(name, tmp_path, capsys):
    """An input with a wrong header and a config file with an unknown key,
    each named with a line break: each message quotes the path, so it stays
    one printable stderr line. ingest reads the input, since a writing
    command refuses its name before it opens it (TestManifest)."""
    data = tmp_path / name
    data.write_text("time,demand,wind,solar\n2017-01-16T00:00:00Z,48000,900,0\n")
    cfg = tmp_path / name.replace(".csv", ".cfg")
    cfg.write_text("weeks = 3\nbogus = 1\n")
    out = tmp_path / "out"
    runs = [(["ingest", "--input", str(data)], 2,
             f"input error: {str(data)!r}: missing column(s) ['timestamp']; "
             "file has ['time', 'demand', 'wind', 'solar']\n"),
            (["bev", "--input", str(data), "--config", str(cfg)], 3,
             f"configuration error: {str(cfg)!r}:2: unknown config key 'bogus'\n")]
    for argv, code, message in runs:
        assert cli.run([*argv, "--out-dir", str(out)]) == code
        err = capsys.readouterr().err
        assert err == message and err[:-1].isprintable()
    assert not out.exists()


def test_repairs_of_an_input_named_with_a_line_break_log_one_line_each(tmp_path, caplog):
    """A repair's log line is its provenance note alone: the input is named
    by parse_csv's quoted messages, the manifest and ingest's input line."""
    path = tmp_path / "ye\nar.csv"
    path.write_text("timestamp,demand,wind,solar\n" + "".join(
        f"2017-01-16T00:{minute:02d}:00Z,48000,900,0\n" for minute in (0, 5, 5, 15)))
    with caplog.at_level(logging.INFO, logger="windfleet.ingest"):
        series = cli.load_series(path)
    notes = ["dropped 1 duplicate-timestamp rows (kept first)",
             "interpolated 1 missing samples across 1 gaps"]
    assert list(series.provenance) == caplog.messages == notes


def test_table2_column_that_overflows_is_one_line_and_writes_nothing(hashed_series, tmp_path,
                                                                       capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("baseline_fleet_emissions_mtpa = 1e308\n")
    out = tmp_path / "out"
    argv = ["table2", "--input", "year.csv", "--config", str(cfg), "--out-dir", str(out)]
    assert cli.run(argv, series=hashed_series) == 1
    assert capsys.readouterr().err == (
        "simulation error: the 15 M fleet's emissions reduction or battery cost overflows: "
        "the scenario constants are out of range\n")
    assert not out.exists()


@pytest.fixture(scope="module", params=[1e-3, 1e3], ids=["in-GW", "in-kW"])
def year_not_in_mw(request, synth_series, tmp_path_factory):
    """The synthetic year's CSV with every value times 1/1000 or 1000."""
    scale = request.param
    path = tmp_path_factory.mktemp("units") / "year.csv"
    write_series_csv(dataclasses.replace(
        synth_series, demand=synth_series.demand * scale,
        wind_metered=synth_series.wind_metered * scale, solar=synth_series.solar * scale), path)
    return path


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_input_not_in_mw_is_an_input_error(command, year_not_in_mw, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.run([command, "--input", str(year_not_in_mw), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(r"input error: mean demand is (0\.033|33000) GW, outside 1-5,000 GW: "
                        r"input values must be in MW\n", err)
    assert not out.exists()


@pytest.mark.parametrize("demand, code", [(0.999, 2), (1.0, 0), (5000.0, 0), (5000.5, 2)])
def test_mean_demand_bounds_of_an_in_memory_series(demand, code, synth_csv, tmp_path, capsys):
    series = dataclasses.replace(make_year_series(demand=demand, wind=4.0, solar=0.0),
                                 input_sha256="0" * 64)
    argv = ["ingest", "--input", str(synth_csv)]
    assert cli.run(argv, series=series) == code
    assert ("must be in MW" in capsys.readouterr().err) == bool(code)


# the flags each command takes; --help lists the same ones
COMMAND_FLAGS = {
    "ingest": [],
    "histogram": [],
    "curves": ["--solar-scale", "--base-gen", "--capacities", "--headrooms", "--fleet-sizes"],
    "bev": ["--weeks", "--fleet-size"],
    "lull": ["--solar-scale", "--base-gen", "--weeks", "--capacities", "--fleet-size"],
    "table2": ["--solar-scale", "--base-gen", "--capacities", "--fleet-sizes"],
}


def test_each_command_takes_exactly_its_flags():
    sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
    assert list(sub.choices) == list(COMMAND_FLAGS) == list(cli.COMMANDS)
    for name, flags in COMMAND_FLAGS.items():
        taken = [a.option_strings[0] for a in sub.choices[name]._actions]
        check = ["--check"] if name == "ingest" else []
        assert taken == ["-h", "--input", "--config", "--out-dir", "--columns", *flags, *check]


# small lists, so that each in-memory run takes milliseconds
SMALL = {
    "input": "year.csv",
    "capacities_gwc": "20, 80",
    "headrooms_gwe": "20",
    "fleet_sizes_millions": "15",
    "weeks": "3",
}
# another valid value for every config key but out_dir
OTHER = {
    "input": "other.csv",
    "columns": "timestamp=ts",
    "solar_scale": "1.5",
    "base_generation_gwe": "9",
    "capacities_gwc": "30, 90",
    "headrooms_gwe": "22",
    "fleet_sizes_millions": "10",
    "weeks": "5",
    "reference_capacity_gwc": "25",
    "target_capacity_factor": "0.35",
    "fleet_size_millions": "30",
    "daily_energy_per_vehicle_kwh": "12",
    "battery_per_vehicle_kwh": "40",
    "night_fraction": "0.3",
    "day_start_hour": "7",
    "day_end_hour": "20",
    "initial_soc_fraction": "0.7",
    "v2g_power_limit_gw": "50",
    "round_trip_efficiency": "0.9",
    "baseline_fleet_emissions_mtpa": "60",
    "baseline_fleet_size_millions": "30",
    "battery_unit_cost_eur_per_kwh": "300",
    "baseline_wind_gwe": "5",
}
WRITERS = ("histogram", "curves", "bev", "lull", "table2")
RUN_LINES = ("version = ", "command = ", "input_sha256 = ", "created_utc = ")
# a fleet small enough to export to the grid, so that a V2G limit can bind
EXPORTING = {**SMALL, "fleet_size_millions": "1"}
# where OTHER's value changes no result, a value of the key that does
CHANGING = {
    ("bev", "v2g_power_limit_gw"): "1",  # below the 1 M fleet's exports; 50 never binds
    ("table2", "capacities_gwc"): "5, 10",  # it only bounds the root: too small exits 1
}


def run_config(command, settings, series, out, capsys):
    """``command`` on ``series`` with ``settings`` as its config file; its
    result CSVs by name, its manifest's config block and its stdout."""
    out.mkdir(parents=True)
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    capsys.readouterr()
    assert cli.run([command, "--config", str(cfg), "--out-dir", str(out)], series=series) == 0
    manifest = out / f"run_manifest_{command}.txt"
    block = [l for l in manifest.read_text().splitlines()
             if not l.startswith(RUN_LINES)] if manifest.exists() else None
    results = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.suffix == ".csv"}
    return results, block, capsys.readouterr().out


def exit_and_cells(command, settings, series, out):
    """``command``'s exit code on ``series`` with ``settings`` as its config
    file, and the cells of each result CSV it wrote, by name."""
    out.mkdir(parents=True)
    cfg = out.parent / f"{out.name}.cfg"
    cfg.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    code = cli.run([command, "--config", str(cfg), "--out-dir", str(out)], series=series)
    cells = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as fh:
            cells[path.name] = list(csv.reader(fh))
    return code, cells


def same_cell(a, b):
    """Equal text, or numbers within 1e-9 relative (1e-9 absolute near zero)."""
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b
    return math.isclose(x, y, rel_tol=1e-9, abs_tol=1e-9)


def same_results(a, b):
    return a.keys() == b.keys() and all(
        [len(row) for row in a[name]] == [len(row) for row in b[name]]
        and all(same_cell(x, y) for ra, rb in zip(a[name], b[name]) for x, y in zip(ra, rb))
        for name in a
    )


# input names the manifest cannot hold: each str.splitlines boundary, " #"
# (a comment in config text), spaces that config text strips, and a file
# name byte that is not UTF-8, as sys.argv holds it
NOT_CONFIG_TEXT = [f"ye{cut}ar.csv" for cut in
                   ("\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
                   ] + ["run #1.csv", "run\t#1.csv", " year.csv", "year.csv ", "y\udcff.csv"]


class TestManifest:
    def test_other_values_cover_every_key_but_out_dir(self):
        assert set(OTHER) == cli._KNOWN_CONFIG_KEYS - {"out_dir"}

    @pytest.mark.parametrize("command", WRITERS)
    def test_round_trips_as_a_config_file(self, command, hashed_series, tmp_path, capsys):
        settings = {**OTHER, "capacities_gwc": "20:60:20", "headrooms_gwe": "22, 31",
                    "fleet_sizes_millions": "0, 12.5", "weeks": "5, 9", "columns": "wind=w"}
        del settings["v2g_power_limit_gw"]  # unset: written empty, read back as unset
        first = tmp_path / "a"
        results, block, stdout = run_config(command, settings, hashed_series, first, capsys)
        assert results
        keys = [line.split("=", 1)[0].strip() for line in block]
        assert sorted(keys[1:]) == keys[1:] and keys[0] == "input"
        assert set(keys) == set(cli.COMMANDS[command].keys) - {"out_dir"}
        assert "columns = timestamp=timestamp, demand=demand, wind=w, solar=solar" in block
        if "v2g_power_limit_gw" in keys:
            assert "v2g_power_limit_gw =" in block

        cfg = tmp_path / "manifest.cfg"
        cfg.write_text("\n".join(block) + "\n")
        out = tmp_path / "b"
        capsys.readouterr()
        argv = [command, "--config", str(cfg), "--out-dir", str(out)]
        assert cli.run(argv, series=hashed_series) == 0
        assert capsys.readouterr().out == stdout.replace(str(first), str(out))
        for name, data in results.items():
            assert (out / name).read_bytes() == data, name
        again = [l for l in (out / f"run_manifest_{command}.txt").read_text().splitlines()
                 if not l.startswith(RUN_LINES)]
        assert again == block

    @pytest.mark.parametrize("command", WRITERS)
    def test_every_key_read_is_recorded(self, command, hashed_series, tmp_path, capsys):
        _, base, _ = run_config(command, SMALL, hashed_series, tmp_path / "base", capsys)
        for key in cli.COMMANDS[command].keys:
            if key == "out_dir":
                continue
            _, block, _ = run_config(
                command, {**SMALL, key: OTHER[key]}, hashed_series, tmp_path / key, capsys
            )
            assert block != base, key

    @pytest.mark.parametrize("command", WRITERS)
    def test_every_key_read_changes_a_result(self, command, hashed_series, tmp_path):
        base_code, base = exit_and_cells(command, EXPORTING, hashed_series, tmp_path / "base")
        assert base_code == 0 and base
        for key in cli.COMMANDS[command].keys:
            if key in cli._PATH_KEYS:
                continue
            value = CHANGING.get((command, key), OTHER[key])
            code, cells = exit_and_cells(
                command, {**EXPORTING, key: value}, hashed_series, tmp_path / key)
            assert code != base_code or not same_results(cells, base), key

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_a_key_not_read_changes_no_result(self, command, hashed_series, tmp_path, capsys):
        base = run_config(command, SMALL, hashed_series, tmp_path / "base", capsys)
        unread = cli._KNOWN_CONFIG_KEYS - set(cli.COMMANDS[command].keys)
        assert unread
        for key in sorted(unread):
            results, block, stdout = run_config(
                command, {**SMALL, key: OTHER[key]}, hashed_series, tmp_path / key, capsys
            )
            assert results == base[0] and block == base[1], key
            if command == "ingest":  # its report is its stdout; it writes nothing
                assert stdout == base[2] and not list((tmp_path / key).iterdir())

    @pytest.mark.parametrize("command", WRITERS)
    def test_refuses_an_input_that_would_not_read_back(self, command, synth_csv, tmp_path,
                                                       monkeypatch, capsys):
        """An input named with a line break (each str.splitlines boundary),
        " #", a space at either end or a byte that is not UTF-8 would not
        read back from the manifest as a config file: exit 3 in one line,
        before the input is opened or a directory made."""
        monkeypatch.chdir(tmp_path)
        for n, name in enumerate(NOT_CONFIG_TEXT):
            Path(name).symlink_to(synth_csv)
            out = tmp_path / "new" / str(n)
            with opens_of(name) as opened:
                assert cli.run([command, "--input", name, "--out-dir", str(out)]) == 3
            assert opened == []
            assert capsys.readouterr().err == (
                f"configuration error: input {name!r} would not read back from the run manifest: "
                "a config value is UTF-8 text with no line break or ' #', and no spaces at "
                "either end\n")
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("name", ["de #mand", "de\nmand", "de\u2028mand"])
    def test_refuses_a_column_name_that_would_not_read_back(self, name, hashed_series, tmp_path,
                                                            capsys):
        out = tmp_path / "out"
        argv = ["histogram", "--input", "year.csv", "--columns", f"demand={name}",
                "--out-dir", str(out)]
        assert cli.run(argv, series=hashed_series) == 3
        text = f"timestamp=timestamp, demand={name}, wind=wind, solar=solar"
        assert capsys.readouterr().err.startswith(f"configuration error: columns {text!r} would ")
        assert not out.exists()


class TestBevFleetKeys:
    """curves and table2 build each family's fleet from the BevFleetSpec keys
    they read, and check those keys, BEV families or not."""

    def table2(self, series, out, capsys, **settings):
        settings = {"input": "year.csv", "fleet_sizes_millions": "15, 25",
                    "capacities_gwc": "20:160:20", **settings}
        run_config("table2", settings, series, out, capsys)
        with open(out / "table2.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_table2_battery_size_doubles_storage(self, hashed_series, tmp_path, capsys):
        base = self.table2(hashed_series, tmp_path / "base", capsys)
        bigger = self.table2(hashed_series, tmp_path / "60", capsys, battery_per_vehicle_kwh="60")
        for a, b in zip(base, bigger):
            assert float(b["storage_gwh"]) == 2 * float(a["storage_gwh"])
            assert float(b["battery_cost_eur_bn"]) == 2 * float(a["battery_cost_eur_bn"])

    def test_table2_daily_energy_matches_build_table2(self, hashed_series, tmp_path, capsys):
        base = self.table2(hashed_series, tmp_path / "base", capsys)
        rows = self.table2(hashed_series, tmp_path / "20", capsys,
                           daily_energy_per_vehicle_kwh="20")
        year = normalize(hashed_series, ScalingSpec(solar_scale=2.0))
        fleet = BevFleetSpec(fleet_size_millions=0.0, daily_energy_per_vehicle_kwh=20.0)
        capacities = tuple(float(c) for c in range(20, 161, 20))
        expected = report.build_table2(year, [15.0, 25.0], capacities_gwc=capacities, fleet=fleet)
        assert [float(r["required_wind_gwc"]) for r in rows] == [
            r.required_wind_gwc for r in expected]
        assert all(float(r["required_wind_gwc"]) > float(b["required_wind_gwc"])
                   for r, b in zip(rows, base))

    @pytest.mark.parametrize("command", ["curves", "table2"])
    def test_checked_without_a_bev_family_in_use(self, command, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("fleet_sizes_millions =\nheadrooms_gwe = 20\n"
                       "daily_energy_per_vehicle_kwh = 0\n")
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--input", str(tmp_path / "absent.csv"),
                "--out-dir", str(out)]
        assert run(*argv) == 3
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()


FLEET_SIZE_FLAG = {"curves": "--fleet-sizes", "bev": "--fleet-size", "lull": "--fleet-size",
                   "table2": "--fleet-sizes"}
FLEET_FIGURES = ("fleet_size_millions", "daily_energy_per_vehicle_kwh", "battery_per_vehicle_kwh")


def assert_every_result_finite(stdout, out):
    """No printed number is inf or NaN, and every number in the result CSVs is finite."""
    assert not re.search(r"\b(inf|nan)\b", stdout, re.IGNORECASE)
    results = list(out.glob("*.csv"))
    assert results
    for path in results:
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                for cell in row:
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, row)


class TestFleetBound:
    """Fleet size, per-vehicle kWh and the fleet's mean power are bounded, so
    no result holds inf or NaN: at the bound every CSV cell and printed number
    is finite, above it the run exits 3 with one line and writes nothing."""

    def fleet_run(self, command, series, tmp_path, capsys, **figures):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {value}\n" for key, value in figures.items()
                               if key != "fleet_size_millions"))
        out = tmp_path / "out"
        argv = [command, "--config", str(cfg), "--input", "year.csv", "--out-dir", str(out)]
        if "fleet_size_millions" in figures:
            argv += [FLEET_SIZE_FLAG[command], figures["fleet_size_millions"]]
        if command != "bev":
            argv += ["--capacities", "20,80"]
        capsys.readouterr()
        code = cli.run(argv, series=series)
        return code, capsys.readouterr(), out

    # fleet size or daily kWh at its bound, the other putting the fleet's
    # mean power at its bound
    @pytest.mark.parametrize("at_bound", FLEET_FIGURES[:2])
    @pytest.mark.parametrize("command", FLEET_READERS)
    def test_at_the_bound_every_result_is_finite(
        self, command, at_bound, hashed_series, tmp_path, capsys
    ):
        figures = dict.fromkeys(FLEET_FIGURES, repr(MAX_FLEET_FIGURE))
        [other] = set(FLEET_FIGURES[:2]) - {at_bound}
        figures[other] = repr(MAX_FLEET_POWER_GW * 24 / MAX_FLEET_FIGURE)
        code, output, out = self.fleet_run(command, hashed_series, tmp_path, capsys, **figures)
        if command == "table2":  # no wind fleet reaches the target
            assert code == 1
            assert output.err.startswith("simulation error: ") and output.err.count("\n") == 1
            assert not out.exists()
            return
        assert code == 0, output.err
        assert_every_result_finite(output.out, out)

    @pytest.mark.parametrize("command,key", [
        (command, key) for key in FLEET_FIGURES for command in FLEET_READERS
        # every reader takes a fleet size, as --fleet-size or --fleet-sizes
        if key == "fleet_size_millions" or command in SPEC_FIELD_BAD_VALUES[key][1]
    ])
    def test_just_above_the_bound_writes_nothing(self, command, key, tmp_path, capsys):
        above = repr(math.nextafter(MAX_FLEET_FIGURE, math.inf))
        code, output, out = self.fleet_run(
            command, None, tmp_path, capsys, **{key: above})
        assert code == 3
        assert output.err.startswith("configuration error: ") and output.err.count("\n") == 1
        assert "must be <= 1,000,000" in output.err
        assert not out.exists()

    @pytest.mark.parametrize("size", [
        math.nextafter(MAX_FLEET_POWER_GW * 24 / BevFleetSpec.daily_energy_per_vehicle_kwh,
                       math.inf),
        1e5,
    ])
    @pytest.mark.parametrize("command", FLEET_READERS)
    def test_above_the_power_bound_exits_3_before_the_input_is_read(
        self, command, size, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = [command, FLEET_SIZE_FLAG[command], repr(size),
                "--input", str(tmp_path / "absent.csv"), "--out-dir", str(out)]
        assert run(*argv) == 3  # a missing input would exit 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "must be <= 5,000 GW" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["bev", "--fleet-size", "1e307"],
        ["bev", "--fleet-size", "1e308"],
        ["lull", "--fleet-size", "1e306"],
        ["lull", "--fleet-size", "1e308"],
        ["table2", "--fleet-sizes", "15,1e308"],
        ["curves", "--fleet-sizes", "1e307"],
    ])
    def test_huge_fleet_exits_3_before_the_input_is_read(self, argv, synth_csv, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(*argv, "--input", str(synth_csv), "--out-dir", str(out)) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert not out.exists()


def capacity_argv(command, capacity, tmp_path):
    """``command`` with ``capacity`` GWc as its reference fleet (histogram)
    or as the largest of its capacities."""
    if command == "histogram":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"reference_capacity_gwc = {capacity!r}\n")
        return [command, "--config", str(cfg)]
    return [command, "--capacities", f"20,{capacity!r}"]


CAPACITY_READERS = ("histogram", "curves", "lull", "table2")


class TestCapacityBound:
    """Wind fleet capacities are bounded, as fleets are (TestFleetBound): at
    the bound every CSV cell and printed number is finite, above it the run
    exits 3 with one line before the input is read."""

    @pytest.mark.parametrize("command", CAPACITY_READERS)
    def test_at_the_bound_every_result_is_finite(self, command, hashed_series, tmp_path, capsys):
        out = tmp_path / "out"
        argv = [*capacity_argv(command, MAX_CAPACITY_GWC, tmp_path), "--input", "year.csv",
                "--out-dir", str(out)]
        capsys.readouterr()
        assert cli.run(argv, series=hashed_series) == 0
        assert_every_result_finite(capsys.readouterr().out, out)
        if command == "histogram":  # one bin per GW of the reference fleet
            bins = (out / "fig1_histogram.csv").read_text().count("\n") - 1
            assert bins <= MAX_CAPACITY_GWC

    @pytest.mark.parametrize("capacity", [math.nextafter(MAX_CAPACITY_GWC, math.inf), 1e300, 1e308])
    @pytest.mark.parametrize("command", CAPACITY_READERS)
    def test_above_the_bound_exits_3_before_the_input_is_read(
        self, command, capacity, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = [*capacity_argv(command, capacity, tmp_path),
                "--input", str(tmp_path / "absent.csv"), "--out-dir", str(out)]
        assert run(*argv) == 3  # a missing input would exit 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "must be <= 10,000 GWc" in err
        assert not out.exists()


# each command's power settings in GWe, by flag
POWER_FLAGS = [("curves", "--headrooms"), ("curves", "--base-gen"), ("lull", "--base-gen"),
               ("table2", "--base-gen")]


class TestPowerBound:
    """Base generation and headrooms are bounded, as wind fleets are
    (TestCapacityBound): at plus and minus the bound every CSV cell and
    printed number is finite, beyond it the run exits 3 with one line before
    the input is read."""

    # the runs that exit 1 at the bound, with one line and no result: base
    # generation at the bound leaves Table 2 no wind to deliver, and a
    # headroom at minus the bound puts its family's base generation, mean
    # demand minus the headroom, past the bound
    SIMULATION_ERRORS = {("table2", "--base-gen", 1): "target unreachable",
                         ("curves", "--headrooms", -1): "base_generation must be between"}

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("command,flag", POWER_FLAGS)
    def test_at_the_bound_every_result_is_finite(
        self, command, flag, sign, hashed_series, tmp_path, capsys
    ):
        out = tmp_path / "new" / "out"
        argv = [command, f"{flag}={sign * MAX_POWER_GWE!r}", "--capacities", "20,80",
                "--input", "year.csv", "--out-dir", str(out)]
        capsys.readouterr()
        code = cli.run(argv, series=hashed_series)
        output = capsys.readouterr()
        if (command, flag, sign) in self.SIMULATION_ERRORS:
            assert code == 1
            assert output.err.startswith("simulation error: ") and output.err.count("\n") == 1
            assert self.SIMULATION_ERRORS[command, flag, sign] in output.err
            assert list(tmp_path.iterdir()) == []  # the run removes the directories it made
            return
        assert code == 0, output.err
        assert_every_result_finite(output.out, out)

    @pytest.mark.parametrize("value", [math.nextafter(MAX_POWER_GWE, math.inf), 1e308])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("command,flag", POWER_FLAGS)
    def test_beyond_the_bound_exits_3_before_the_input_is_read(
        self, command, flag, sign, value, tmp_path, capsys
    ):
        out = tmp_path / "out"
        argv = [command, f"{flag}={sign * value!r}", "--input", str(tmp_path / "absent.csv"),
                "--out-dir", str(out)]
        assert run(*argv) == 3  # a missing input would exit 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and err.count("\n") == 1
        assert "must be between -10,000 and 10,000 GWe" in err
        assert not out.exists()

    def test_config_file_value_is_bounded_too(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("base_generation_gwe = -1e308\nheadrooms_gwe = 20, 30\n")
        out = tmp_path / "out"
        argv = ["curves", "--config", str(cfg), "--input", str(tmp_path / "absent.csv"),
                "--out-dir", str(out)]
        assert run(*argv) == 3
        assert capsys.readouterr().err == (
            "configuration error: base_generation_gwe must be between -10,000 and 10,000 GWe\n")
        assert not out.exists()


class TestFailedRunDirectories:
    """A run that fails after it made its output directory removes each
    directory it made that is still empty, and none that was there before;
    TestPowerBound's failing runs check the new directories."""

    @pytest.mark.parametrize("argv", [["table2", "--base-gen", "1e4"],
                                      ["curves", "--headrooms=-1e4"]])
    def test_a_directory_that_was_there_stays(self, argv, hashed_series, tmp_path, capsys):
        kept = tmp_path / "kept"
        kept.mkdir()
        for out in (kept, kept / "new"):
            code = cli.run([*argv, "--capacities", "20,80", "--input", "year.csv",
                            "--out-dir", str(out)], series=hashed_series)
            assert code == 1
            assert capsys.readouterr().err.startswith("simulation error: ")
        assert list(tmp_path.iterdir()) == [kept]
        assert list(kept.iterdir()) == []

    def test_a_failed_mkdir_leaves_no_parent_it_made(self, hashed_series, tmp_path, capsys):
        out = tmp_path / "new" / ("x" * 300)  # longer than a file name may be
        argv = ["curves", "--capacities", "20,80", "--input", "year.csv", "--out-dir", str(out)]
        assert cli.run(argv, series=hashed_series) == 3
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot create output directory ")
        assert list(tmp_path.iterdir()) == []


class TestRepeats:
    """A setting that names one thing twice is an error, not a silent choice."""

    def test_column_map_naming_one_column_twice_exits_3(self, tmp_path, capsys):
        argv = ["ingest", "--input", str(tmp_path / "absent.csv"), "--columns", "demand=wind"]
        assert run(*argv) == 3  # before the input is read: a missing input would exit 2
        err = capsys.readouterr().err
        assert err == ("configuration error: column mapping names file column 'wind' "
                       "more than once\n")

    @pytest.mark.parametrize("command", ["ingest", "bev"])
    def test_header_repeating_a_mapped_name_exits_2(self, command, synth_csv, tmp_path, capsys):
        lines = synth_csv.read_text().splitlines(keepends=True)
        path = tmp_path / "repeat.csv"
        path.write_text("timestamp,demand,wind,solar,wind\n" + "".join(
            line.rstrip("\n") + ",1\n" for line in lines[1:]))
        out = tmp_path / "out"
        argv = [command, "--input", str(path)]
        if command == "bev":
            argv += ["--out-dir", str(out)]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err == f"input error: {str(path)!r}: mapped column 'wind' repeats in the header\n"
        assert not out.exists()  # the output directory is made only once the input is read


def manifest_settings(out, command):
    lines = (out / f"run_manifest_{command}.txt").read_text().splitlines()
    pairs = (line.partition("=") for line in lines if not line.startswith(RUN_LINES))
    return {key.strip(): value.strip() for key, _, value in pairs}


class TestRunManifest:
    """Each run's manifest: its version, command, input and the digest the
    series carries, every setting the command read, sorted, in config
    syntax, and created_utc, the one line that varies between reruns."""

    ARGV = ["bev", "--input", "year.csv", "--weeks", "17", "--fleet-size", "20"]

    def test_fields_recorded(self, hashed_series, tmp_path):
        assert cli.run([*self.ARGV, "--out-dir", str(tmp_path)], series=hashed_series) == 0
        lines = (tmp_path / "run_manifest_bev.txt").read_text(encoding="utf-8").splitlines()
        assert lines[:4] == [f"version = {windfleet.__version__}", "command = bev",
                             "input = year.csv", f"input_sha256 = {'0' * 64}"]  # as carried
        settings = lines[4:-1]
        assert [line.partition(" =")[0] for line in settings] == sorted(
            set(cli.COMMANDS["bev"].keys) - {"input", "out_dir"})
        assert "weeks = 17" in settings and "fleet_size_millions = 20.0" in settings
        assert "v2g_power_limit_gw =" in settings  # an unset key is written empty
        assert re.fullmatch(r"created_utc = \d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", lines[-1])

    def test_only_created_utc_varies(self, hashed_series, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert cli.run([*self.ARGV, "--out-dir", str(out)], series=hashed_series) == 0
            texts.append((out / "run_manifest_bev.txt").read_text(encoding="utf-8"))
        stripped = [[l for l in text.splitlines() if not l.startswith("created_utc = ")]
                    for text in texts]
        assert stripped[0] == stripped[1]
        assert [len(text.splitlines()) - len(s) for text, s in zip(texts, stripped)] == [1, 1]


def test_one_parser_keeps_no_setting_between_runs(hashed_series, tmp_path):
    """The parser is built once; each run's manifest holds its own flags and
    the defaults, never a flag of the run before it."""
    assert cli._build_parser() is cli._build_parser()
    runs = [
        ("bev", ["--fleet-size", "20", "--weeks", "5"]),
        ("lull", ["--solar-scale", "1.5", "--capacities", "20, 40"]),
        ("bev", []),
    ]
    manifests = []
    for n, (command, flags) in enumerate(runs):
        out = tmp_path / str(n)
        argv = [command, "--input", "year.csv", "--out-dir", str(out), *flags]
        assert cli.run(argv, series=hashed_series) == 0
        manifests.append(manifest_settings(out, command))
    first, lull, bev = manifests
    assert (first["fleet_size_millions"], first["weeks"]) == ("20.0", "5")
    assert (lull["fleet_size_millions"], lull["weeks"], lull["solar_scale"]) == ("35.0", "3", "1.5")
    assert (bev["fleet_size_millions"], bev["weeks"]) == ("35.0", "17")
