import dataclasses
import os
from pathlib import Path

import pytest
from hypothesis import settings as hypothesis_settings

from windfleet.ingest import canonicalize, parse_csv
from windfleet.scaling import ScalingSpec, normalize
from windfleet.synth import synthetic_year, write_series_csv

REAL_DATA_ENV = "WINDFLEET_DATA_2017"

# the model is deterministic end to end; keep the test suite that way too
hypothesis_settings.register_profile("deterministic", derandomize=True)
hypothesis_settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def synth_series():
    return synthetic_year()


@pytest.fixture(scope="session")
def hashed_series(synth_series):
    """The synthetic year, carrying a digest, so no run reads or hashes a file."""
    return dataclasses.replace(synth_series, input_sha256="0" * 64)


@pytest.fixture(scope="session")
def synth_year(synth_series):
    return normalize(synth_series, ScalingSpec())


@pytest.fixture(scope="session")
def synth_csv(tmp_path_factory, synth_series):
    path = tmp_path_factory.mktemp("data") / "synthetic_year.csv"
    write_series_csv(synth_series, path)
    return path


def real_data_path():
    env = os.environ.get(REAL_DATA_ENV)
    if env and Path(env).exists():
        return Path(env)
    default = Path(__file__).resolve().parent.parent / "data" / "gridwatch_2017.csv"
    if default.exists():
        return default
    return None


@pytest.fixture(scope="session")
def real_year():
    """NormalizedYear from the user-supplied 2017 dataset, or None when absent."""
    path = real_data_path()
    if path is None:
        return None
    series = canonicalize(parse_csv(path))
    return normalize(series, ScalingSpec())
