"""The synthetic year's bits at several lengths, and its memory and that of its writer."""

import hashlib

import pytest

from windfleet.ingest import SAMPLES_PER_WEEK, SAMPLES_PER_YEAR
from windfleet.synth import synthetic_year, write_series_csv
from _helpers import traced_peak

# sha256 of the bytes of the demand, wind and solar arrays. The golden CSV
# pins the default length as formatted text; these pin every bit, also at the
# year plus three days that perfbench's weekly workload builds and at one week.
DIGESTS = {
    SAMPLES_PER_YEAR: (
        "a851a054e4f7f8c229d5494cd4747afa5f3ed362a2dda9a014ea1d362bfe1603",
        "b0e79856adda89ed6605a639b730d3e940a3eb0deaa0368169c384c97a3168f9",
        "275b73247b08c0977ea1ca40bc64ba2f7539d3f0e62dbd70130c167e0c8bb6f7",
    ),
    SAMPLES_PER_YEAR + 864: (
        "b878d5f7ae0ed0a016445c6f151db12dd0ca2a53746388d0030beef2c208fd73",
        "fe3a23b1b8818de80662c87cdcdf008d855978216fe8a7ca9259481fe20096a3",
        "7ce8d37fae35368417de4fc583ed8d93ef13a71cc2856e74a68bfc030eb2d3eb",
    ),
    SAMPLES_PER_WEEK: (
        "87ae419919d7fdc773bb40887a8b0434b4a4ac5a48d73838fa2b5140ae5a80e0",
        "55e57e7d02cd6cc61703b0e6eaf17c3a5a2ae5769a4b2414e399472a7d87ef37",
        "51e55547421e0d7b422ba95ee4bf16d2fb6311683bdf12f9e64fe5773328a77c",
    ),
}

# tracemalloc peak of one synthetic_year, by the parse guard's method and
# margin: 11.01 MB when each closed-form term made its own temporaries, 5.35 MB
# with each series built in its own buffer through one scratch block of the
# hours (then days), the hour of day and a work row (Python 3.11, numpy 2.4)
SYNTHETIC_YEAR_PEAK_GUARD_BYTES = 6.42e6
# tracemalloc peak of one write_series_csv of the synthetic year, by the same
# method and margin: 6.69 MB while the whole year was scaled to MW before it
# was formatted, 3.60 MB scaled and formatted one export.CHUNK_ROWS block at a
# time (Python 3.11, numpy 2.4)
WRITE_SERIES_PEAK_GUARD_BYTES = 4.32e6


@pytest.mark.parametrize("n_samples", sorted(DIGESTS))
def test_bits_pinned(n_samples):
    series = synthetic_year(n_samples=n_samples)
    arrays = (series.demand, series.wind_metered, series.solar)
    assert tuple(hashlib.sha256(a.tobytes()).hexdigest() for a in arrays) == DIGESTS[n_samples]


def test_peak_memory_within_guard():
    peak = traced_peak(synthetic_year)
    assert peak <= SYNTHETIC_YEAR_PEAK_GUARD_BYTES, f"synthetic_year peak {peak / 1e6:.2f} MB"


def test_write_series_peak_memory_within_guard(synth_series, tmp_path):
    path = tmp_path / "year.csv"
    peak = traced_peak(lambda: write_series_csv(synth_series, path))
    assert peak <= WRITE_SERIES_PEAK_GUARD_BYTES, f"write_series_csv peak {peak / 1e6:.2f} MB"
