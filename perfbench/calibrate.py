"""Host-speed meter: a fixed probe timed over and over while a pass runs.

On a shared host the speed of the same code drifts by 10-25% over minutes,
and by up to 2x over fractions of a second, so no statistic over a run's own
passes can remove it. While a pass runs, a SIGALRM handler therefore times a
small fixed probe every ``INTERVAL_S`` of wall time. The probes' own time is
taken out of the pass, and the rest is scaled by ``NOMINAL_S / mean(probe
time)``: a pass on a slowed host reads as it would at nominal speed. The
probe mixes what windfleet spends its time on (CSV text written and parsed
through the ``csv`` module, timestamps, float formatting, and numpy passes
over week-long arrays), so that contention slows both alike. It does not use
windfleet and never changes, so a change to windfleet moves the scaled times
as it moves the raw ones.
"""

from __future__ import annotations

import csv
import gc
import io
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta

import numpy as np

INTERVAL_S = 0.1
PROBE_ROWS = 200
PROBE_WEEKS = 3
WEEK_SAMPLES = 2016  # one week of 5-minute samples, the unit of the program's dispatch
ARRAY_ROUNDS = 40
# Roughly the probe's mean time between passes on the machine the bounds
# were tuned on (2-vCPU KVM guest, Intel Xeon family 6 model 143, Python
# 3.11, numpy 2.4), so that scaled times read close to raw seconds there.
NOMINAL_S = 0.005


def work() -> float:
    """The probe's fixed work; returns a checksum so that nothing is skipped."""
    rng = np.random.default_rng(20210104)
    values = rng.random(PROBE_ROWS).tolist()
    start = datetime(2020, 1, 1)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("timestamp", "a", "b"))
    for i, v in enumerate(values):
        writer.writerow(((start + timedelta(minutes=5 * i)).isoformat(), f"{v:.6f}", f"{v * 7:.3f}"))
    buf.seek(0)
    total = 0.0
    for row in csv.DictReader(buf):
        total += datetime.fromisoformat(row["timestamp"]).minute + float(row["a"]) + float(row["b"])
    for week in rng.random((PROBE_WEEKS, WEEK_SAMPLES)):
        for k in range(ARRAY_ROUNDS):
            level = np.maximum(week - k / ARRAY_ROUNDS, 0.0)
            total += float(level.sum()) + float(np.minimum(level, 0.5).mean())
    return total


def probe() -> float:
    """Wall time of one run of the fixed work, with the collector off so that
    the size of the program's heap does not count."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        work()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def warm_up(rounds: int = 5) -> None:
    """The first probes of a process run slow; run these before any window."""
    for _ in range(rounds):
        probe()


def import_scale(elapsed: float, probes: int = 10) -> str:
    """``elapsed`` raw and at nominal speed, measured by probes run after it."""
    mean = statistics.mean(probe() for _ in range(probes))
    return f"{elapsed!r} {elapsed * NOMINAL_S / mean!r}"


@dataclass
class Window:
    """One metered stretch of wall time and the probes taken inside it."""

    elapsed: float = 0.0
    probe_s: float = 0.0  # time spent in probes inside the window
    probes: list[float] = field(default_factory=list)

    @property
    def factor(self) -> float:
        """Turns a time measured inside the window into program time at nominal
        speed: the probes' share comes out, and the rest is scaled."""
        return (1.0 - self.probe_s / self.elapsed) * NOMINAL_S / statistics.mean(self.probes)

    @property
    def scaled_s(self) -> float:
        return self.elapsed * self.factor


@contextmanager
def metered():
    """Probe every INTERVAL_S of wall time while the block runs."""
    window = Window()
    busy = False

    def on_alarm(signum, frame):
        nonlocal busy
        if busy:  # a probe slower than the interval; skip rather than nest
            return
        busy = True
        window.probes.append(probe())
        busy = False

    saved = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    try:
        yield window
    finally:
        window.elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, saved)
        window.probe_s = sum(window.probes)
        if not window.probes:  # shorter than one interval: probe once, after it
            window.probes.append(probe())
