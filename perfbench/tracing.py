"""In-memory spans around windfleet's public functions, installed from outside.

The tracer replaces each traced function in every loaded module that bound
it (``from .ingest import parse_csv`` copies the reference into cli), so
calls made inside the package are traced as well as calls made by the
benchmark. Spans are recorded only while a pass is active; outside one the
wrappers call straight through. Nothing in the package is edited.
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

# (module, function, layer). The public write_*_csv functions form the
# "export" layer wherever they live; every other function belongs to its module.
TRACED = (
    ("ingest", "parse_csv", "ingest"),
    ("ingest", "canonicalize", "ingest"),
    ("ingest", "segment_weeks", "ingest"),
    ("scaling", "normalize", "scaling"),
    ("scaling", "wind_histogram", "scaling"),
    ("dispatch", "dispatch_week", "dispatch"),
    ("curves", "annual_curve", "curves"),
    ("curves", "invert_curve", "curves"),
    ("curves", "curve_from_histogram", "curves"),
    ("bev", "leveling_schedule", "bev"),
    ("bev", "consumption_profile", "bev"),
    ("bev", "soc_trajectory", "bev"),
    ("report", "build_table2", "report"),
    ("report", "lull_report", "report"),
    ("report", "write_run_manifest", "report"),
    ("synth", "synthetic_year", "synth"),
    ("synth", "write_series_csv", "export"),
    ("scaling", "write_histogram_csv", "export"),
    ("curves", "write_curves_csv", "export"),
    ("dispatch", "write_dispatch_csv", "export"),
    ("bev", "write_bev_csv", "export"),
    ("report", "write_table2_csv", "export"),
    ("report", "write_lull_csv", "export"),
)
CLI_COMMANDS = ("ingest", "histogram", "curves", "bev", "lull", "table2")
# Layers whose totals are reported per pass. synth only runs while inputs are
# generated, so its spans are reported per set-up round instead.
PASS_LAYERS = ("ingest", "scaling", "dispatch", "curves", "bev", "report", "export", "cli")
SETUP_SPANS = ("synth.synthetic_year", "synth.write_series_csv")


def span_names() -> list[str]:
    return [f"{m}.{f}" for m, f, _ in TRACED] + [f"cli.{c}" for c in CLI_COMMANDS]


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    pass_id: str


class Tracer:
    """Records spans and counters for the pass that is currently active."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, int]] = {}
        self.pass_id: str | None = None
        self._open: list[tuple[int, str]] = []  # (span id, name), outermost first
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def active(self, pass_id: str):
        """Trace every call made inside the block as one pass under a root span."""
        self.pass_id = pass_id
        self.counters.setdefault(pass_id, {})
        try:
            with self.span("pass", "pass"):
                yield
        finally:
            self.pass_id = None

    @contextmanager
    def span(self, name: str, layer: str):
        sid = len(self.spans)
        parent = self._open[-1][0] if self._open else None
        self.spans.append(Span(name, layer, 0.0, 0.0, parent, self.pass_id))
        self._open.append((sid, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[sid].start = start
            self.spans[sid].end = end

    def inside(self, name: str) -> bool:
        return any(open_name == name for _, open_name in self._open)

    def count(self, name: str, amount: int) -> None:
        counters = self.counters[self.pass_id]
        counters[name] = counters.get(name, 0) + int(amount)

    def install(self, extra_modules=()) -> None:
        """Wrap every traced function that exists in the loaded package."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "windfleet" or n.startswith("windfleet.")]
        modules += list(extra_modules)
        for mod_name, fn_name, layer in TRACED:
            original = getattr(sys.modules.get(f"windfleet.{mod_name}"), fn_name, None)
            if original is None:
                continue  # a later version may drop it; its metrics then read 0
            self._replace(modules, original, self._wrap(original, f"{mod_name}.{fn_name}", layer))
        main = getattr(sys.modules.get("windfleet.cli"), "main", None)
        if main is not None:
            self._replace(modules, main, self._wrap_cli(main))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _replace(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))

    def _wrap(self, original, name: str, layer: str):
        tracer = self
        hook = _HOOKS.get(name)

        def traced(*args, **kwargs):
            if tracer.pass_id is None:
                return original(*args, **kwargs)
            with tracer.span(name, layer):
                result = original(*args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def _wrap_cli(self, original):
        tracer = self

        def traced(argv=None):
            if tracer.pass_id is None:
                return original(argv)
            command = argv[0] if argv else "none"
            with tracer.span(f"cli.{command}", "cli"):
                return original(argv)

        traced.__wrapped__ = original
        return traced

    def write(self, path: Path) -> None:
        """Write every span as one CSV row; parent is a span id, empty for a root."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,layer,start,end,parent,pass_id\n")
            for sid, s in enumerate(self.spans):
                parent = "" if s.parent is None else s.parent
                fh.write(f"{sid},{s.name},{s.layer},{s.start!r},{s.end!r},{parent},{s.pass_id}\n")

    def summarize(self, pass_ids: list[str], setup_ids: list[str]) -> dict[str, float]:
        """Per-layer metrics: medians over passes (or set-up rounds) of busy and self time."""
        per_round = {pid: _round_metrics(self.spans, pid) for pid in pass_ids + setup_ids}
        names = set(span_names()) | set(PASS_LAYERS) | {"synth", "pass"}
        out: dict[str, float] = {}
        for name in sorted(names):
            ids = setup_ids if name in SETUP_SPANS or name == "synth" else pass_ids
            rounds = [per_round[pid].get(name, (0.0, 0.0, 0)) for pid in ids]
            out[f"{name}.s"] = statistics.median(r[0] for r in rounds)
            out[f"{name}.self_s"] = statistics.median(r[1] for r in rounds)
            if name not in PASS_LAYERS and name not in ("synth", "pass"):
                out[f"{name}.calls"] = statistics.median(r[2] for r in rounds)
        for counter in ("ingest.rows_read", "curves.points_evaluated"):
            out[counter] = statistics.median(self.counters[p].get(counter, 0) for p in pass_ids)
        ratios = [
            self.counters[p].get("report.table2_points", 0) / self.counters[p]["report.table2_rows"]
            for p in pass_ids if self.counters[p].get("report.table2_rows")
        ]
        out["report.points_per_table2_row"] = statistics.median(ratios) if ratios else 0.0
        out["trace.spans"] = statistics.median(
            sum(1 for s in self.spans if s.pass_id == p) for p in pass_ids)
        return out


def _round_metrics(spans: list[Span], pass_id: str) -> dict[str, tuple[float, float, int]]:
    """name -> (busy s, self s, calls) for one pass, for span names and layers.

    Busy time counts an interval once even when spans of the same name or
    layer nest; self time subtracts the time covered by direct children.
    """
    ids = [i for i, s in enumerate(spans) if s.pass_id == pass_id]
    child_time = {i: 0.0 for i in ids}
    for i in ids:
        parent = spans[i].parent
        if parent is not None and parent in child_time:
            child_time[parent] += spans[i].end - spans[i].start
    out: dict[str, list[float]] = {}
    for i in ids:
        span = spans[i]
        duration = span.end - span.start
        self_time = duration - child_time[i]
        for key in {span.name, span.layer}:
            busy = 0.0 if _has_ancestor(spans, i, key) else duration
            acc = out.setdefault(key, [0.0, 0.0, 0])
            acc[0] += busy
            acc[1] += self_time
            acc[2] += 1 if key == span.name else 0
    return {k: (v[0], v[1], v[2]) for k, v in out.items()}


def _has_ancestor(spans: list[Span], i: int, key: str) -> bool:
    parent = spans[i].parent
    while parent is not None:
        if key in (spans[parent].name, spans[parent].layer):
            return True
        parent = spans[parent].parent
    return False


def _count_points(tracer: Tracer, args, kwargs, result) -> None:
    points = len(getattr(args[0] if args else kwargs.get("req"), "capacities_gwc", ()))
    tracer.count("curves.points_evaluated", points)
    if tracer.inside("report.build_table2"):
        tracer.count("report.table2_points", points)


def _count_table2_rows(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("report.table2_rows", len(result))


def _count_parsed_rows(tracer: Tracer, args, kwargs, result) -> None:
    # Rows that parsed; rejected rows are added from the ingest log.
    tracer.count("ingest.rows_read", len(result))


_HOOKS = {
    "curves.annual_curve": _count_points,
    "report.build_table2": _count_table2_rows,
    "ingest.parse_csv": _count_parsed_rows,
}
