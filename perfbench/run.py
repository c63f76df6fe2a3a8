#!/usr/bin/env python3
"""windfleet benchmark: three workloads, end-to-end metrics, per-layer tracing.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload reproduce|sweep|weekly|all \\
        --seed N --seconds S --trace 0|1 [--smoke]

One process and one thread drive the package's public entry points. A run
times a fresh import of the package and generates its inputs from the seed
several times (``setup_s`` is the median import plus the median time spent in
the program's own calls while generating), then repeats passes of the
workload for ``--seconds``. Every time reported is program time at nominal
host speed: a probe timed every 0.1 s during each pass and each generation
measures the host's speed, and its time is taken out (calibrate.py); the raw
wall times are in the record. Every pass's outputs are checked after the last
pass, so that ``peak_rss_mb`` does not include the checks. ``--trace 0``
reports the end-to-end metrics of untraced passes; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from spans recorded
around the package's public functions, plus the tracing overhead. ``--smoke``
makes one small pass per mode, for tests. ``--workload all`` runs each
workload in its own process and prints a table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
the full record (environment, input sizes, quartiles, problems), which is
also written with the spans under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("reproduce", "sweep", "weekly")
TIME_LIMIT_S = 150.0  # a run must end within 180 s, checks included; stop starting passes before that
IMPORT_ROUNDS = 5
GENERATE_ROUNDS = 3
MAX_PROBLEMS_SHOWN = 20
# repair counts from the ingest log, reported per traced pass
INGEST_COUNTS = ("row_errors", "duplicates_dropped", "samples_interpolated", "trailing_discarded")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


IMPORT_CODE = """\
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
start = time.perf_counter()
import {module}
elapsed = time.perf_counter() - start
import calibrate
calibrate.warm_up()
print(calibrate.import_scale(elapsed))
"""


def time_import(module: str) -> tuple[float, float]:
    """Import time of ``module`` in a fresh interpreter, raw and at nominal host
    speed: the child probes its own host speed right after the import."""
    code = IMPORT_CODE.format(src=str(SRC), here=str(HERE), module=module)
    proc = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
    raw, scaled = proc.stdout.split()
    return float(raw), float(scaled)


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
    }


def export_counts(out: Path) -> dict[str, int]:
    files = [p for p in out.iterdir() if p.suffix == ".csv"]
    data = [p.read_bytes() for p in files]
    return {"export.files": len(files), "export.rows": sum(d.count(b"\n") for d in data),
            "export.bytes": sum(len(d) for d in data)}


def run_workload(args, work: Path) -> tuple[dict, dict]:
    """Set up, run and check one workload; returns (result, record)."""
    started = time.perf_counter()

    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, LogCapture, ingest_counts
    from tracing import Tracer
    from calibrate import metered, warm_up

    workload_cls = WORKLOADS[args.workload]
    warm_up()
    import_raw, import_times = zip(*(time_import(workload_cls.import_module)
                                     for _ in range(1 if args.smoke else IMPORT_ROUNDS)))
    workload = workload_cls(ROOT, work, args.seed, args.smoke)

    logs = LogCapture()
    root_logger = logging.getLogger()
    root_logger.addHandler(logs)  # also keeps the CLI's basicConfig from logging to stderr
    root_logger.setLevel(logging.INFO)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install(workload.extra_modules)

    # setup_s counts only the program's share of generation: the rest is the
    # benchmark's own input writer
    program_times, generate_times, setup_ids, windows = [], [], [], []
    for k in range(1 if args.smoke else GENERATE_ROUNDS):
        setup_ids.append(f"setup-{k}")
        with metered() as window, (tracer.active(setup_ids[-1]) if tracer else nullcontext()):
            program_s = workload.generate()
        program_times.append(program_s * window.factor)
        generate_times.append(window.elapsed)
        windows.append(window)
    setup_factor = statistics.median(w.factor for w in windows)
    logs.take()
    rss_mb = {"after_setup": peak_rss_mb()}

    untraced, traced, traced_factors = [], [], []  # times at nominal speed
    raw, cpu = [], []
    finished = []  # (pass id, output directory, outcome, traced), checked after the last pass
    measure_start = time.perf_counter()
    n = 0
    while True:
        is_traced = tracer is not None and n % 2 == 1
        pass_id = f"pass-{n}"
        out = work / pass_id
        out.mkdir(parents=True)
        with open(os.devnull, "w") as sink:  # the program's own prints
            start_cpu = time.process_time()
            with (metered() as window, (tracer.active(pass_id) if is_traced else nullcontext()),
                  redirect_stdout(sink)):
                outcome = workload.run_pass(out, logs)
        (traced if is_traced else untraced).append(window.scaled_s)
        if is_traced:
            traced_factors.append(window.factor)
        raw.append(window.elapsed)
        cpu.append(time.process_time() - start_cpu)
        windows.append(window)
        rss_mb.setdefault("after_first_pass", peak_rss_mb())
        finished.append((pass_id, out, outcome, is_traced))
        n += 1

        enough = bool(untraced) and (tracer is None or bool(traced))
        if enough and args.smoke:
            break
        since_start = time.perf_counter() - started
        if enough and (time.perf_counter() - measure_start >= args.seconds
                       or since_start + max(raw) > TIME_LIMIT_S):
            break
    # Checks run only now, so that the memory they use is not in peak_rss_mb.
    rss_mb["end_of_passes"] = peak_rss_mb()

    attempted = failed = 0
    problems: list[str] = []
    traced_ids, per_pass_counts = [], {}
    for pass_id, out, outcome, is_traced in finished:
        found = workload.check(out, outcome)
        bad_ops = {op for op, _ in found}
        attempted += len(outcome.ops)
        failed += min(len(bad_ops), len(outcome.ops))
        problems += [f"{pass_id}: {op}: {msg}" for op, msg in found]
        if is_traced:
            traced_ids.append(pass_id)
            counts = {f"ingest.{key}": 0 for key in INGEST_COUNTS}
            for messages in outcome.logs.values():
                found_counts = ingest_counts(messages)
                for key in INGEST_COUNTS:
                    counts[f"ingest.{key}"] += found_counts[key]
            counts.update(export_counts(out))
            per_pass_counts[pass_id] = counts
        shutil.rmtree(out, ignore_errors=True)
    rss_mb["after_checks"] = peak_rss_mb()
    # Every reported time is program time at nominal host speed (calibrate.py).
    wall = quartiles(untraced)
    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, **env,
        "input_rows": workload.input_rows, "input_bytes": workload.input_bytes,
        "passes_untraced": len(untraced), "passes_traced": len(traced),
        "import_raw_s": import_raw, "import_s": import_times, "generate_program_s": program_times,
        "generate_total_s": generate_times, "peak_rss_mb_at": rss_mb,
        "raw_wall_s_passes": raw, "cpu_s_passes": cpu, "scaled_s_untraced": untraced,
        "probe_mean_s": [statistics.mean(w.probes) for w in windows],
        "probe_count": [len(w.probes) for w in windows],
        "speed_factor": [w.factor for w in windows],
        "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted if attempted else 1.0,
        "problems": problems[:MAX_PROBLEMS_SHOWN], "problems_total": len(problems),
    }

    if tracer is None:
        metrics = {
            "setup_s": (tuple(statistics.median(import_times) + q
                              for q in quartiles(program_times)), "s"),
            "wall_s": (wall, "s"),
            "rows_per_s": (quartiles([workload.input_rows / t for t in untraced]), "1/s"),
            "curve_points_per_s": (quartiles([workload.curve_points / t for t in untraced]), "1/s"),
            "peak_rss_mb": ((rss_mb["end_of_passes"],) * 3, "MB"),
        }
        values = {k: {"value": q[1], "unit": u} for k, (q, u) in metrics.items()}
        record["quartiles"] = {k: {"q1": q[0], "median": q[1], "q3": q[2], "unit": u}
                               for k, (q, u) in metrics.items()}
    else:
        # spans hold probe time too; scale them by their rounds' median factor
        pass_factor = statistics.median(traced_factors)
        layer = {k: v * (setup_factor if k.startswith("synth.") else pass_factor)
                 if _unit(k) == "s" else v
                 for k, v in tracer.summarize(traced_ids, setup_ids).items()}
        for key in next(iter(per_pass_counts.values())):
            layer[key] = statistics.median(c[key] for c in per_pass_counts.values())
        layer["ingest.rows_read"] += layer["ingest.row_errors"]
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        values = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layer.items())}
        record["counts_repeat"] = all(
            c == next(iter(per_pass_counts.values())) for c in per_pass_counts.values())
        record["wall_s_traced_passes"] = traced
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}.csv")  # the latest traced run only
        tracer.uninstall()

    root_logger.removeHandler(logs)
    result = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
              "failed": failed, "metrics": values}
    return result, record



def _unit(name: str) -> str:
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name == "export.bytes":
        return "bytes"
    if name == "report.points_per_table2_row":
        return "points/row"
    return "count"


def print_summary(workload: str, result: dict, record: dict) -> None:
    quart = record.get("quartiles", {})
    for name, metric in result["metrics"].items():
        q = quart.get(name)
        spread = f"  (q1 {q['q1']:.6g}, q3 {q['q3']:.6g})" if q else ""
        print(f"{workload:10s} {name:40s} {metric['value']:.6g} {metric['unit']}{spread}")
    print(f"{workload:10s} {'fail_rate':40s} {record['fail_rate']:.6g} ratio"
          f"  ({record['failed']} of {record['attempted']} operations)")
    for problem in record["problems"]:
        print(f"{workload:10s} problem: {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so that peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            code = 1
            continue
        result, record = json.loads(lines[-1]), json.loads(lines[-2])
        print_summary(name, result, record)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    if code == 0:
        print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one small pass, for tests")
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "windfleet" / "__init__.py", ROOT / "scripts" / "reproduce_all.py")
               if not p.is_file()]
    if missing:
        print(f"perfbench: program sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # one thread, before numpy is imported
    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result, record = run_workload(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, "record": record}, indent=1))
    print_summary(args.workload, result, record)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
