"""Offline benchmark of the tsf pipeline.

One workload, the form BENCHMARK.json names:

    python3 bench/run.py --workload plain-mix --seed 1 --seconds 20 --trace 0

prints a summary and, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced pass with
``--trace 1``).

Every workload, each in its own process, traced and untraced:

    python3 bench/run.py --workload all --seed 1 --out BENCH_label.json

Compare two such files with ``python3 bench/compare.py OLD NEW``.
Run from the root of a checkout; inputs are generated under ``.bench_work/``
and removed afterwards. A traced run also writes every span, one JSON line
each, to ``.bench_spans/<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
SPANS_DIR = os.path.join(ROOT, ".bench_spans")
PREPARED = "workload.pickle"  # written by prepare.py into the work directory
WORKLOAD_NAMES = ("plain-mix", "neighbor-mix", "replay-cli")
DEFAULT_SECONDS = 20
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 2.0  # cheap set-ups repeat until this much has been timed
MIN_PASSES = 3  # replay-cli needs three passes to write every report format
RUN_TIMEOUT_S = 180

END_TO_END = (
    # (metric, unit, better)
    ("windows_per_s", "windows/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def import_program():
    """Import tsf from this checkout's src/, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "tsf", "__init__.py")):
        print(f"error: no program source at {SRC}/tsf; run from a tsf checkout", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, BENCH_DIR]
    import tsf

    if os.path.dirname(os.path.abspath(tsf.__file__)) != os.path.join(SRC, "tsf"):
        print(f"error: imported tsf from {tsf.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list]:
    """Prepare (in a child process), set up, time whole passes for
    `seconds`, and (when tracing) run one more pass under the tracer.
    Returns the result and the oracle problems found."""
    import tracing

    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
    try:
        subprocess.run([sys.executable, os.path.join(BENCH_DIR, "prepare.py"),
                        name, str(seed), work], check=True, timeout=RUN_TIMEOUT_S)
        with open(os.path.join(work, PREPARED), "rb") as f:
            wl = pickle.load(f)
        setup_times = []
        while len(setup_times) < SETUP_MIN_REPEATS or sum(setup_times) < SETUP_MIN_SECONDS:
            gc.collect()
            setup_times.append(wl.setup())

        problems, rates = [], []
        attempted = ok = 0
        started = perf_counter()
        while len(rates) < MIN_PASSES or perf_counter() - started < seconds:
            gc.collect()  # each pass starts from the same collector state
            res = wl.run_pass(len(rates))
            problems += res.problems
            attempted += res.attempted
            ok += res.ok
            rates.append(res.ok / res.elapsed)
        wps = statistics.median(rates)
        print(f"{name}: {len(rates)} passes of {res.attempted} windows, "
              f"{res.ok} scored ok per pass; windows/s per pass: "
              + ", ".join(f"{r:.1f}" for r in rates))

        if not trace:
            metrics = {
                "windows_per_s": wps,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
        else:
            tracer = tracing.Tracer()
            gc.collect()
            tracer.install()
            try:
                if not wl.pass_sets_up:
                    wl.setup()
                res = wl.run_pass(len(rates))
            finally:
                tracer.uninstall()
            problems += res.problems
            attempted += res.attempted
            ok += res.ok
            traced_wps = res.ok / res.elapsed
            overhead = 100.0 * (wps - traced_wps) / wps if wps else 0.0
            print(f"{name}: traced pass {traced_wps:.1f} windows/s against "
                  f"{wps:.1f} untraced ({overhead:.1f}% tracing overhead), "
                  f"{len(tracer.spans)} spans")
            if tracer.absent:
                print("absent (metrics read 0): " + ", ".join(tracer.absent))
            metrics = tracer.metrics(res.attempted, overhead)
            os.makedirs(SPANS_DIR, exist_ok=True)
            spans_path = os.path.join(SPANS_DIR, f"{name}.jsonl")
            tracer.write_spans(spans_path)
            print(f"{name}: spans written to {os.path.relpath(spans_path, ROOT)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(WORK_ROOT)

    units = {m: u for m, u, _ in (tracing.PER_LAYER if trace else END_TO_END)}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": {m: {"value": metrics[m], "unit": units[m]} for m in units},
    }
    return result, problems


def print_table(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for metric, mv in result["metrics"].items():
        print(f"  {metric:40s} {mv['value']:>16.6g} {mv['unit']}")


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Each workload in its own process, untraced then traced."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=RUN_TIMEOUT_S)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{name} --trace {trace}: exited {proc.returncode} without a result")
                status = 1
                continue
            if proc.returncode != 0 or not result["correct"]:
                status = 1
            results[name][f"trace{trace}"] = result
    if out:
        import numpy

        doc = {
            "meta": {
                "seed": seed,
                "seconds": seconds,
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "machine": platform.machine(),
                "cpus": os.cpu_count(),
            },
            "results": results,
        }
        with open(out, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {out}")
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="with --workload all: write every result here")
    args = p.parse_args(argv)

    import_program()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)

    result, problems = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for problem in problems[:50]:
        print(f"WRONG: {problem}", file=sys.stderr)
    print_table(args.workload, result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
