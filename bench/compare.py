"""Side-by-side report of two ``bench/run.py --workload all --out`` files.

    python3 bench/compare.py BENCH_old.json BENCH_new.json

For each workload it prints every metric of both files with the change,
and each side's attempted and failed window counts. It is a report, not a
gate: it always exits 0 once both files are read.
"""

from __future__ import annotations

import json
import sys


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)["results"]


def _fmt(v) -> str:
    return "-" if v is None else f"{v:.6g}"


def compare(old: dict, new: dict) -> str:
    lines = []
    for workload in sorted(set(old) | set(new)):
        lines.append(f"== {workload}")
        runs = sorted(set(old.get(workload, {})) | set(new.get(workload, {})))
        for run in runs:
            a = old.get(workload, {}).get(run, {})
            b = new.get(workload, {}).get(run, {})
            lines.append(
                f"  [{run}] attempted/failed: old {a.get('attempted', '-')}/{a.get('failed', '-')}"
                f"  new {b.get('attempted', '-')}/{b.get('failed', '-')}")
            am, bm = a.get("metrics", {}), b.get("metrics", {})
            lines.append(f"  {'metric':40s} {'old':>12s} {'new':>12s} {'delta':>12s} {'delta%':>8s}  unit")
            for metric in list(am) + [m for m in bm if m not in am]:
                x = am.get(metric, {}).get("value")
                y = bm.get(metric, {}).get("value")
                unit = (am.get(metric) or bm.get(metric))["unit"]
                delta = pct = "-"
                if x is not None and y is not None:
                    delta = _fmt(y - x)
                    pct = f"{100.0 * (y - x) / x:+.1f}" if x else "-"
                lines.append(f"  {metric:40s} {_fmt(x):>12s} {_fmt(y):>12s} {delta:>12s} {pct:>8s}  {unit}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    print(compare(_load(argv[0]), _load(argv[1])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
