"""Per-window MSE/MAE scoring, run-level aggregation with token and latency
accounting, and report emission (json / csv / markdown), comparisons included."""

from __future__ import annotations

import csv as csv_mod
import io
import json
import os
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import NamedTuple, Optional, Sequence

from .errors import LengthMismatch, MismatchedRuns, NoOverlap, NoParsedWindows, ZeroBaseline

CSV_COLUMNS = [
    "dataset",
    "strategy",
    "horizon",
    "n_windows",
    "n_parsed",
    "mean_mse",
    "mean_mae",
    "mean_it",
    "mean_ot",
    "mean_latency_s",
]


class WindowResult(NamedTuple):
    window_id: str
    mse: Optional[float]
    mae: Optional[float]
    input_tokens: int
    output_tokens: int
    latency_seconds: float
    parse_status: str = "ok"  # "ok", "ok:repaired", or "failed:<reason>"

    @property
    def parsed(self) -> bool:
        return self.parse_status.startswith("ok")


@dataclass(frozen=True)
class RunReport:
    dataset: str
    strategy: str
    horizon: int
    n_windows: int
    n_parsed: int
    mean_mse: Optional[float]
    mean_mae: Optional[float]
    total_input_tokens: int
    total_output_tokens: int
    mean_input_tokens: float
    mean_output_tokens: float
    mean_latency_s: float
    parse_failure_rate: float
    template_version: str
    backend_id: str
    config: dict = field(default_factory=dict)


def mse(pred: Sequence[float], truth: Sequence[float]) -> float:
    if len(pred) != len(truth) or not pred:
        raise LengthMismatch(f"{len(pred)} vs {len(truth)}")
    return sum([(p - t) ** 2 for p, t in zip(pred, truth)]) / len(pred)


def mae(pred: Sequence[float], truth: Sequence[float]) -> float:
    if len(pred) != len(truth) or not pred:
        raise LengthMismatch(f"{len(pred)} vs {len(truth)}")
    return sum([abs(p - t) for p, t in zip(pred, truth)]) / len(pred)


def aggregate(
    results: Sequence[WindowResult],
    dataset: str,
    strategy: str,
    horizon: int,
    template_version: str,
    backend_id: str,
    config: Optional[dict] = None,
) -> RunReport:
    """Means over parsed windows; token totals over every window issued. The
    windows are summed in window id order, so input order does not change a
    byte of the report. A cell with no parsed window, none at all among them,
    raises NoParsedWindows, which counts its windows by parse status: this is
    the one check for an empty cell."""
    ordered = sorted(results, key=lambda r: r.window_id)
    parsed = [r for r in ordered if r.parsed]
    if not ordered:
        raise NoParsedWindows("no evaluation windows")
    if not parsed:
        reasons = Counter(r.parse_status for r in ordered)
        raise NoParsedWindows(
            f"all {len(ordered)} windows failed ({dataset}, {strategy}, h={horizon}): "
            + ", ".join(f"{reasons[s]} {s}" for s in sorted(reasons))
        )
    n = len(ordered)
    total_it = sum(r.input_tokens for r in ordered)
    total_ot = sum(r.output_tokens for r in ordered)
    return RunReport(
        dataset=dataset,
        strategy=strategy,
        horizon=horizon,
        n_windows=n,
        n_parsed=len(parsed),
        mean_mse=sum(r.mse for r in parsed) / len(parsed),
        mean_mae=sum(r.mae for r in parsed) / len(parsed),
        total_input_tokens=total_it,
        total_output_tokens=total_ot,
        mean_input_tokens=total_it / n,
        mean_output_tokens=total_ot / n,
        mean_latency_s=sum(r.latency_seconds for r in parsed) / len(parsed),
        parse_failure_rate=(n - len(parsed)) / n,
        template_version=template_version,
        backend_id=backend_id,
        config=dict(config or {}),
    )


def improvement(baseline: RunReport, ours: RunReport) -> float:
    """Percentage MSE reduction relative to the baseline report."""
    if baseline.dataset != ours.dataset or baseline.horizon != ours.horizon:
        raise MismatchedRuns(
            f"({baseline.dataset}, h={baseline.horizon})"
            f" vs ({ours.dataset}, h={ours.horizon})"
        )
    if baseline.mean_mse == 0:
        raise ZeroBaseline("baseline mean_mse is zero")
    return 100.0 * (baseline.mean_mse - ours.mean_mse) / baseline.mean_mse


def reports_to_json(reports: Sequence[RunReport]) -> str:
    return json.dumps([asdict(r) for r in reports], indent=2, sort_keys=True)


def reports_from_json(text: str) -> list[RunReport]:
    return [RunReport(**d) for d in json.loads(text)]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return f"{x:.6g}"
    return str(x)


def _markdown_table(header: Sequence[str], rows) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv_mod.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def render_markdown(reports: Sequence[RunReport]) -> str:
    """Dataset x Horizon rows, one MSE/MAE column pair per strategy."""
    strategies = sorted({r.strategy for r in reports})
    header = ["Dataset", "Horizon"]
    for s in strategies:
        header += [f"{s} MSE", f"{s} MAE"]
    by_key: dict = {}
    for r in reports:
        by_key.setdefault((r.dataset, r.horizon), {})[r.strategy] = r
    rows = []
    for (ds, h) in sorted(by_key):
        row = [ds, str(h)]
        for s in strategies:
            r = by_key[(ds, h)].get(s)
            row += [_fmt(r.mean_mse) if r else "", _fmt(r.mean_mae) if r else ""]
        rows.append(row)
    return _markdown_table(header, rows)


def render_csv(reports: Sequence[RunReport]) -> str:
    return _csv_text(
        CSV_COLUMNS,
        (
            [r.dataset, r.strategy, r.horizon, r.n_windows, r.n_parsed]
            + [_fmt(x) for x in (r.mean_mse, r.mean_mae, r.mean_input_tokens,
                                 r.mean_output_tokens, r.mean_latency_s)]
            for r in sorted(reports, key=lambda r: (r.dataset, r.strategy, r.horizon))
        ),
    )


def _by_key(reports: Sequence[RunReport], side: str) -> dict[tuple[str, int], RunReport]:
    keyed: dict[tuple[str, int], list[RunReport]] = {}
    for r in reports:
        keyed.setdefault((r.dataset, r.horizon), []).append(r)
    for (dataset, horizon), rs in keyed.items():
        if len(rs) > 1:
            raise MismatchedRuns(f"{side} has {len(rs)} reports for ({dataset}, h={horizon}):"
                                 f" {', '.join(r.strategy for r in rs)}")
    return {key: rs[0] for key, rs in keyed.items()}


def compare_reports(
    baseline: Sequence[RunReport], ours: Sequence[RunReport]
) -> list[tuple[RunReport, RunReport, float]]:
    """Pair reports by (dataset, horizon) and compute MSE improvement; a side with
    several reports for one key, such as one per strategy, raises MismatchedRuns."""
    a, b = _by_key(baseline, "baseline"), _by_key(ours, "ours")
    keys = sorted(set(a) & set(b))
    if not keys:
        raise NoOverlap("no shared (dataset, horizon) keys between reports")
    return [(a[k], b[k], improvement(a[k], b[k])) for k in keys]


def render_comparison_markdown(rows) -> str:
    table = []
    for base, ours, imp in rows:
        b_mse, o_mse = f"{base.mean_mse:.6g}", f"{ours.mean_mse:.6g}"
        if ours.mean_mse < base.mean_mse:
            o_mse = f"**{o_mse}**"
        elif base.mean_mse < ours.mean_mse:
            b_mse = f"**{b_mse}**"
        table.append(
            [base.dataset, str(base.horizon), b_mse, f"{base.mean_mae:.6g}",
             o_mse, f"{ours.mean_mae:.6g}", f"{imp:.2f}"]
        )
    header = ["Dataset", "Horizon", "Baseline MSE", "Baseline MAE", "Ours MSE", "Ours MAE",
              "MSE improvement %"]
    return _markdown_table(header, table)


def render_comparison_csv(rows) -> str:
    return _csv_text(
        ["dataset", "horizon", "baseline_mse", "baseline_mae", "ours_mse", "ours_mae",
         "mse_improvement_pct"],
        (
            [base.dataset, base.horizon, base.mean_mse, base.mean_mae,
             ours.mean_mse, ours.mean_mae, f"{imp:.2f}"]
            for base, ours, imp in rows
        ),
    )


def emit_report(reports: Sequence[RunReport], path) -> None:
    """Write the reports to path in the format its suffix names: CSV for .csv,
    the Markdown table for .md, and JSON for any other."""
    name = os.fspath(path)
    render = (render_csv if name.endswith(".csv") else
              render_markdown if name.endswith(".md") else reports_to_json)
    with open(path, "w", encoding="utf-8") as f:
        f.write(render(reports))
