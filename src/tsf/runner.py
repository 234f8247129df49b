"""End-to-end pipeline: windows -> (neighbors) -> prompts -> LLM -> parsed
forecasts -> scored reports."""

from __future__ import annotations

import json
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import evaluation
from .dataset import Dataset, EvalWindow, Series, eval_window, window_starts
from .errors import EmptyPool, TsfError, WrongCount
from .evaluation import RunReport, WindowResult
from .llmgateway import BackendConfig, Gateway, LlmResponse
from .neighbors import NeighborSet, build_pool, top_k
from .parsing import parse_prediction
from .prompting import TEMPLATE_VERSION, PromptBundle, Strategy, assemble

DEFAULT_HORIZONS = (1, 2, 3, 4, 5, 6, 12)


@dataclass(frozen=True)
class RunConfig:
    strategies: tuple[Strategy, ...]
    backend: BackendConfig
    horizons: tuple[int, ...] = DEFAULT_HORIZONS
    context_len: int = 96
    eval_stride: int = 96
    patch_window: int = 3
    patch_stride: int = 1
    k: int = 5
    candidate_stride: int = 1
    znorm_neighbors: bool = False
    max_windows: int = 100
    seed: int = 0
    lenient: bool = False

    def snapshot(self) -> dict:
        return {
            "context_len": self.context_len,
            "eval_stride": self.eval_stride,
            "horizons": list(self.horizons),
            "strategies": [s.value for s in self.strategies],
            "patch_window": self.patch_window,
            "patch_stride": self.patch_stride,
            "k": self.k,
            "candidate_stride": self.candidate_stride,
            "znorm_neighbors": self.znorm_neighbors,
            "max_windows": self.max_windows,
            "seed": self.seed,
            "lenient": self.lenient,
            "backend": self.backend.backend_id,
        }


@dataclass
class RunFailure:
    strategy: str
    horizon: int
    window_id: str
    error: str


@dataclass
class RunOutcome:
    reports: list[RunReport]
    failures: list[RunFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _subsample(windows: Sequence, max_windows: int, seed: int) -> Sequence:
    if len(windows) <= max_windows:
        return windows
    rng = random.Random(seed)
    keep = sorted(rng.sample(range(len(windows)), max_windows))
    return [windows[i] for i in keep]


def _neighbor_search(dataset: Dataset, cfg: RunConfig) -> Callable[[EvalWindow], NeighborSet]:
    """Neighbor search for one call, done once per (series_id, context_start):
    the config is fixed within a call, and every strategy and horizon of a
    window shares its context. Series become float64 arrays on first use."""
    cache: dict[tuple[str, int], NeighborSet] = {}
    arrays: list[np.ndarray] = []

    def search(window: EvalWindow) -> NeighborSet:
        key = (window.series_id, window.context_start)
        if key not in cache:
            if not arrays:
                arrays.extend(np.asarray(s.values, dtype=float) for s in dataset.series)
            pool = build_pool(dataset, window, cfg.candidate_stride, arrays=arrays)
            cache[key] = top_k(window, pool, cfg.k, znorm=cfg.znorm_neighbors)
        return cache[key]

    return search


def _bundle_for(
    cfg: RunConfig,
    dataset: Dataset,
    series: Series,
    window: EvalWindow,
    strategy: Strategy,
    search: Optional[Callable[[EvalWindow], NeighborSet]] = None,
) -> PromptBundle:
    neighbor_set = None
    if strategy.uses_neighbors:
        neighbor_set = (search or _neighbor_search(dataset, cfg))(window)
    return assemble(
        strategy,
        window,
        series_description=series.description,
        interval_seconds=series.interval_seconds,
        patch_window=cfg.patch_window,
        patch_stride=cfg.patch_stride,
        k=cfg.k,
        neighbor_set=neighbor_set,
    )


def _failed(window: EvalWindow, error: TsfError, resp: Optional[LlmResponse] = None) -> WindowResult:
    """A window that produced no forecast; its tokens count if it was answered."""
    return WindowResult(
        window_id=f"{window.series_id}:{window.context_start}",
        forecast=None,
        truth=window.truth,
        mse=None,
        mae=None,
        input_tokens=resp.input_tokens if resp else 0,
        output_tokens=resp.output_tokens if resp else 0,
        latency_seconds=resp.latency_seconds if resp else 0.0,
        parse_status=f"failed:{type(error).__name__}",
    )


def _score(window: EvalWindow, bundle: PromptBundle, resp: LlmResponse, lenient: bool) -> WindowResult:
    try:
        values = parse_prediction(resp.text, window.horizon)
        repaired = False
    except WrongCount:
        if not lenient:
            raise
        values = parse_prediction(resp.text, window.horizon, lenient=True)
        repaired = True
    return WindowResult(
        window_id=bundle.window_id,
        forecast=tuple(values),
        truth=window.truth,
        mse=evaluation.mse(values, window.truth),
        mae=evaluation.mae(values, window.truth),
        input_tokens=resp.input_tokens,
        output_tokens=resp.output_tokens,
        latency_seconds=resp.latency_seconds,
        parse_status="ok:repaired" if repaired else "ok",
    )


def eval_windows(dataset: Dataset, cfg: RunConfig, horizon: int) -> list[tuple[Series, EvalWindow]]:
    """Subsampled evaluation windows for every series in the dataset. The
    subsample draws from the window starts; only the kept windows are built."""
    pairs: list[tuple[Series, EvalWindow]] = []
    for series in dataset.series:
        starts = window_starts(series, cfg.context_len, horizon, cfg.eval_stride)
        for start in _subsample(starts, cfg.max_windows, cfg.seed):
            pairs.append((series, eval_window(series, start, cfg.context_len, horizon)))
    return pairs


def bundles_for_run(dataset: Dataset, cfg: RunConfig) -> list[PromptBundle]:
    """Every prompt bundle a run would dispatch (used by record mode)."""
    out = []
    search = _neighbor_search(dataset, cfg)
    for strategy in cfg.strategies:
        for horizon in cfg.horizons:
            for series, window in eval_windows(dataset, cfg, horizon):
                try:
                    out.append(_bundle_for(cfg, dataset, series, window, strategy, search))
                except EmptyPool:
                    continue
    return out


def run(dataset: Dataset, cfg: RunConfig) -> RunOutcome:
    gateway = Gateway(cfg.backend)
    reports: list[RunReport] = []
    failures: list[RunFailure] = []
    search = _neighbor_search(dataset, cfg)

    def dispatch(job):
        """A response, or the error that stands in for it."""
        if isinstance(job, TsfError):
            return job
        try:
            return gateway.complete(job)
        except TsfError as e:
            return e

    for strategy in cfg.strategies:
        for horizon in cfg.horizons:
            results: list[WindowResult] = []
            pairs = eval_windows(dataset, cfg, horizon)
            jobs: list = []  # a bundle, or the EmptyPool that left a window without one
            for series, window in pairs:
                try:
                    jobs.append(_bundle_for(cfg, dataset, series, window, strategy, search))
                except EmptyPool as e:
                    jobs.append(e)

            with ThreadPoolExecutor(max_workers=max(1, cfg.backend.parallelism)) as ex:
                responses = list(ex.map(dispatch, jobs))

            for (series, window), bundle, resp in zip(pairs, jobs, responses):
                if isinstance(resp, TsfError):
                    results.append(_failed(window, resp))
                    continue
                try:
                    results.append(_score(window, bundle, resp, cfg.lenient))
                except TsfError as e:
                    results.append(_failed(window, e, resp))
            if not results:
                failures.append(
                    RunFailure(strategy.value, horizon, "-", "no evaluation windows")
                )
                continue
            try:
                reports.append(
                    evaluation.aggregate(
                        results,
                        dataset=dataset.name,
                        strategy=strategy.value,
                        horizon=horizon,
                        template_version=TEMPLATE_VERSION,
                        backend_id=cfg.backend.backend_id,
                        config=cfg.snapshot(),
                    )
                )
            except TsfError as e:
                failures.append(RunFailure(strategy.value, horizon, "-", str(e)))
    return RunOutcome(reports=reports, failures=failures)


def write_manifest(cfg: RunConfig, dataset: Dataset, path) -> None:
    manifest = {
        "dataset": dataset.name,
        "feature_count": dataset.feature_count,
        "template_version": TEMPLATE_VERSION,
        "backend_id": cfg.backend.backend_id,
        "config": cfg.snapshot(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def compare_reports(
    baseline: Sequence[RunReport], ours: Sequence[RunReport]
) -> list[tuple[RunReport, RunReport, float]]:
    """Pair reports by (dataset, horizon) and compute MSE improvement."""
    from .errors import NoOverlap

    def index(reports):
        d = {}
        for r in reports:
            d[(r.dataset, r.horizon)] = r
        return d

    a, b = index(baseline), index(ours)
    keys = sorted(set(a) & set(b))
    if not keys:
        raise NoOverlap("no shared (dataset, horizon) keys between reports")
    return [(a[k], b[k], evaluation.improvement(a[k], b[k])) for k in keys]


def render_comparison_markdown(rows) -> str:
    header = [
        "Dataset",
        "Horizon",
        "Baseline MSE",
        "Baseline MAE",
        "Ours MSE",
        "Ours MAE",
        "MSE improvement %",
    ]
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for base, ours, imp in rows:
        b_mse, o_mse = f"{base.mean_mse:.6g}", f"{ours.mean_mse:.6g}"
        if ours.mean_mse < base.mean_mse:
            o_mse = f"**{o_mse}**"
        elif base.mean_mse < ours.mean_mse:
            b_mse = f"**{b_mse}**"
        lines.append(
            "| "
            + " | ".join(
                [
                    base.dataset,
                    str(base.horizon),
                    b_mse,
                    f"{base.mean_mae:.6g}",
                    o_mse,
                    f"{ours.mean_mae:.6g}",
                    f"{imp:.2f}",
                ]
            )
            + " |"
        )
    return "\n".join(lines) + "\n"


def render_comparison_csv(rows) -> str:
    import csv as csv_mod
    import io

    buf = io.StringIO()
    w = csv_mod.writer(buf)
    w.writerow(
        ["dataset", "horizon", "baseline_mse", "baseline_mae", "ours_mse", "ours_mae", "mse_improvement_pct"]
    )
    for base, ours, imp in rows:
        w.writerow(
            [base.dataset, base.horizon, base.mean_mse, base.mean_mae, ours.mean_mse, ours.mean_mae, f"{imp:.2f}"]
        )
    return buf.getvalue()
