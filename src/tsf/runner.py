"""End-to-end pipeline: windows -> (neighbors) -> prompts -> LLM -> parsed
forecasts -> scored reports."""

from __future__ import annotations

import itertools
import json
import queue
import random
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

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

# a window's neighbor set, or the EmptyPool that stands in for it
Neighbors = Union[NeighborSet, EmptyPool]


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
        snap = {f.name: getattr(self, f.name) for f in fields(self)}
        snap.update(horizons=list(self.horizons), strategies=[s.value for s in self.strategies],
                    backend=self.backend.backend_id)
        return snap


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


def _neighbor_search(dataset: Dataset, cfg: RunConfig) -> Callable[[EvalWindow], Neighbors]:
    """Neighbor search for one call, done once per (series_id, context_start):
    the config is fixed within a call, and every strategy and horizon of a
    window shares its context. A window without candidates gets the EmptyPool
    that stands in for its neighbor set. Series become float64 arrays on
    first use. Not safe for concurrent use."""
    cache: dict[tuple[str, int], Neighbors] = {}
    arrays: list[np.ndarray] = []

    def search(window: EvalWindow) -> Neighbors:
        key = (window.series_id, window.context_start)
        if key not in cache:
            if not arrays:
                arrays.extend(np.asarray(s.values, dtype=float) for s in dataset.series)
            try:
                pool = build_pool(dataset, window, cfg.candidate_stride, arrays=arrays)
                cache[key] = top_k(window, pool, cfg.k, znorm=cfg.znorm_neighbors)
            except EmptyPool as e:
                cache[key] = e
        return cache[key]

    return search


class _Job(NamedTuple):
    """One (strategy, horizon, window) of a run's plan."""

    strategy: Strategy
    series: Series
    window: EvalWindow
    neighbors: Optional[Neighbors]  # None for strategies without neighbors


def _cells(cfg: RunConfig) -> list[tuple[Strategy, int]]:
    """The run's (strategy, horizon) cells, in report order."""
    return list(itertools.product(cfg.strategies, cfg.horizons))


def _plan(dataset: Dataset, cfg: RunConfig) -> Iterator[_Job]:
    """One job per (strategy, horizon, window), in cell order. Each window's
    neighbors are searched here, on the calling thread."""
    search = _neighbor_search(dataset, cfg)
    cells = _cells(cfg)
    windows = {h: eval_windows(dataset, cfg, h) for h in cfg.horizons} if cells else {}
    for strategy, horizon in cells:
        for series, window in windows[horizon]:
            yield _Job(strategy, series, window, search(window) if strategy.uses_neighbors else None)


def _assemble(cfg: RunConfig, job: _Job) -> PromptBundle:
    return assemble(
        job.strategy,
        job.window,
        series_description=job.series.description,
        interval_seconds=job.series.interval_seconds,
        patch_window=cfg.patch_window,
        patch_stride=cfg.patch_stride,
        k=cfg.k,
        neighbor_set=job.neighbors,
    )


def _bundle_for(
    cfg: RunConfig,
    dataset: Dataset,
    series: Series,
    window: EvalWindow,
    strategy: Strategy,
) -> PromptBundle:
    neighbors = _neighbor_search(dataset, cfg)(window) if strategy.uses_neighbors else None
    if isinstance(neighbors, EmptyPool):
        raise neighbors
    return _assemble(cfg, _Job(strategy, series, window, neighbors))


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


def _window_result(gateway: Gateway, cfg: RunConfig, job: _Job) -> WindowResult:
    """Assemble, dispatch and score one job; a TsfError costs this window only."""
    if isinstance(job.neighbors, EmptyPool):
        return _failed(job.window, job.neighbors)
    resp = None
    try:
        bundle = _assemble(cfg, job)
        resp = gateway.complete(bundle)
        return _score(job.window, bundle, resp, cfg.lenient)
    except TsfError as e:
        return _failed(job.window, e, resp)


def eval_windows(dataset: Dataset, cfg: RunConfig, horizon: int) -> list[tuple[Series, EvalWindow]]:
    """Subsampled evaluation windows for every series in the dataset. The
    subsample draws from the window starts valid at the run's longest
    horizon, so every horizon scores the same windows; only the kept windows
    are built."""
    pairs: list[tuple[Series, EvalWindow]] = []
    for series in dataset.series:
        starts = window_starts(series, cfg.context_len, max(cfg.horizons), cfg.eval_stride)
        for start in _subsample(starts, cfg.max_windows, cfg.seed):
            pairs.append((series, eval_window(series, start, cfg.context_len, horizon)))
    return pairs


def bundles_for_run(dataset: Dataset, cfg: RunConfig) -> list[PromptBundle]:
    """Every prompt bundle a run would dispatch (used by record mode)."""
    return [_assemble(cfg, job) for job in _plan(dataset, cfg)
            if not isinstance(job.neighbors, EmptyPool)]


def _aggregate(
    dataset: Dataset, cfg: RunConfig, cell: tuple[Strategy, int], results: list[WindowResult]
) -> Union[RunReport, RunFailure]:
    strategy, horizon = cell
    if not results:
        return RunFailure(strategy.value, horizon, "-", "no evaluation windows")
    try:
        return evaluation.aggregate(
            results,
            dataset=dataset.name,
            strategy=strategy.value,
            horizon=horizon,
            template_version=TEMPLATE_VERSION,
            backend_id=cfg.backend.backend_id,
            config=cfg.snapshot(),
        )
    except TsfError as e:
        return RunFailure(strategy.value, horizon, "-", str(e))


def run(dataset: Dataset, cfg: RunConfig) -> RunOutcome:
    """Dispatch the whole plan through one pool of `parallelism` workers that
    pull job indices from one queue. The worker that finishes a cell's last
    job aggregates the cell and lets its window results go."""
    gateway = Gateway(cfg.backend)
    cells = _cells(cfg)
    jobs = list(_plan(dataset, cfg))
    n = len(jobs) // max(1, len(cells))  # every cell scores the same windows
    results = [[None] * n for _ in cells]
    left = [n] * len(cells)
    # with no windows at all, every cell fails at once; else its last worker aggregates it
    outcomes = [_aggregate(dataset, cfg, cell, []) if not n else None for cell in cells]
    lock = threading.Lock()
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(jobs)):
        todo.put(i)

    def work() -> None:
        while True:
            try:
                i = todo.get_nowait()
            except queue.Empty:
                return
            c, j = divmod(i, n)
            results[c][j] = _window_result(gateway, cfg, jobs[i])
            with lock:
                left[c] -= 1
                last = not left[c]
            if last:
                outcomes[c] = _aggregate(dataset, cfg, cells[c], results[c])
                results[c] = None

    workers = max(1, cfg.backend.parallelism)
    with ThreadPoolExecutor(max_workers=workers) as ex:
        for f in [ex.submit(work) for _ in range(workers)]:
            f.result()
    return RunOutcome(
        reports=[o for o in outcomes if isinstance(o, RunReport)],
        failures=[o for o in outcomes if isinstance(o, RunFailure)],
    )


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
