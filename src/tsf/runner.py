"""End-to-end pipeline: windows -> (neighbors) -> prompts -> LLM -> parsed
forecasts -> scored reports."""

from __future__ import annotations

import contextlib
import itertools
import json
import queue
import random
import threading
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Sequence, Union

from . import evaluation, neighbors, prompting
from .dataset import Dataset, window_starts
from .errors import EmptyPool, TsfError, WrongCount
from .evaluation import RunReport, WindowResult
from .llmgateway import BackendConfig, BackendKind, Gateway
from .parsing import parse_prediction
from .prompting import TEMPLATE_VERSION, PromptBundle, Strategy

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


class _Job(NamedTuple):
    """One (strategy, horizon, window) of a run's plan, with its prompt text."""

    strategy: Strategy
    horizon: int
    window_id: str  # "series id:start"
    truth: tuple[float, ...]  # the horizon values that follow the context
    system: str
    sequence: str  # the rendered context
    neighbors: Union[str, EmptyPool, None]  # the rendered block, or what stood in for it


def _cells(cfg: RunConfig) -> list[tuple[Strategy, int]]:
    """The run's (strategy, horizon) cells, in report order."""
    return list(itertools.product(cfg.strategies, cfg.horizons))


def _shown_text(dataset: Dataset, drawn, found, length: int) -> dict[tuple[str, int], str]:
    """The rendered text of every window the plan shows, by (series id, start):
    each drawn context and each neighbor, each series' cells formatted once."""
    starts = {s.id: set() for s in dataset.series}
    for (sid, start), entries in zip(drawn, found):
        starts[sid].add(start)
        if isinstance(entries, tuple):
            for sid, start, _ in entries:
                starts[sid].add(start)
    return {(s.id, start): text for s in dataset.series
            for start, text in prompting.render_sequences(s.values, starts[s.id], length).items()}


def _plan(dataset: Dataset, cfg: RunConfig) -> list[_Job]:
    """One job per (strategy, horizon, window), in cell order, its text rendered
    here on the calling thread: every window's neighbors in one search, the
    text of every window shown (contexts and neighbors) from each series'
    cells formatted once, each neighbor block, id, start stamp and truth once
    per window, and each system prompt once per (strategy, horizon, series,
    and the start clock where the strategy states it). A window without
    candidates gets the EmptyPool that stands in for its neighbor block."""
    cells = _cells(cfg)
    if not cells:
        return []
    drawn = list(itertools.product(dataset.series, draw_starts(dataset, cfg)))
    positions = [(series.id, start) for series, start in drawn]
    found = (neighbors.search(dataset, positions, cfg.context_len, cfg.k, cfg.znorm_neighbors)
             if any(s.uses_neighbors for s in cfg.strategies) else [None] * len(drawn))
    texts = _shown_text(dataset, positions, found, cfg.context_len)
    windows = []
    for (series, start), entries in zip(drawn, found):
        block = (prompting.neighbor_block([texts[sid, at] for sid, at, _ in entries])
                 if isinstance(entries, tuple) else entries)
        end = start + cfg.context_len
        truth = series.values[end:end + max(cfg.horizons)].tolist()
        windows.append((series, f"{series.id}:{start}", int(dataset.timestamps[start]),
                        {h: tuple(truth[:h]) for h in cfg.horizons},
                        texts[series.id, start], block))
    systems: dict[tuple, str] = {}
    jobs = []
    for strategy, horizon in cells:
        for series, window_id, stamp, truths, sequence, block in windows:
            key = (strategy, horizon, series.id, stamp % 86400 if strategy.states_clock else None)
            if key not in systems:
                systems[key] = prompting.system_prompt(
                    strategy, series.description, dataset.interval_seconds, horizon,
                    cfg.context_len, cfg.patch_window, cfg.patch_stride, cfg.k, stamp)
            jobs.append(_Job(strategy, horizon, window_id, truths[horizon], systems[key],
                             sequence, block if strategy.uses_neighbors else None))
    return jobs


def _bundle(job: _Job) -> PromptBundle:
    return PromptBundle(
        system=job.system,
        user=prompting.user_prompt(job.sequence, job.horizon, job.neighbors),
        strategy=job.strategy,
        window_id=job.window_id,
        horizon=job.horizon,
    )


def _window_result(gateway: Gateway, cfg: RunConfig, job: _Job) -> WindowResult:
    """The one place a window's result is built: join the user message, dispatch,
    parse and score one job. A TsfError costs this window only, as
    failed:<its name>; an answered window's tokens and latency count either way.
    A window without candidates fails by its EmptyPool, read and never raised:
    one instance stands in for the window at every strategy and horizon, so
    raising it from several workers would chain their tracebacks onto it."""
    resp, error, status, mse, mae = None, None, "ok", None, None
    if isinstance(job.neighbors, EmptyPool):
        error = job.neighbors
    else:
        try:
            resp = gateway.complete(_bundle(job))
            try:
                values = parse_prediction(resp.text, job.horizon)
            except WrongCount:
                if not cfg.lenient:
                    raise
                values = parse_prediction(resp.text, job.horizon, lenient=True)
                status = "ok:repaired"
            mse, mae = evaluation.mse(values, job.truth), evaluation.mae(values, job.truth)
        except TsfError as e:
            error = e
    return WindowResult(
        window_id=job.window_id,
        mse=mse,
        mae=mae,
        input_tokens=resp.input_tokens if resp else 0,
        output_tokens=resp.output_tokens if resp else 0,
        latency_seconds=resp.latency_seconds if resp else 0.0,
        parse_status=status if error is None else f"failed:{type(error).__name__}",
    )


def draw_starts(dataset: Dataset, cfg: RunConfig) -> Sequence[int]:
    """The window starts a run scores: one subsample, for every series on the
    dataset's one clock, of the starts valid at the run's longest horizon, so
    every horizon scores the same windows."""
    return _subsample(window_starts(dataset, cfg.context_len, max(cfg.horizons),
                                    cfg.eval_stride), cfg.max_windows, cfg.seed)


def bundles_for_run(dataset: Dataset, cfg: RunConfig) -> list[PromptBundle]:
    """Every prompt bundle a run would dispatch, in plan order."""
    return [_bundle(job) for job in _plan(dataset, cfg)
            if not isinstance(job.neighbors, EmptyPool)]


def _aggregate(
    dataset: Dataset, cfg: RunConfig, cell: tuple[Strategy, int], results: list[WindowResult]
) -> Union[RunReport, RunFailure]:
    strategy, horizon = cell
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
        return RunFailure(strategy.value, horizon, str(e))


def run(dataset: Dataset, cfg: RunConfig) -> RunOutcome:
    """Dispatch the whole plan through workers that pull job indices from one
    queue; the plan carries every job's prompt text. The calling thread is a
    worker. An http backend, which waits on the network, adds a pool of
    `parallelism - 1` threads, so `parallelism` requests are in flight; the
    offline backends hold the GIL and never wait, so they dispatch on the
    calling thread alone. The worker that finishes a cell's last job aggregates
    the cell and lets its window results go. An error that escapes a job, a
    Ctrl-C on the calling thread among them, stops every worker before its next
    job, and run raises the first once the helpers have joined: an interrupted
    live run dispatches at most `parallelism - 1` more windows, each up to
    `max_retries` attempts.
    The plan is built before the gateway, so a run that fails while planning
    leaves a fixture file it would record to untouched."""
    cells = _cells(cfg)
    jobs = _plan(dataset, cfg)
    gateway = Gateway(cfg.backend)
    n = len(jobs) // max(1, len(cells))  # every cell scores the same windows
    results = [[None] * n for _ in cells]
    left = [n] * len(cells)
    # with no windows at all, every cell fails at once; else its last worker aggregates it
    outcomes = [_aggregate(dataset, cfg, cell, []) if not n else None for cell in cells]
    lock = threading.Lock()
    todo: queue.SimpleQueue[int] = queue.SimpleQueue()
    for i in range(len(jobs)):
        todo.put(i)
    # what escaped the workers, in the order it escaped; once it is non-empty no worker takes a job
    errors: list[BaseException] = []

    def work() -> None:
        try:
            while not errors:
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
        except BaseException as e:  # a Ctrl-C on the calling thread among them; run re-raises it
            errors.append(e)

    # the calling thread is one worker; only http waits on I/O, so only it gets more
    helpers = max(1, cfg.backend.parallelism) - 1 if cfg.backend.kind is BackendKind.HTTP else 0
    if helpers:  # imported here, so an offline run never loads concurrent.futures
        from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=helpers) if helpers else contextlib.nullcontext() as ex:
        for _ in range(helpers):
            ex.submit(work)  # work raises nothing: what escapes a job goes to errors
        work()
    if errors:  # every helper has joined, each after at most the job it held
        raise errors[0]
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
