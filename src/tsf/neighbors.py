"""Nearest-neighbor retrieval of earlier context windows by Euclidean distance:
an exhaustive scan over a sliding window view of each series, shared by every
target of one search."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset, EvalWindow
from .errors import EmptyPool, LengthMismatch


@dataclass(frozen=True)
class CandidateWindow:
    series_id: str
    start_index: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class NeighborSet:
    k: int
    entries: tuple[tuple[CandidateWindow, float], ...]


def _znorm(x: np.ndarray) -> np.ndarray:
    """Row-wise (x - mean) / std, or x - mean where std is 0."""
    x = np.ascontiguousarray(x)  # each row reduces as a 1-D call on it would
    z = x - x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return np.divide(z, sd, out=z, where=sd != 0)


def search(dataset: Dataset, targets: Sequence[EvalWindow], k: int = 5,
           znorm: bool = False) -> list[NeighborSet | EmptyPool]:
    """Each target's k nearest candidates, ties broken by (series_id, start_index).

    A target's candidates are the length-L windows of every series that end
    before its context begins: with timestamps shared across the dataset, the
    first context_start - L + 1 windows of each series. Each series' window view
    is built, and z-normalised, once per call and cut to each target's prefix.
    A target without candidates gets an EmptyPool in its place."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not targets:
        return []
    L = len(targets[0].context)
    if any(len(t.context) != L for t in targets):
        raise LengthMismatch("targets of one search must share a context length")
    norm = _znorm if znorm else np.asarray
    cuts = [t.context_start - L + 1 for t in targets]
    queries = [norm(np.asarray(t.context, dtype=float)) for t in targets]
    # per target: (distance, series_id, start, series index) of every candidate at
    # or below its series' k-th distance, a superset of the k nearest overall
    kept: list[list] = [[] for _ in targets]
    n_max = max(cuts)
    if n_max > 0:
        for j, series in enumerate(dataset.series):
            view = norm(sliding_window_view(series.values, L)[:n_max])
            for n, t, found in zip(cuts, queries, kept):
                if n > 0:
                    d = np.sqrt(((view[:n] - t) ** 2).sum(axis=1))
                    m = min(k, n) - 1
                    kth = np.partition(d, m)[m]
                    found += [(float(d[i]), series.id, i, j)
                              for i in np.flatnonzero(d <= kth).tolist()]
            del view  # only one series' view is alive at a time
    out: list[NeighborSet | EmptyPool] = []
    for target, found in zip(targets, kept):
        if not found:
            out.append(EmptyPool(f"no candidate windows precede target at"
                                 f" {target.series_id!r} start {target.context_start}"))
            continue
        found.sort()
        out.append(NeighborSet(k=k, entries=tuple(
            (CandidateWindow(sid, start,
                             tuple(dataset.series[j].values[start:start + L].tolist())), d)
            for d, sid, start, j in found[:k])))
    return out
