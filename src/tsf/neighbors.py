"""Nearest-neighbor retrieval of earlier context windows by Euclidean distance:
an exhaustive scan, one array operation per series over a sliding window view."""

from __future__ import annotations

import math
from bisect import bisect_left
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


@dataclass(frozen=True, eq=False)
class Pool:
    """Candidates by series: parts of (series_id, starts, rows); rows[i] starts at starts[i]."""

    parts: tuple[tuple[str, np.ndarray, np.ndarray], ...]

    def __len__(self) -> int:
        return sum(len(starts) for _, starts, _ in self.parts)

    def __iter__(self):
        return (CandidateWindow(sid, start, tuple(row.tolist()))
                for sid, starts, rows in self.parts for start, row in zip(starts.tolist(), rows))


def build_pool(dataset: Dataset, target: EvalWindow,
               arrays: Sequence[np.ndarray] | None = None) -> Pool:
    """Every length-L window of every series that ends before the target context
    begins; `arrays` may hold each series' values as float64, converted once."""
    L = len(target.context)
    parts = []
    for j, series in enumerate(dataset.series):
        # a window must end strictly before the target context begins
        n = bisect_left(series.timestamps, target.context_timestamps[0]) - L + 1
        if n > 0:
            values = arrays[j] if arrays is not None else np.asarray(series.values, dtype=float)
            parts.append((series.id, np.arange(n), sliding_window_view(values, L)[:n]))
    if not parts:
        raise EmptyPool(f"no candidate windows precede target at {target.series_id!r}"
                        f" start {target.context_start}")
    return Pool(tuple(parts))


def euclidean(a: Sequence[float], b: Sequence[float]) -> float:
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def _znorm(x: np.ndarray) -> np.ndarray:
    """Row-wise (x - mean) / std, or x - mean where std is 0."""
    x = np.ascontiguousarray(x)  # each row reduces as a 1-D call on it would
    z = x - x.mean(axis=-1, keepdims=True)
    sd = x.std(axis=-1, keepdims=True)
    return np.divide(z, sd, out=z, where=sd != 0)


def top_k(target: EvalWindow, pool: Pool, k: int = 5, znorm: bool = False) -> NeighborSet:
    """k nearest candidates; ties broken by (series_id, start_index)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not len(pool):
        raise EmptyPool("candidate pool is empty")
    norm = _znorm if znorm else np.asarray
    t = norm(np.asarray(target.context, dtype=float))
    dists = [np.sqrt(((norm(rows) - t) ** 2).sum(axis=1)) for _, _, rows in pool.parts]
    m = min(k, len(pool)) - 1
    kth = np.partition(np.concatenate(dists), m)[m]
    # rank every candidate at or below the k-th distance, so ties stay exact
    ranked = sorted((float(d[i]), series_id, int(starts[i]), tuple(rows[i].tolist()))
                    for (series_id, starts, rows), d in zip(pool.parts, dists)
                    for i in np.flatnonzero(d <= kth))
    return NeighborSet(k=k, entries=tuple((CandidateWindow(*c), d) for d, *c in ranked[:k]))
