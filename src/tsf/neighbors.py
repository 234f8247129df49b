"""Nearest-neighbor retrieval of earlier context windows by Euclidean distance:
an exhaustive search over a sliding window view of each series, shared by every
target of one search, by filter and refine. The expanded form
|q|^2 + |v|^2 - 2 q.v, one matrix product per chunk of candidates, only prunes;
the exact sqrt(sum((v - q)^2)) decides every distance returned and their order."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset, EvalWindow
from .errors import EmptyPool, LengthMismatch

# Elements in one chunk's (active targets + L) x candidates arrays, and rows x L
# in one gather of candidates to refine: what bounds the search's transient memory.
_CHUNK_ELEMENTS = 1 << 16


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
    """Row-wise (x - mean) / std, or x - mean where std is 0, as a new array.
    Bit for bit what x.mean and x.std give, each row reduced as a 1-D call on
    it would be: std is sqrt(sum(z * z) / L), with z * z squared into a
    contiguous copy of x."""
    x = np.array(x, dtype=float)
    z = x - x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.multiply(z, z, out=x).sum(axis=-1, keepdims=True) / x.shape[-1])
    return np.divide(z, sd, out=z, where=sd != 0)


def _bounds(queries: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds on the exact formula's squared distance between
    every query and every candidate row, from one matrix product.

    With u = 2**-53, eta = 2**-1074, L the row length and P = (|q| + |v|)^2, the
    expanded form |q|^2 + |v|^2 - 2 q.v and the exact sum of squares each differ
    from the true squared distance by at most (L + 2)(u P + eta) (Higham,
    "Accuracy and Stability of Numerical Algorithms", 2nd ed., sections 2.1 and
    3.1: L rounded products, sums of L terms and two more operations; eta for
    each product that underflows). 6 u P + 4 eta more keeps apart any two
    candidates whose exact distances sqrt could round to one double, and 4 u P
    covers the rounding of P, the margin and the bounds: (2L + 14)(u P + eta)
    in all, taken here as 4(L + 8)(u P + eta), about twice that. A pair whose
    expanded form is not finite (norms from about 1e154 up) gets -inf and inf,
    as an infinite margin gives: it is always refined, never dropped."""
    c = 4 * (queries.shape[1] + 8)
    with np.errstate(over="ignore", invalid="ignore"):
        qn = np.einsum("ij,ij->i", queries, queries)[:, None]
        vn = np.einsum("ij,ij->i", rows, rows)
        hi = queries @ rows.T
        hi *= -2
        hi += qn
        hi += vn
        sure = np.isfinite(hi)
        margin = np.sqrt(qn) + np.sqrt(vn)
        margin *= margin
        margin *= c * 2.0**-53
        margin += c * 2.0**-1074
        lo = hi - margin
        hi += margin
        if not sure.all():
            lo[~sure] = -np.inf
            hi[~sure] = np.inf
    return lo, hi


def search(dataset: Dataset, targets: Sequence[EvalWindow], k: int = 5,
           znorm: bool = False) -> list[NeighborSet | EmptyPool]:
    """Each target's k nearest candidates, ties broken by (series_id, start_index).

    A target's candidates are the length-L windows of every series that end
    before its context begins: with timestamps shared across the dataset, the
    first context_start - L + 1 windows of each series. Each series' window view
    is built once per call and cut to each target's prefix; with znorm, each
    chunk of it is z-normalised as it is read.
    A target without candidates gets an EmptyPool in its place.

    Filter and refine: for each chunk of a series' candidates, one matrix product
    gives every target the expanded form |q|^2 + |v|^2 - 2 q.v, and a margin
    for rounding (see _bounds) turns it into lower and upper bounds on the
    squared distance. Each target keeps the k smallest upper bounds seen so far,
    across series, and only candidates whose lower bound is at or below the
    k-th of them get the exact sqrt(sum((v - q)^2)), which alone ranks them: the
    pruned candidates are beaten by k others, so the result is the exhaustive
    scan's, bit for bit."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not targets:
        return []
    L = len(targets[0].context)
    if any(len(t.context) != L for t in targets):
        raise LengthMismatch("targets of one search must share a context length")
    # targets by falling cut, so the ones a chunk of candidates reaches are a prefix
    order = sorted(range(len(targets)), key=lambda i: -targets[i].context_start)
    cuts = np.array([targets[i].context_start - L + 1 for i in order])
    queries = np.array([targets[i].context for i in order], dtype=float)
    if znorm:
        queries = _znorm(queries)
    n_max = int(cuts[0])
    # per target: the smallest upper bounds seen, k of them or one per candidate
    best = np.full((len(targets), min(k, max(n_max, 0) * len(dataset.series))), np.inf)
    rank = {sid: r for r, sid in enumerate(sorted({s.id for s in dataset.series}))}
    # columns of (target slot, distance, id rank, start, series index)
    kept = [np.empty((5, 0))]
    for j, series in enumerate(dataset.series if n_max > 0 else ()):
        slot, d, start = _refine(sliding_window_view(series.values, L)[:n_max],
                                 queries, cuts, best, znorm)
        kept.append([slot, d, np.full(len(d), rank[series.id]), start, np.full(len(d), j)])
        if sum(len(c[1]) for c in kept) > _CHUNK_ELEMENTS:  # many ties
            kept = [_first_k(np.concatenate(kept, axis=1), k)]
    kept = _first_k(np.concatenate(kept, axis=1), k)
    found: list[list] = [[] for _ in targets]
    for p, d, _, start, j in zip(*kept.tolist()):
        series, start = dataset.series[int(j)], int(start)
        found[order[int(p)]].append((CandidateWindow(
            series.id, start, tuple(series.values[start:start + L].tolist())), d))
    return [NeighborSet(k=k, entries=tuple(entries)) if entries else
            EmptyPool(f"no candidate windows precede target at {t.series_id!r}"
                      f" start {t.context_start}")
            for t, entries in zip(targets, found)]


def _refine(view: np.ndarray, queries: np.ndarray, cuts: np.ndarray,
            best: np.ndarray, znorm: bool) -> np.ndarray:
    """The (target slot, exact distance, start) columns of the candidate rows of
    one series' view that pass the filter, for queries sorted by falling cut.
    Copies the view one chunk of rows at a time, z-normalising each chunk when
    znorm is set, so no copy of the whole view is made. Folds each chunk's
    upper bounds into best, every target's smallest upper bounds so far,
    before that chunk is filtered."""
    L, kb = queries.shape[1], best.shape[1]
    step = max(1, _CHUNK_ELEMENTS // L)
    found = [np.empty((3, 0))]
    c0 = 0
    while c0 < len(view):
        # the targets whose cut is past c0; the chunk ends at or before the first
        # of their cuts, so every row of it is a candidate of each of them
        na = int(np.count_nonzero(cuts > c0))
        c1 = min(len(view), int(cuts[na - 1]), c0 + max(1, _CHUNK_ELEMENTS // (L + na)))
        rows = _znorm(view[c0:c1]) if znorm else np.ascontiguousarray(view[c0:c1])
        lo, hi = _bounds(queries[:na], rows)
        best[:na] = np.partition(np.concatenate([best[:na], hi], axis=1),
                                 kb - 1, axis=1)[:, :kb]
        slot, at = np.nonzero(lo <= best[:na, kb - 1:])
        for g in range(0, len(slot), step):
            s, a = slot[g:g + step], at[g:g + step]
            found.append(np.stack([s, np.sqrt(((rows[a] - queries[s]) ** 2).sum(axis=1)),
                                   a + c0]))
        c0 = c1
    return np.concatenate(found, axis=1)


def _first_k(kept: np.ndarray, k: int) -> np.ndarray:
    """The columns of kept that are among the first k of their target slot by
    (distance, series id, start, series index), the order a sort of such tuples
    gives, sorted that way. A NaN distance (z-normalised values whose sum
    overflows) is never a neighbor."""
    kept = kept[:, ~np.isnan(kept[1])]
    kept = kept[:, np.lexsort(kept[::-1])]
    slot = kept[0]
    return kept[:, np.arange(len(slot)) - np.searchsorted(slot, slot) < k]
