"""Nearest-neighbor retrieval of earlier context windows by Euclidean distance:
an exhaustive search, by filter and refine, in one pass over a sliding window
view of all series at once, shared by every target of one search. The expanded
form |q|^2 + |v|^2 - 2 q.v, one matrix product per chunk of candidates with one
rounding margin per target, only prunes; the exact sqrt(sum((v - q)^2)) decides
every distance returned and their order."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .dataset import Dataset
from .errors import EmptyPool

# What bounds the search's transient memory. _CHUNK_ELEMENTS: elements in one
# chunk's (L + active targets) x candidates arrays while the targets are at most
# L, in its candidates x L rows alone beyond that, in each copy that partitions
# the (targets x candidates) block, and rows x L in one gather of candidates to
# refine. _PAIR_ELEMENTS: that block once the targets outnumber L, so that a
# chunk does not shrink with their count.
_CHUNK_ELEMENTS = 1 << 16
_PAIR_ELEMENTS = 1 << 19


def _znorm(x: np.ndarray) -> np.ndarray:
    """Row-wise (x - mean) / std, or x - mean where std is 0, as a new array.
    Bit for bit what x.mean and x.std give, each row reduced as a 1-D call on
    it would be: std is sqrt(sum(z * z) / L), with z * z squared into a
    contiguous copy of x."""
    x = np.array(x, dtype=float)
    z = x - x.mean(axis=-1, keepdims=True)
    sd = np.sqrt(np.multiply(z, z, out=x).sum(axis=-1, keepdims=True) / x.shape[-1])
    sd[sd == 0] = 1  # z / 1 is z
    return np.divide(z, sd, out=z)


def search(dataset: Dataset, targets: Sequence[tuple[str, int]], context_len: int, k: int = 5,
           znorm: bool = False) -> list[tuple[tuple[str, int, float], ...] | EmptyPool]:
    """Each target's k nearest candidates, as (series id, start, distance)
    entries, nearest first, ties broken by (series id, start); a target
    without candidates gets an EmptyPool in their place.

    A window is a position, (series id, start), of L = context_len values of
    its series. A target's candidates are the windows of every series that end
    before its context begins: on the dataset's one clock, the first
    start - L + 1 windows of each series. One window view over the
    prefixes of every series, stacked in id order, is built per call, and read
    in chunks of window starts across all series; with znorm, each chunk is
    z-normalised as it is read.

    Filter and refine: per chunk, one matrix product gives each target q the
    expanded form e = |q|^2 + |v|^2 - 2 q.v of every row v (-2 q is exact).
    With u = 2**-53, eta = 2**-1074 and P = (|q| + |v|)^2, e and the exact sum
    of squares each differ from the true squared distance by at most
    (L + 2)(u P + eta) (Higham, "Accuracy and Stability of Numerical
    Algorithms", 2nd ed., sections 2.1 and 3.1: L rounded products, sums of L
    terms and two more operations; eta for each product that underflows);
    6 u P + 4 eta more keeps apart any two candidates whose exact distances
    sqrt could round to one double, and 4 u P covers the rounding of P, the
    margin and the bounds: (2L + 14)(u P + eta) in all. Each target takes one
    margin per chunk, M = 4(L + 8)(u P + eta) with P from the chunk's largest
    row norm (NaN rows aside), so about twice that for every row of the chunk.
    It keeps the k smallest upper bounds e + M seen so far, folding in each
    chunk's own k smallest before the chunk is filtered, and refines only the
    rows whose e is not above the k-th of them plus M; the one rounding of that
    sum, below u e for a row near it, is within the 4 u P. A pruned row is
    beaten by k others, so the exact sqrt(sum((v - q)^2)) of the rest ranks
    them as the exhaustive scan does, bit for bit. Where 4 P is finite no sum
    in e overflows; where it is not (norms from about 1e153 up), M is inf and
    the target refines the whole chunk. A NaN row (z-normalised cells whose
    sum overflows) is refined, and its NaN distance is never a neighbor."""
    L, values = context_len, {s.id: s.values for s in dataset.series}
    if k < 1 or not all(0 <= start <= len(dataset.timestamps) - L for _, start in targets):
        raise ValueError(f"k must be >= 1, and every target a whole window of {L} values")
    if not targets:
        return []
    # targets by falling cut, so the ones a chunk of candidates reaches are a prefix
    order = sorted(range(len(targets)), key=lambda i: -targets[i][1])
    ordered = [targets[i] for i in order]
    cuts = np.array([start - L + 1 for _, start in ordered])
    queries = np.stack([values[sid][start:start + L] for sid, start in ordered])
    if znorm:
        queries = _znorm(queries)
    n_max, S = max(int(cuts[0]), 0), len(dataset.series)
    with np.errstate(over="ignore", invalid="ignore"):
        qn, q2 = np.einsum("ij,ij->i", queries, queries), -2 * queries
        qa2 = 2 * np.sqrt(qn)
    # per target: the smallest upper bounds seen, k of them or one per candidate
    best = np.full((len(targets), min(k, n_max * S)), np.inf)
    kb = best.shape[1]
    # ids are distinct, so in id order a series' index is its rank by id
    series = sorted(dataset.series, key=lambda s: s.id)
    # (series, start, L): every candidate window of every series
    view = sliding_window_view(np.stack([s.values[:n_max + L - 1] for s in series])
                               if n_max else np.empty((S, L)), L, axis=1)
    step = max(1, _CHUNK_ELEMENTS // L)
    # columns of (target slot, distance, series index, start)
    kept, n_kept = [np.empty((4, 0))], 0
    c0 = 0
    while c0 < n_max:
        # the targets whose cut is past c0; the chunk ends at or before the first
        # of their cuts, so every row of it is a candidate of each of them
        na = int(np.count_nonzero(cuts > c0))
        per_row = L + na if na <= L else L
        width = min(_CHUNK_ELEMENTS // (per_row * S), _PAIR_ELEMENTS // (na * S))
        c1 = min(int(cuts[na - 1]), c0 + max(1, width))
        rows = (_znorm(view[:, c0:c1]) if znorm else
                np.ascontiguousarray(view[:, c0:c1])).reshape(-1, L)
        with np.errstate(over="ignore", invalid="ignore"):
            e = q2[:na] @ rows.T
            e += qn[:na, None]
            vn = np.einsum("ij,ij->i", rows, rows)
            e += vn
            m = qa2[:na] + 2 * math.sqrt(np.fmax.reduce(vn))
            margin = ((L + 8) * (m * m * 2.0**-53 + 4 * 2.0**-1074))[:, None]
            # only a target whose nearest row here beats its k-th bound takes in the
            # chunk's k smallest; they are partitioned a block of targets at a time
            moved = np.flatnonzero(np.fmin.reduce(e, axis=1) + margin[:, 0] < best[:na, -1])
            kc, tb = min(kb, len(rows)), max(1, _CHUNK_ELEMENTS // len(rows))
            for t in range(0, len(moved), tb):
                blk = moved[t:t + tb]
                low = e[blk]
                low.partition(kc - 1, axis=1)
                best[blk] = np.sort(np.concatenate([best[blk], low[:, :kc] + margin[blk]], axis=1),
                                    axis=1)[:, :kb]
            above = np.greater(e, best[:na, kb - 1:] + margin)
            slot, at = np.divmod(np.flatnonzero(np.logical_not(above, out=above)), len(rows))
        for g in range(0, len(slot), step):
            s, a = slot[g:g + step], at[g:g + step]
            j, start = np.divmod(a, c1 - c0)
            kept.append([s, np.sqrt(((rows[a] - queries[s]) ** 2).sum(axis=1)), j, start + c0])
            n_kept += len(s)
        if n_kept > _CHUNK_ELEMENTS:  # many ties
            kept = [_first_k(np.concatenate(kept, axis=1), k)]
            n_kept = kept[0].shape[1]
        c0 = c1
    first = _first_k(np.concatenate(kept, axis=1), k)
    ids = [s.id for s in series]
    found: list[list] = [[] for _ in targets]
    for p, j, start, dist in zip(*first[[0, 2, 3]].astype(np.intp).tolist(), first[1].tolist()):
        found[order[p]].append((ids[j], start, dist))
    return [tuple(entries) if entries else
            EmptyPool(f"no candidate windows precede target at {sid!r} start {start}")
            for (sid, start), entries in zip(targets, found)]


def _first_k(kept: np.ndarray, k: int) -> np.ndarray:
    """The columns of kept that are among the first k of their target slot by
    (distance, series index, start), the order a sort of such tuples gives,
    sorted that way. A NaN distance (z-normalised values whose sum
    overflows) is never a neighbor."""
    kept = kept[:, ~np.isnan(kept[1])]
    kept = kept[:, np.lexsort(kept[::-1])]
    slot = kept[0]
    return kept[:, np.arange(len(slot)) - np.searchsorted(slot, slot) < k]
