import math

import numpy as np

from tsf.dataset import Dataset, Series
from tsf.errors import EmptyPool, LengthMismatch
from tsf.neighbors import CandidateWindow, NeighborSet

from golden_util import compose


def make_dataset(columns, name="synthetic", interval=600, start_ts=0, descriptions=None):
    """columns: dict of series_id -> values (all same length), on one clock of
    stamps start_ts, start_ts + interval, ...; descriptions: dict of series_id
    -> description (default: the id)."""
    descriptions = descriptions or {}
    n = len(next(iter(columns.values())))
    return Dataset(
        name=name,
        timestamps=tuple(start_ts + interval * i for i in range(n)),
        series=tuple(Series(sid, descriptions.get(sid, sid), tuple(float(v) for v in vals))
                     for sid, vals in columns.items()),
    )


def euclidean(a, b) -> float:
    """Pure-Python Euclidean distance."""
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))


def enumerate_candidates(ds, target):
    """Every length-L window, of every series, that ends before the target
    context begins, found by checking each start in turn."""
    L = len(target.context)
    return [
        CandidateWindow(s.id, start, tuple(s.values[start : start + L].tolist()))
        for s in ds.series
        for start in range(len(ds.timestamps) - L + 1)
        if ds.timestamps[start + L - 1] < target.start_timestamp
    ]


def reference_distance(a, b, znorm):
    """One candidate's distance as a 1-D computation: z-normalise each side
    ((x - mean) / std, or x - mean when std is 0), then sqrt of the summed
    squared differences."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if znorm:
        a, b = [x - x.mean() if x.std() == 0 else (x - x.mean()) / x.std() for x in (a, b)]
    return float(np.sqrt(((a - b) ** 2).sum()))


def brute_force_neighbors(ds, target, k, znorm=False) -> NeighborSet:
    """The k nearest of enumerate_candidates by reference_distance, sorted by
    (distance, series_id, start_index). Raises EmptyPool when there are none."""
    candidates = enumerate_candidates(ds, target)
    if not candidates:
        raise EmptyPool(f"no candidates precede {target.series_id}:{target.context_start}")
    ranked = sorted(((reference_distance(c.values, target.context, znorm), c) for c in candidates),
                    key=lambda e: (e[0], e[1].series_id, e[1].start_index))
    return NeighborSet(k=k, entries=tuple((c, d) for d, c in ranked[:k]))


def fresh_bundle(cfg, dataset, series, window, strategy):
    """One job's bundle from a brute-force neighbor search and rendering of its
    own: the oracle for the bundles a run builds from one shared search and
    shared text. Raises EmptyPool for a neighbor strategy on a window without
    candidates."""
    neighbors = None
    if strategy.uses_neighbors:
        neighbors = brute_force_neighbors(dataset, window, cfg.k, cfg.znorm_neighbors)
    return compose(strategy, window, series.description, dataset.interval_seconds,
                   cfg.patch_window, cfg.patch_stride, cfg.k, neighbors)
