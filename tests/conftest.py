import math

import numpy as np

from tsf.dataset import Dataset, Series
from tsf.errors import EmptyPool, LengthMismatch

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


def enumerate_candidates(ds, target, L, distance=euclidean):
    """(series id, start, distance(window values, target context)) of every
    length-L window, of every series, that ends before the context of target,
    the window (series id, start) of ds, begins, found by checking each start
    in turn."""
    target_id, target_start = target
    context = window_values(ds, target_id, target_start, L)
    return [
        (s.id, start, distance(tuple(s.values[start : start + L].tolist()), context))
        for s in ds.series
        for start in range(len(ds.timestamps) - L + 1)
        if ds.timestamps[start + L - 1] < ds.timestamps[target_start]
    ]


def window_values(ds, series_id, start, length):
    """The values of one series' window, as a tuple of floats."""
    (series,) = [s for s in ds.series if s.id == series_id]
    return tuple(series.values[start : start + length].tolist())


def reference_distance(a, b, znorm):
    """One candidate's distance as a 1-D computation: z-normalise each side
    ((x - mean) / std, or x - mean when std is 0), then sqrt of the summed
    squared differences."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if znorm:
        a, b = [x - x.mean() if x.std() == 0 else (x - x.mean()) / x.std() for x in (a, b)]
    return float(np.sqrt(((a - b) ** 2).sum()))


def brute_force_neighbors(ds, target, L, k, znorm=False):
    """The k nearest (series id, start, distance) of enumerate_candidates by
    reference_distance, sorted by (distance, series id, start). Raises
    EmptyPool when there are none."""
    candidates = enumerate_candidates(ds, target, L, lambda a, b: reference_distance(a, b, znorm))
    if not candidates:
        raise EmptyPool(f"no candidates precede {target[0]}:{target[1]}")
    return tuple(sorted(candidates, key=lambda e: (e[2], e[0], e[1]))[:k])


def fresh_bundle(cfg, dataset, window, horizon, strategy):
    """The bundle of one job, the window (series id, start) at horizon, from a
    brute-force neighbor search and rendering of its own: the oracle for the
    bundles a run builds from one shared search and shared text. Raises
    EmptyPool for a neighbor strategy on a window without candidates."""
    L, shown = cfg.context_len, None
    if strategy.uses_neighbors:
        shown = [window_values(dataset, sid, start, L)
                 for sid, start, _ in brute_force_neighbors(dataset, window, L, cfg.k,
                                                            cfg.znorm_neighbors)]
    return compose(strategy, dataset, window, horizon, L, cfg.patch_window, cfg.patch_stride,
                   cfg.k, shown)
