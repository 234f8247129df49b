import pytest

from tsf.dataset import Dataset, Series
from tsf.neighbors import build_pool, top_k
from tsf.prompting import PromptText


def make_series(values, series_id="s", interval=600, description=None, start_ts=0):
    return Series(
        id=series_id,
        description=description or series_id,
        interval_seconds=interval,
        timestamps=tuple(start_ts + interval * i for i in range(len(values))),
        values=tuple(float(v) for v in values),
    )


def make_dataset(columns, name="synthetic", interval=600):
    """columns: dict of series_id -> values (all same length)."""
    return Dataset(
        name=name,
        series=tuple(
            make_series(vals, series_id=sid, interval=interval)
            for sid, vals in columns.items()
        ),
    )


def fresh_bundle(cfg, dataset, series, window, strategy):
    """One job's bundle from a neighbor search and prompt text of its own: the
    oracle for the bundles a run builds from shared searches and shared text.
    Raises EmptyPool for a neighbor strategy on a window without candidates."""
    neighbors = None
    if strategy.uses_neighbors:
        pool = build_pool(dataset, window, cfg.candidate_stride)
        neighbors = top_k(window, pool, cfg.k, znorm=cfg.znorm_neighbors)
    return PromptText().assemble(
        strategy, window, series.description, series.interval_seconds,
        cfg.patch_window, cfg.patch_stride, cfg.k, neighbors,
    )


@pytest.fixture
def linear_series():
    return make_series([0.5 * i for i in range(130)], series_id="lin")


@pytest.fixture
def constant_series():
    return make_series([5.0] * 130, series_id="const")
