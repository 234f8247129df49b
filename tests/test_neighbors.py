import math
import random

import pytest

from tsf.dataset import EvalWindow
from tsf.errors import EmptyPool, LengthMismatch
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tsf.neighbors import CandidateWindow, Pool, build_pool, euclidean, top_k

from conftest import make_dataset, make_series


def window_at(series, start, context_len, horizon=1):
    return EvalWindow(
        series_id=series.id,
        context=series.values[start : start + context_len],
        context_start=start,
        horizon=horizon,
        truth=series.values[start + context_len : start + context_len + horizon],
        context_timestamps=series.timestamps[start : start + context_len],
    )


def pool_of(candidates):
    """A Pool holding hand-built candidates, grouped by series in list order."""
    by_series = {}
    for c in candidates:
        by_series.setdefault(c.series_id, []).append(c)
    return Pool(tuple(
        (sid, np.array([c.start_index for c in cs]), np.array([c.values for c in cs], dtype=float))
        for sid, cs in by_series.items()
    ))


def brute_force_top_k(target, pool, k):
    ranked = sorted(
        ((c, euclidean(c.values, target.context)) for c in pool),
        key=lambda e: (e[1], e[0].series_id, e[0].start_index),
    )
    return ranked[:k]


class TestEuclidean:
    def test_identical(self):
        assert euclidean([1, 2, 3], [1, 2, 3]) == 0

    def test_3_4_5(self):
        assert euclidean([0, 0], [3, 4]) == 5

    def test_symmetric(self):
        rng = random.Random(1)
        for _ in range(20):
            a = [rng.uniform(-5, 5) for _ in range(10)]
            b = [rng.uniform(-5, 5) for _ in range(10)]
            assert euclidean(a, b) == euclidean(b, a)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            euclidean([1], [1, 2])


class TestBuildPool:
    def test_no_past(self):
        ds = make_dataset({"a": range(20)})
        target = window_at(ds.series[0], 0, 8)
        with pytest.raises(EmptyPool):
            build_pool(ds, target)

    def test_single_past_window(self):
        L = 8
        ds = make_dataset({"a": range(2 * L + 1)})
        target = window_at(ds.series[0], L, L)
        pool = build_pool(ds, target)
        assert [(c.series_id, c.start_index) for c in pool] == [("a", 0)]

    def test_pool_spans_all_features(self):
        ds = make_dataset({"a": range(30), "b": range(100, 130)})
        target = window_at(ds.get("a"), 20, 8)
        pool = build_pool(ds, target)
        assert {c.series_id for c in pool} == {"a", "b"}

    def test_windows_strictly_precede_context(self):
        ds = make_dataset({"a": range(40)})
        target = window_at(ds.series[0], 25, 8)
        for c in pool_ends(ds, target):
            assert c <= 25 - 8

    def test_stride(self):
        ds = make_dataset({"a": range(40)})
        target = window_at(ds.series[0], 30, 8)
        pool = build_pool(ds, target, candidate_stride=5)
        assert [c.start_index for c in pool] == [0, 5, 10, 15, 20]


def pool_ends(ds, target):
    return [c.start_index for c in build_pool(ds, target)]


class TestTopK:
    def test_exact_copy_first(self):
        L = 8
        vals = list(range(40))
        vals[10 : 10 + L] = vals[30 : 30 + L]
        s = make_series(vals, series_id="a")
        ds = make_dataset({"a": vals})
        target = window_at(ds.series[0], 30, L, horizon=1)
        ns = top_k(target, build_pool(ds, target), k=3)
        assert ns.entries[0][0].start_index == 10
        assert ns.entries[0][1] == 0.0
        assert s.values[10 : 10 + L] == target.context

    def test_k_saturation(self):
        ds = make_dataset({"a": range(30)})
        target = window_at(ds.series[0], 20, 8)
        pool = build_pool(ds, target)
        ns = top_k(target, pool, k=100)
        assert len(ns.entries) == len(pool)
        dists = [d for _, d in ns.entries]
        assert dists == sorted(dists)

    def test_matches_brute_force_on_random_pool(self):
        rng = random.Random(7)
        L = 16
        target_vals = [rng.uniform(0, 10) for _ in range(L)]
        target = EvalWindow(
            series_id="t",
            context=tuple(target_vals),
            context_start=1000,
            horizon=1,
            truth=(0.0,),
            context_timestamps=tuple(600 * i for i in range(L)),
        )
        pool = [
            CandidateWindow(
                series_id=f"s{rng.randint(0, 3)}",
                start_index=i,
                values=tuple(rng.uniform(0, 10) for _ in range(L)),
            )
            for i in range(200)
        ]
        ns = top_k(target, pool_of(pool), k=5)
        expected = brute_force_top_k(target, pool, 5)
        assert [(c.series_id, c.start_index) for c, _ in ns.entries] == [
            (c.series_id, c.start_index) for c, _ in expected
        ]
        for (_, d1), (_, d2) in zip(ns.entries, expected):
            assert math.isclose(d1, d2, rel_tol=1e-12, abs_tol=1e-12)

    def test_permutation_invariant(self):
        rng = random.Random(3)
        L = 8
        target = window_at(make_series(range(30), series_id="a"), 20, L)
        pool = [
            CandidateWindow("a", i, tuple(rng.uniform(0, 2) for _ in range(L)))
            for i in range(50)
        ]
        shuffled = pool[:]
        rng.shuffle(shuffled)
        a = top_k(target, pool_of(pool), k=5)
        b = top_k(target, pool_of(shuffled), k=5)
        assert [(c.series_id, c.start_index) for c, _ in a.entries] == [
            (c.series_id, c.start_index) for c, _ in b.entries
        ]

    def test_far_candidate_does_not_change_result(self):
        rng = random.Random(11)
        L = 8
        target = window_at(make_series(range(30), series_id="a"), 20, L)
        pool = [
            CandidateWindow("a", i, tuple(rng.uniform(0, 2) for _ in range(L)))
            for i in range(20)
        ]
        before = top_k(target, pool_of(pool), k=5)
        far = CandidateWindow("z", 0, tuple(1e6 for _ in range(L)))
        after = top_k(target, pool_of(pool + [far]), k=5)
        assert before.entries == after.entries

    def test_tie_break_lexicographic(self):
        L = 4
        target = window_at(make_series(range(30), series_id="m"), 20, L)
        same = tuple(float(v) for v in target.context)
        pool = [
            CandidateWindow("b", 5, same),
            CandidateWindow("a", 9, same),
            CandidateWindow("a", 2, same),
        ]
        ns = top_k(target, pool_of(pool), k=3)
        assert [(c.series_id, c.start_index) for c, _ in ns.entries] == [
            ("a", 2),
            ("a", 9),
            ("b", 5),
        ]

    def test_empty_pool(self):
        target = window_at(make_series(range(30), series_id="a"), 20, 8)
        with pytest.raises(EmptyPool):
            top_k(target, [], k=5)


def enumerate_candidates(ds, target, stride=1):
    """Every length-L window, of every series, that ends before the target
    context begins, found by checking each start in turn."""
    L = len(target.context)
    return [
        CandidateWindow(s.id, start, s.values[start : start + L])
        for s in ds.series
        for start in range(0, len(s) - L + 1, stride)
        if s.timestamps[start + L - 1] < target.context_timestamps[0]
    ]


def reference_distance(a, b, znorm):
    """One candidate's distance as a 1-D computation: z-normalise each side
    ((x - mean) / std, or x - mean when std is 0), then sqrt of the summed
    squared differences."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if znorm:
        a, b = [x - x.mean() if x.std() == 0 else (x - x.mean()) / x.std() for x in (a, b)]
    return float(np.sqrt(((a - b) ** 2).sum()))


@st.composite
def neighbor_cases(draw, values):
    """(dataset, target): 1-4 series whose dataset order is a shuffle of
    their ids, and a target whose context is copied into up to three earlier
    windows, so that distances tie exactly."""
    ids = draw(st.permutations([f"s{j}" for j in range(draw(st.integers(1, 4)))]))
    length = draw(st.integers(8, 60))
    L = draw(st.integers(2, min(12, length - 2)))
    cols = {sid: draw(st.lists(values, min_size=length, max_size=length)) for sid in ids}
    target_id = draw(st.sampled_from(ids))
    cstart = draw(st.integers(0, length - L - 1))
    context = cols[target_id][cstart : cstart + L]
    for _ in range(draw(st.integers(0, 3))):
        if cstart >= L:
            where = draw(st.integers(0, cstart - L))
            cols[draw(st.sampled_from(ids))][where : where + L] = context
    ds = make_dataset(cols)
    return ds, window_at(ds.get(target_id), cstart, L)


FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
QUARTERS = st.integers(-12, 12).map(lambda v: v / 4)  # exact sums: many ties


class TestBruteForceOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.one_of(neighbor_cases(FLOATS), neighbor_cases(QUARTERS)),
        k=st.integers(1, 8),
        stride=st.integers(1, 4),
        znorm=st.booleans(),
    )
    def test_top_k_equals_sorted_brute_force(self, case, k, stride, znorm):
        ds, target = case
        candidates = enumerate_candidates(ds, target, stride)
        if not candidates:
            with pytest.raises(EmptyPool):
                build_pool(ds, target, candidate_stride=stride)
            return
        pool = build_pool(ds, target, candidate_stride=stride)
        assert len(pool) == len(candidates)
        assert list(pool) == candidates
        expected = sorted(
            ((reference_distance(c.values, target.context, znorm), c.series_id, c.start_index, c.values)
             for c in candidates),
            key=lambda e: e[:3],
        )[:k]
        got = top_k(target, pool, k=k, znorm=znorm)
        assert [(d, c.series_id, c.start_index, c.values) for c, d in got.entries] == expected

    @settings(max_examples=100, deadline=None)
    @given(case=neighbor_cases(QUARTERS), k=st.integers(1, 8), stride=st.integers(1, 3))
    def test_plain_distances_equal_euclidean(self, case, k, stride):
        """On quarter-step values every sum is exact, so the pure-Python
        euclidean oracle is bit-identical whatever order it adds in."""
        ds, target = case
        candidates = enumerate_candidates(ds, target, stride)
        if not candidates:
            return
        got = top_k(target, build_pool(ds, target, stride), k=k)
        assert [(c.series_id, c.start_index, d) for c, d in got.entries] == [
            (c.series_id, c.start_index, d) for c, d in brute_force_top_k(target, candidates, k)
        ]

