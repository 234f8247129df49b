import hashlib
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tsf import neighbors
from tsf.errors import EmptyPool, LengthMismatch
from tsf.llmgateway import BackendConfig, BackendKind, bundle_hash
from tsf.neighbors import search
from tsf.prompting import Strategy
from tsf.runner import RunConfig, bundles_for_run

from conftest import (
    brute_force_neighbors,
    enumerate_candidates,
    euclidean,
    make_dataset,
    reference_distance,
    window_values,
)


def nearest(ds, target, L, k=5, znorm=False):
    """One target's search result."""
    (found,) = search(ds, [target], L, k, znorm)
    return found


def keys(found):
    return [(sid, start) for sid, start, _ in found]


def z_distance(a, b):
    return reference_distance(a, b, znorm=True)


class TestEuclidean:
    """The pure-Python distance oracle."""

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


class TestZnorm:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 1.5, -2.25])),
                           min_size=1, max_size=80),
           L=st.integers(1, 40), start=st.integers(0, 10))
    def test_rows_equal_one_dimensional_mean_and_std(self, values, L, start):
        """Any run of rows of a window view z-normalises, bit for bit, as each
        row's own mean and std give, and the view is left as it was."""
        view = np.lib.stride_tricks.sliding_window_view(np.array(values), min(L, len(values)))
        rows = view[start:]
        before = rows.copy()
        got = neighbors._znorm(rows)
        assert got.shape == rows.shape
        for row, z in zip(rows, got):
            sd = row.std()
            want = row - row.mean() if sd == 0 else (row - row.mean()) / sd
            assert z.tobytes() == want.tobytes()
        assert rows.tobytes() == before.tobytes()


class TestBuildPool:
    """The candidates one target is searched against: every whole window of
    every series that ends before its context begins."""

    def test_no_past(self):
        ds = make_dataset({"a": range(20)})
        assert isinstance(nearest(ds, ("a", 0), 8), EmptyPool)

    def test_single_past_window(self):
        L = 8
        ds = make_dataset({"a": range(2 * L + 1)})
        assert keys(nearest(ds, ("a", L), L, k=100)) == [("a", 0)]

    def test_pool_spans_all_features(self):
        ds = make_dataset({"a": range(30), "b": range(100, 130)})
        assert {sid for sid, _ in keys(nearest(ds, ("a", 20), 8, k=100))} == {"a", "b"}

    def test_windows_strictly_precede_context(self):
        ds = make_dataset({"a": range(40)})
        starts = sorted(start for _, start in keys(nearest(ds, ("a", 25), 8, k=100)))
        assert starts == list(range(25 - 8 + 1))


class TestTopK:
    """The k nearest candidates one target gets, in (distance, series id,
    start) order."""

    def test_exact_copy_first(self):
        L = 8
        vals = list(range(40))
        vals[10 : 10 + L] = vals[30 : 30 + L]
        ds = make_dataset({"a": vals})
        (sid, start, d), *_ = nearest(ds, ("a", 30), L, k=3)
        assert start == 10
        assert d == 0.0
        assert window_values(ds, sid, start, L) == window_values(ds, "a", 30, L)

    def test_k_saturation(self):
        ds = make_dataset({"a": range(30)})
        target = ("a", 20)
        found = nearest(ds, target, 8, k=100)
        assert len(found) == len(enumerate_candidates(ds, target, 8)) < 100
        dists = [d for _, _, d in found]
        assert dists == sorted(dists)

    def test_matches_brute_force_on_random_pool(self):
        rng = random.Random(7)
        L = 16
        ds = make_dataset({f"s{j}": [rng.uniform(0, 10) for _ in range(120)] for j in range(4)})
        target = ("s2", 100)
        found = nearest(ds, target, L, k=5)
        expected = sorted(enumerate_candidates(ds, target, L, euclidean),
                          key=lambda e: (e[2], e[0], e[1]))[:5]
        assert keys(found) == keys(expected)
        for (_, _, d1), (_, _, d2) in zip(found, expected):
            assert math.isclose(d1, d2, rel_tol=1e-12, abs_tol=1e-12)

    def test_permutation_invariant(self):
        rng = random.Random(3)
        cols = {sid: [rng.uniform(0, 2) for _ in range(60)] for sid in "abcd"}
        ds = make_dataset(cols)
        shuffled = make_dataset({sid: cols[sid] for sid in "cadb"})
        targets = [(s.id, 40) for s in ds.series]
        assert search(ds, targets, 8, 5) == search(shuffled, targets, 8, 5)

    def test_far_candidate_does_not_change_result(self):
        rng = random.Random(11)
        cols = {"a": [rng.uniform(0, 2) for _ in range(30)]}
        ds = make_dataset(cols)
        target = ("a", 20)
        before = nearest(make_dataset(cols), target, 8)
        after = nearest(make_dataset({**cols, "z": [1e6] * 30}), target, 8)
        assert before == after

    def test_tie_break_lexicographic(self):
        L = 4
        rng = random.Random(5)
        cols = {sid: [rng.uniform(0, 9) for _ in range(30)] for sid in ("m", "b", "a")}
        context = cols["m"][20 : 20 + L]
        for sid, where in (("b", 5), ("a", 9), ("a", 2)):
            cols[sid][where : where + L] = context
        ds = make_dataset(cols)
        found = nearest(ds, ("m", 20), L, k=3)
        assert keys(found) == [("a", 2), ("a", 9), ("b", 5)]
        assert [d for _, _, d in found] == [0.0] * 3

    def test_empty_pool(self):
        """The last start without a whole earlier window gets an EmptyPool; the
        next start has one candidate per series."""
        L = 8
        ds = make_dataset({"a": range(30), "b": range(30)})
        targets = [("a", L - 1), ("b", L)]
        before, first = search(ds, targets, L, 5)
        assert isinstance(before, EmptyPool)
        assert keys(first) == [("a", 0), ("b", 0)]

    def test_rejects_bad_arguments(self):
        ds = make_dataset({"a": range(30)})
        assert search(ds, [], 8, 5) == []
        with pytest.raises(ValueError):
            search(ds, [("a", 20)], 8, 0)
        for start in (-1, -30, 23, 30):  # windows of 8 start at 0 to 22
            with pytest.raises(ValueError, match="whole window of 8 values"):
                search(ds, [("a", 20), ("a", start)], 8, 5)


@st.composite
def search_cases(draw, values):
    """(dataset, targets, context length): 1-5 series whose dataset order is a
    shuffle of their ids, and 1-6 targets with differing context starts, 0 and others too early
    to have candidates among them. Each target's context is copied into up to
    three earlier windows of any series, so that distances tie exactly within
    and across series."""
    ids = draw(st.permutations([f"s{j}" for j in range(draw(st.integers(1, 5)))]))
    length = draw(st.integers(8, 60))
    L = draw(st.integers(2, min(12, length - 2)))
    cols = {sid: draw(st.lists(values, min_size=length, max_size=length)) for sid in ids}
    picks = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, length - L - 1)),
                          min_size=1, max_size=6))
    for sid, cstart in picks:
        context = cols[sid][cstart : cstart + L]
        for _ in range(draw(st.integers(0, 3))):
            if cstart >= L:
                where = draw(st.integers(0, cstart - L))
                cols[draw(st.sampled_from(ids))][where : where + L] = context
    ds = make_dataset(cols)
    return ds, picks, L


FLOATS = st.floats(-1e3, 1e3, allow_nan=False)
QUARTERS = st.integers(-12, 12).map(lambda v: v / 4)  # exact sums: many ties


class TestBruteForceOracle:
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.one_of(search_cases(FLOATS), search_cases(QUARTERS)),
        k=st.integers(1, 8),
        znorm=st.booleans(),
    )
    def test_top_k_equals_sorted_brute_force(self, case, k, znorm):
        """One search over many targets equals, per target, the sorted brute force
        over every candidate, distances bit for bit."""
        ds, targets, L = case
        for target, got in zip(targets, search(ds, targets, L, k, znorm), strict=True):
            try:
                expected = brute_force_neighbors(ds, target, L, k, znorm)
            except EmptyPool:
                assert isinstance(got, EmptyPool)
                continue
            assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(case=search_cases(QUARTERS), k=st.integers(1, 8))
    def test_plain_distances_equal_euclidean(self, case, k):
        """On quarter-step values every sum is exact, so the pure-Python
        euclidean oracle is bit-identical whatever order it adds in."""
        ds, targets, L = case
        for target, got in zip(targets, search(ds, targets, L, k)):
            ranked = sorted(enumerate_candidates(ds, target, L, euclidean),
                            key=lambda e: (e[2], e[0], e[1]))[:k]
            if not ranked:
                assert isinstance(got, EmptyPool)
                continue
            assert list(got) == ranked


# (base, step): cells are base + step * (a quarter-step number in [-3, 3])
REGIMES = {
    "unit": (0.0, 1.0),
    "expanded form overflows": (1e160, 1e152),  # |q|^2 is inf; exact sums stay finite
    "negative, overflows": (-1e160, 1e152),
    "offset": (1e9, 1e-6),  # |q|^2 - 2 q.v cancels to far below the distances
    "underflow": (0.0, 1e-160),  # squares are subnormal or zero
}


def nudged(x, ulps):
    """x moved by ulps units in the last place."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


@st.composite
def filter_cases(draw, regime, max_length=60):
    """(dataset, targets, context length) whose distances stress the filter's bounds. On top of
    search_cases' shape: cells from one of REGIMES; columns that repeat one short
    pattern (hundreds of exact ties within and across series); constant
    stretches (all-zero rows under z-normalisation); and copies of a target's
    context with one cell a few ulps off (distances that tie or differ by an
    ulp)."""
    base, step = REGIMES[regime]
    ids = draw(st.permutations([f"s{j}" for j in range(draw(st.integers(1, 5)))]))
    length = draw(st.integers(8, max_length))
    L = draw(st.integers(2, min(12, length - 2)))
    quarter = st.integers(-12, 12).map(lambda v: base + step * v / 4)
    if draw(st.booleans()):
        pattern = draw(st.lists(quarter, min_size=1, max_size=3))
        cols = {sid: [pattern[i % len(pattern)] for i in range(length)] for sid in ids}
    else:
        cols = {sid: draw(st.lists(quarter, min_size=length, max_size=length)) for sid in ids}
    for _ in range(draw(st.integers(0, 2))):
        sid, where = draw(st.sampled_from(ids)), draw(st.integers(0, length - L))
        span = min(L + draw(st.integers(0, 4)), length - where)
        cols[sid][where : where + span] = [draw(quarter)] * span
    picks = draw(st.lists(st.tuples(st.sampled_from(ids), st.integers(0, length - L - 1)),
                          min_size=1, max_size=12))
    for sid, cstart in picks:
        context = cols[sid][cstart : cstart + L]
        for _ in range(draw(st.integers(0, 3)) if cstart >= L else 0):
            copy = list(context)
            at = draw(st.integers(0, L - 1))
            copy[at] = nudged(copy[at], draw(st.integers(-2, 2)))
            where = draw(st.integers(0, cstart - L))
            cols[draw(st.sampled_from(ids))][where : where + L] = copy
    ds = make_dataset(cols)
    return ds, picks, L


class TestFilterSafety:
    """The expanded-form filter only prunes: whatever the magnitudes, ties and
    chunking, every search equals the brute force over every candidate, bit for
    bit. `_CHUNK_ELEMENTS` is patched down too, so that candidates span many
    chunks and refine gathers, and the k-th upper bound carries across them."""

    @staticmethod
    def check(ds, targets, L, k, znorm, chunk):
        with mock.patch.object(neighbors, "_CHUNK_ELEMENTS", chunk):
            got = search(ds, targets, L, k, znorm)
        for target, found in zip(targets, got, strict=True):
            try:
                expected = brute_force_neighbors(ds, target, L, k, znorm)
            except EmptyPool:
                assert isinstance(found, EmptyPool)
                continue
            assert found == expected

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), regime=st.sampled_from(sorted(REGIMES)), k=st.integers(1, 8),
           znorm=st.booleans(), chunk=st.sampled_from([1, 30, 200, neighbors._CHUNK_ELEMENTS]))
    def test_equals_brute_force(self, data, regime, k, znorm, chunk):
        self.check(*data.draw(filter_cases(regime)), k, znorm, chunk)

    @pytest.mark.parametrize("regime", sorted(REGIMES))
    @pytest.mark.parametrize("znorm", [False, True], ids=["plain", "znorm"])
    def test_fixed_case_per_regime(self, regime, znorm):
        """One seeded dataset per regime: three series, and each target's
        context copied earlier into every series with one cell 0, 1 or -2 ulps
        off."""
        base, step = REGIMES[regime]
        rng = random.Random(regime)
        cols = {sid: [base + step * rng.randint(-12, 12) / 4 for _ in range(80)] for sid in "cab"}
        starts = (60, 66, 71)
        for i, (sid, start) in enumerate(zip("cab", starts)):
            context = cols[sid][start : start + 8]
            for copy_to, ulps in (("a", 0), ("b", 1), ("c", -2)):
                cols[copy_to][9 * i + 1 : 9 * i + 9] = (
                    context[:3] + [nudged(context[3], ulps)] + context[4:])
        ds = make_dataset(cols)
        targets = [(s.id, start) for s, start in zip(ds.series, starts)]
        for chunk in (1, neighbors._CHUNK_ELEMENTS):
            for k in (1, 2, 5):
                self.check(ds, targets, 8, k, znorm, chunk)

    @pytest.mark.parametrize("seed", range(10))
    def test_differences_that_square_below_the_least_double(self, seed):
        """Cells near 1e-160, and copies of the target context one cell of which
        is off by about 1e-163: the exact formula squares that difference to 0,
        a tie with the exact copies that (series_id, start) breaks, while the
        expanded form errs by a few units of 2**-1074 either way."""
        rng = random.Random(seed)
        cols = {sid: [rng.randint(-12, 12) * 0.25e-160 for _ in range(40)] for sid in "cab"}
        context = cols["c"][30:38]
        for i, sid in enumerate("abc"):
            copy = list(context)
            copy[rng.randrange(8)] += rng.choice([-1, 1]) * rng.randint(1, 30) * 1e-164
            cols[sid][9 * i + 1 : 9 * i + 9] = copy
        ds = make_dataset(cols)
        for k in (1, 2):
            self.check(ds, [("c", 30)], 8, k, False, neighbors._CHUNK_ELEMENTS)

    @settings(max_examples=30, deadline=None)
    @given(case=filter_cases("unit", max_length=20), k=st.integers(50, 300),
           znorm=st.booleans(), chunk=st.sampled_from([1, 30, neighbors._CHUNK_ELEMENTS]))
    def test_k_above_candidate_count(self, case, k, znorm, chunk):
        """With k at or above the candidate count every candidate is returned."""
        self.check(*case, k, znorm, chunk)

    @pytest.mark.parametrize("znorm", [False, True], ids=["plain", "znorm"])
    def test_hundreds_of_ties_across_series(self, znorm):
        """Four series of one repeated pattern: the targets at 141 tie exactly
        with 184 candidates, those at 60 with 76, across many chunks, and each
        takes the k with the least (series_id, start)."""
        cols = {sid: [(i % 3) / 4 for i in range(150)] for sid in "dbca"}
        ds = make_dataset(cols)
        targets = [(s.id, start) for s in ds.series for start in (60, 141)]
        for chunk in (7, neighbors._CHUNK_ELEMENTS):
            self.check(ds, targets, 6, 5, znorm, chunk)
        (first, *_) = search(ds, targets, 6, 5, znorm)
        assert keys(first) == [("a", 0), ("a", 3), ("a", 6), ("a", 9), ("a", 12)]

    def test_exact_distances_that_overflow(self):
        """Cells 1e200 apart: the exact formula overflows to inf, as it always
        has, so distances tie at inf and (series_id, start) decides; the filter
        neither drops nor warns about them."""
        rng = random.Random(4)
        cols = {sid: [rng.choice([-1e200, 0.0, 1e200]) for _ in range(40)] for sid in "ba"}
        ds = make_dataset(cols)
        targets = [(s.id, 30) for s in ds.series]
        for znorm in (False, True):
            with np.errstate(over="ignore", invalid="ignore"):
                self.check(ds, targets, 8, 5, znorm, neighbors._CHUNK_ELEMENTS)
            with pytest.warns(RuntimeWarning, match="overflow"):
                search(ds, targets, 8, 5, znorm)


    def test_windows_that_z_normalise_to_nan_are_never_neighbors(self):
        """Cells near the float64 maximum make a window's sum overflow, so it
        z-normalises to NaN. Such windows are left out, and every other
        candidate ranks as usual, also when fewer than k remain in a series."""
        rng = random.Random(0)
        cols = {sid: [rng.randint(0, 8) / 4 for _ in range(60)] for sid in "ab"}
        cols["a"][10:14] = [1.5e308] * 4
        cols["b"][20:24] = [-1.5e308] * 4
        ds = make_dataset(cols)
        target = ("b", 45)
        with np.errstate(over="ignore", invalid="ignore"):
            ranked = []
            for sid, start, d in enumerate_candidates(ds, target, 8, z_distance):
                if not math.isnan(d):
                    ranked.append((d, sid, start))
            ranked.sort()
            assert len(ranked) == 2 * (38 - 9)  # 9 windows a series hold 2 or more such cells
            for k in (3, 40, 100):
                got = nearest(ds, target, 8, k, znorm=True)
                assert [(d, sid, start) for sid, start, d in got] == ranked[:k]


    # Chunks run over window starts across every series: a chunk of c starts
    # holds c rows of each, and _CHUNK_ELEMENTS = c (L + targets) series makes one.

    @pytest.mark.parametrize("znorm", [False, True], ids=["plain", "znorm"])
    def test_one_chunk_spans_several_series(self, znorm):
        """Chunks of 1, 3 and 7 starts across four series in shuffled id order,
        with exact ties across series: each kept row comes back with its own
        series and start."""
        rng = random.Random(8)
        cols = {sid: [rng.randint(-12, 12) / 4 for _ in range(70)] for sid in "dbca"}
        context = cols["b"][50:58]
        for sid, where in (("d", 12), ("a", 12), ("c", 13), ("b", 30)):
            cols[sid][where : where + 8] = context
        ds = make_dataset(cols)
        targets = [(s.id, 50) for s in ds.series]
        for starts in (1, 3, 7):
            for k in (1, 3, 6):
                self.check(ds, targets, 8, k, znorm, starts * (8 + 4) * 4)
        found = nearest(ds, ("b", 50), 8, k=4, znorm=znorm)
        assert keys(found) == [("a", 12), ("b", 30), ("c", 13), ("d", 12)]

    @pytest.mark.parametrize("znorm", [False, True], ids=["plain", "znorm"])
    def test_targets_whose_cuts_fall_inside_a_chunk(self, znorm):
        """Targets one to three starts apart, read in chunks of ten starts, and
        each target's context copied into the window one start past its cut,
        which ends inside its context: each chunk stops at the next cut, so no
        target sees that copy, and the targets still active keep their bounds."""
        rng = random.Random(9)
        cols = {sid: [rng.randint(-12, 12) / 4 for _ in range(90)] for sid in "bca"}
        ids = "bcabc"
        starts = (70, 71, 73, 76, 77)
        for sid, start in zip(ids, starts):
            context = cols[sid][start : start + 8]
            cut = start - 8 + 1
            other = "abc"[("abc".index(sid) + 1) % 3]
            cols[other][cut + 1 : cut + 9] = context
        ds = make_dataset(cols)
        targets = list(zip(ids, starts))
        for chunk in (10 * (8 + 5) * 3, 10 * (8 + 2) * 3, neighbors._CHUNK_ELEMENTS):
            for k in (1, 4):
                self.check(ds, targets, 8, k, znorm, chunk)

    @pytest.mark.parametrize("znorm", [False, True], ids=["plain", "znorm"])
    def test_a_series_a_thousand_times_larger_sets_the_margin(self, znorm):
        """A series of cells near 1e3 beside three unit-scale ones: its rows have
        the largest norm of every chunk, so they set each target's margin,
        while the targets' copies in the unit series sit 0 or 1 ulp off."""
        rng = random.Random(10)
        cols = {sid: [rng.randint(-12, 12) / 4 for _ in range(80)] for sid in "abc"}
        cols["z"] = [1e3 + rng.randint(-12, 12) / 4 for _ in range(80)]
        starts = (60, 61, 63)
        for i, (sid, start) in enumerate(zip("abc", starts)):
            context = cols[sid][start : start + 8]
            for copy_to, ulps in (("a", 0), ("b", 1), ("c", -1)):
                cols[copy_to][9 * i + 1 : 9 * i + 9] = (
                    context[:3] + [nudged(context[3], ulps)] + context[4:])
        ds = make_dataset(cols)
        targets = [(s.id, start) for s, start in zip(ds.series, starts)]
        for chunk in (1, 5 * (8 + 3) * 4, neighbors._CHUNK_ELEMENTS):
            for k in (1, 2, 5):
                self.check(ds, targets, 8, k, znorm, chunk)

    def test_large_rows_that_tie_near_a_small_target(self):
        """A unit-scale target with three candidates of its own scale and k up
        to 8, so its last neighbors are rows near 1e3, copies of one window
        with a cell 0, 1 or 2 ulps off: their expanded forms err by about
        1e-9, a million times the margin the target's own scale would give,
        and they tie or nearly tie at the k-th distance."""
        rng = random.Random(11)
        cols = {"u": [rng.randint(-12, 12) / 4 for _ in range(40)]}
        block = [1e3 + rng.randint(-12, 12) / 4 for _ in range(8)]
        for sid in "abc":
            cols[sid] = [1e3 + rng.randint(-12, 12) / 4 for _ in range(40)]
            for where, ulps in ((0, 0), (9, 1), (18, -1), (27, 2)):
                copy = list(block)
                copy[5] = nudged(copy[5], ulps)
                cols[sid][where : where + 8] = copy
        ds = make_dataset(cols)
        targets = [("u", start) for start in (10, 11, 12)]
        for chunk in (1, 3 * (8 + 3) * 4, neighbors._CHUNK_ELEMENTS):
            for k in range(4, 9):
                self.check(ds, targets, 8, k, False, chunk)

    def test_a_z_normalised_chunk_with_one_nan_row(self):
        """Two cells of 1.5e308 seven apart make exactly one window (start 20 of
        series b) z-normalise to NaN, and the windows holding one of them
        all-zero. The NaN row is dropped, whatever chunk it shares with finite
        rows of other series, and every other candidate ranks as usual."""
        rng = random.Random(12)
        cols = {sid: [rng.randint(0, 8) / 4 for _ in range(60)] for sid in "cab"}
        cols["b"][20] = cols["b"][27] = 1.5e308
        ds = make_dataset(cols)
        targets = [(s.id, start) for s in ds.series for start in (40, 45)]
        with np.errstate(over="ignore", invalid="ignore"):
            for target in targets:
                ranked = []
                for sid, start, d in enumerate_candidates(ds, target, 8, z_distance):
                    if math.isnan(d):
                        assert (sid, start) == ("b", 20)
                    else:
                        ranked.append((d, sid, start))
                assert len(ranked) == 3 * (target[1] - 7) - 1
                ranked.sort()
                for chunk in (1, 4 * (8 + 6) * 3, neighbors._CHUNK_ELEMENTS):
                    for k in (3, 200):
                        with mock.patch.object(neighbors, "_CHUNK_ELEMENTS", chunk):
                            (got, *_) = search(ds, [target, *targets], 8, k, znorm=True)
                        assert [(d, sid, start) for sid, start, d in got] == ranked[:k]


class TestFilterPrunes:
    """The filter keeps the exhaustive scan's result (TestFilterSafety) and
    also prunes: a chunk's own k nearest rows set the bound it is filtered by."""

    def refined(self, ds, targets, L, k, znorm=False):
        """How many (target, candidate) pairs got the exact distance."""
        counts = []
        real = neighbors._first_k
        with mock.patch.object(neighbors, "_first_k",
                               lambda kept, k: counts.append(kept.shape[1]) or real(kept, k)):
            search(ds, targets, L, k, znorm)
        return sum(counts)

    @pytest.mark.parametrize("znorm", [False, True], ids=["plain", "znorm"])
    def test_a_chunk_prunes_by_its_own_nearest_rows(self, znorm):
        """One chunk holds every candidate of a target whose context is copied
        into five earlier windows among random ones: only the copies are
        refined."""
        rng = random.Random(13)
        vals = [rng.uniform(0, 10) for _ in range(200)]
        context = vals[180:188]
        for where in (10, 40, 70, 100, 130):
            vals[where : where + 8] = context
        ds = make_dataset({"a": vals})
        target = ("a", 180)
        assert self.refined(ds, [target], 8, 5, znorm) == 5
        assert [d for _, _, d in nearest(ds, target, 8, 5, znorm)] == [0.0] * 5

    def test_each_target_is_filtered_by_its_own_bound(self):
        """Two targets, one with five exact copies of its context and one with
        none: the second keeps its own k nearest, and the first refines no more
        than its copies."""
        rng = random.Random(14)
        cols = {sid: [rng.uniform(0, 10) for _ in range(200)] for sid in "ab"}
        context = cols["a"][180:188]
        for where in (10, 40, 70, 100, 130):
            cols["b"][where : where + 8] = context
        ds = make_dataset(cols)
        copied, other = ("a", 180), ("b", 185)
        assert self.refined(ds, [copied], 8, 5) == 5
        for targets in ([copied, other], [other, copied]):
            TestFilterSafety.check(ds, targets, 8, 5, False, neighbors._CHUNK_ELEMENTS)


def pinned_dataset():
    """Four quarter-step series in shuffled id order. One target context is
    copied into earlier windows of three series, and constant stretches (which
    all z-normalise to zeros) sit in two, so neighbor distances tie within and
    across series, with z-normalisation off and on."""
    rng = random.Random(2024)
    cols = {sid: [rng.randint(-6, 6) / 4 for _ in range(360)] for sid in "cadb"}
    context = cols["a"][203:215]
    for sid, where in (("b", 40), ("d", 40), ("c", 100), ("a", 63)):
        cols[sid][where : where + 12] = context
    cols["c"][10:22] = [2.5] * 12
    cols["d"][60:72] = [-1.0] * 12
    return make_dataset(cols)


class TestPinnedNeighborPrompts:
    """Every neighbor prompt of a run hashes as it did before `search` replaced
    the per-window scan. The digests were computed by this test's code at
    commit 6dae5fb, the last whose runs searched with neighbors.build_pool and
    neighbors.top_k, one pair per window."""

    @pytest.mark.parametrize("znorm, digest", [
        (False, "74035b7ffdfa522f68dbb2290f1b1763eb5b19528910efe7b94a84041d270064"),
        (True, "8096ba7c2262a3db0a02245695c4cfcf6452ae0ac47e4d27123d9e907499ce92"),
    ], ids=["plain", "znorm"])
    def test_bundle_hashes_unchanged(self, znorm, digest):
        cfg = RunConfig(strategies=(Strategy.NEIGHS, Strategy.PATCH_INSTRUCT_NEIGHS),
                        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE),
                        horizons=(1, 6), context_len=12, eval_stride=7, max_windows=100,
                        k=5, znorm_neighbors=znorm)
        bundles = bundles_for_run(pinned_dataset(), cfg)
        assert len(bundles) == 2 * 2 * 4 * (49 - 2)  # starts 0 and 7 have no candidates
        joined = "\n".join(bundle_hash(b) for b in bundles)
        assert hashlib.sha256(joined.encode()).hexdigest() == digest


class TestChunkWidth:
    """A chunk's width does not shrink with the number of targets, and a chunk's
    k smallest are taken only for the targets whose bound they can move."""

    def test_many_targets_read_chunks_wider_than_one_start(self):
        """2,100 targets of context 96 over 21 series, 20 starts apart, as a
        paper-sized run at the CLI defaults has: chunks of (L + targets) x series
        rows per start would hold one start each; they hold many, and every
        target finds what a search of a few targets alone finds."""
        rng = random.Random(16)
        n = 96 + 20 * 99 + 97
        ds = make_dataset({f"s{j:02d}": [rng.randint(-40, 40) / 4 for _ in range(n)]
                           for j in range(21)})
        targets = [(s.id, 96 + 20 * m) for s in ds.series for m in range(100)]
        widths = []
        real = neighbors._znorm
        with mock.patch.object(neighbors, "_znorm",
                               lambda x: x.ndim == 3 and widths.append(x.shape[1]) or real(x)):
            found = search(ds, targets, 96, 5, znorm=True)
        n_max = 20 * 99 + 1  # the latest target's candidate starts
        assert sum(widths) == n_max and len(widths) < n_max // 4
        sample = random.Random(17).sample(range(len(targets)), 12)
        assert (search(ds, [targets[i] for i in sample], 96, 5, znorm=True)
                == [found[i] for i in sample])
        found = search(ds, targets, 96, 5)
        assert search(ds, [targets[i] for i in sample], 96, 5) == [found[i] for i in sample]

    def test_a_nan_row_does_not_stop_a_chunk_from_pruning(self):
        """A chunk takes in its k smallest only for targets whose nearest row there
        beats their bound: a NaN row (z-normalised cells whose sum overflows) in the
        chunk neither hides that nearest row nor is pruned itself."""
        rng = random.Random(18)
        vals = [rng.uniform(0, 10) for _ in range(200)]
        context = vals[180:188]
        for where in (10, 40, 70, 100, 130):
            vals[where : where + 8] = context
        other = [rng.uniform(0, 10) for _ in range(200)]
        other[50:54] = [1.5e308] * 4
        ds = make_dataset({"a": vals, "b": other})
        target = ("a", 180)
        cut = 180 - 8 + 1
        windows = np.lib.stride_tricks.sliding_window_view(ds.series[1].values[:cut + 7], 8)
        with np.errstate(over="ignore", invalid="ignore"):
            nan_rows = int(np.isnan(neighbors._znorm(windows)).any(axis=1).sum())
            assert nan_rows > 1
            assert TestFilterPrunes().refined(ds, [target], 8, 5, znorm=True) == 5 + nan_rows
