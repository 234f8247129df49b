import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsf.errors import InvalidClockTime, WindowTooLarge
from tsf.patching import (
    PatchOrder,
    nonoverlapping_patches,
    overlapping_patches,
    reverse_patches,
    slot_index,
)

contexts = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=3, max_size=200
)


class TestOverlapping:
    def test_basic_example(self):
        ps = overlapping_patches([1, 2, 3, 4], w=3, s=1)
        assert [p.values for p in ps.patches] == [(1, 2, 3), (2, 3, 4)]

    def test_count_default_window(self):
        ps = overlapping_patches(list(range(96)), w=3, s=1)
        assert len(ps.patches) == 94

    def test_identity_case(self):
        ps = overlapping_patches([1, 2, 3], w=3, s=1)
        assert [p.values for p in ps.patches] == [(1, 2, 3)]

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            overlapping_patches([1, 2], w=3, s=1)

    @given(contexts)
    def test_count_and_heads(self, ctx):
        ps = overlapping_patches(ctx, w=3, s=1)
        assert len(ps.patches) == len(ctx) - 2
        assert [p.values[0] for p in ps.patches] == ctx[: len(ctx) - 2]


class TestReverse:
    def test_example(self):
        ps = overlapping_patches([1, 2, 3, 4], w=3, s=1)
        rev = reverse_patches(ps)
        assert [p.values for p in rev.patches] == [(2, 3, 4), (1, 2, 3)]
        assert rev.order is PatchOrder.REVERSED

    def test_single_patch(self):
        ps = overlapping_patches([1, 2, 3], w=3, s=1)
        assert reverse_patches(ps).patches == ps.patches

    @given(contexts)
    def test_involution_and_multiset(self, ctx):
        ps = overlapping_patches(ctx, w=3, s=1)
        rev = reverse_patches(ps)
        assert tuple(reversed(rev.patches)) == ps.patches
        assert sorted(p.values for p in rev.patches) == sorted(p.values for p in ps.patches)


class TestNonOverlapping:
    def test_paper_example(self):
        ctx = [8.35, 8.36, 8.32, 8.45, 8.35, 8.25, 8.20, 8.09, 8.13, 8.00, 7.94, 7.86]
        ps = nonoverlapping_patches(ctx, 3)
        assert [list(p.values) for p in ps.patches] == [
            [8.35, 8.36, 8.32],
            [8.45, 8.35, 8.25],
            [8.20, 8.09, 8.13],
            [8.00, 7.94, 7.86],
        ]

    def test_96_by_5_drops_oldest(self):
        ctx = list(range(96))
        ps = nonoverlapping_patches(ctx, 5)
        assert len(ps.patches) == 19
        covered = [v for p in ps.patches for v in p.values]
        assert covered == ctx[1:]

    def test_identity(self):
        ps = nonoverlapping_patches([1, 2, 3], 3)
        assert [p.values for p in ps.patches] == [(1, 2, 3)]

    def test_window_too_large(self):
        with pytest.raises(WindowTooLarge):
            nonoverlapping_patches([1, 2], 3)

    @given(contexts, st.integers(min_value=1, max_value=12))
    def test_disjoint_suffix_cover(self, ctx, h):
        if h > len(ctx):
            h = len(ctx)
        ps = nonoverlapping_patches(ctx, h)
        covered = [v for p in ps.patches for v in p.values]
        assert covered == ctx[len(ctx) % h :]
        assert all(len(p.values) == h for p in ps.patches)


class TestSlotIndex:
    @pytest.mark.parametrize("h,m,slot", [(10, 30, 63), (0, 0, 0), (23, 59, 143)])
    def test_examples(self, h, m, slot):
        assert slot_index(h, m) == slot

    def test_invalid(self):
        with pytest.raises(InvalidClockTime):
            slot_index(24, 0)
        with pytest.raises(InvalidClockTime):
            slot_index(10, 60)

    def test_nondecreasing_and_surjective_at_10min(self):
        slots = [slot_index(t // 60, t % 60) for t in range(0, 1440, 10)]
        assert slots == sorted(slots)
        assert sorted(set(slots)) == list(range(144))

