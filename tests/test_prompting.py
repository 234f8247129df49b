import re
from collections import Counter
from importlib import resources
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tsf.prompting as prompting_mod

from tsf.errors import UnboundPlaceholder
from tsf.llmgateway import BackendConfig, BackendKind
from tsf.prompting import (
    Strategy,
    build_system_prompt,
    load_template,
    neighbor_block,
    render_sequences,
    user_prompt,
)
from tsf.runner import RunConfig, bundles_for_run, run

from conftest import make_dataset
from golden_util import (
    CONTEXT_LEN,
    DESCRIPTION,
    INTERVAL_SECONDS,
    compose,
    golden_bundle,
    golden_dataset,
    golden_neighbor_windows,
    golden_neighbors,
    golden_path,
    golden_series,
    render_bundle,
    render_neighbor_block,
    render_sequence,
)

MOCK_P = BackendConfig(kind=BackendKind.MOCK_PERSISTENCE)


def tiny_dataset(context, horizon=1, start_ts=0):
    """One series "s" of the context values and a continuation of horizon
    zeros; its window ("s", 0) is the context."""
    return make_dataset({"s": [*context, *[0.0] * horizon]}, interval=INTERVAL_SECONDS,
                        start_ts=start_ts, descriptions={"s": DESCRIPTION})


def user(context, horizon: int) -> str:
    return user_prompt(render_sequence([float(v) for v in context]), horizon)


class TestUserPrompt:
    def test_h1_example(self):
        assert user([1, 2, 3], horizon=1) == (
            "Continue the following sequence without producing any additional text."
            " Sequence: <1, 2, 3>. Predict the next 1 values."
        )

    def test_h3_suffix(self):
        assert user([1, 2, 3], horizon=3).endswith("Predict the next 3 values.")

    def test_values_rendered_via_format_value(self):
        assert "<0.8032>" in user([0.80325], horizon=1)

    def test_value_count_equals_context_len(self):
        inner = re.search(r"<([^>]*)>", golden_bundle(Strategy.ZEROSHOT).user).group(1)
        assert len(inner.split(", ")) == CONTEXT_LEN


class TestSystemPrompt:
    def test_patch_instruct_wording(self):
        b = golden_bundle(Strategy.PATCH_INSTRUCT)
        assert "Split the series into overlapping patches with window size 3 and stride 1" in b.system

    def test_neighs_wording(self):
        b = golden_bundle(Strategy.NEIGHS)
        assert "You will also be given 5 neighbor time-series similar to the one to forecast" in b.system

    def test_unbound_placeholder(self):
        with pytest.raises(UnboundPlaceholder, match="patch-instruct"):
            build_system_prompt(Strategy.PATCH_INSTRUCT, "h={horizon}", {"window": 3})

    @settings(max_examples=300, deadline=None)
    @given(template=st.text(st.sampled_from("{}ab_1 \n"), max_size=40),
           bound=st.sets(st.sampled_from(["a", "b", "ab", "a_1", "_", "1"])))
    def test_build_equals_one_substitution_per_placeholder(self, template, bound):
        """Any template renders as a regex substitution of each {name} would,
        from a cached split, and an unbound name raises."""
        bindings = {name: f"<{name}>" for name in bound}
        names = re.findall(r"\{(\w+)\}", template)
        if set(names) <= bound:
            want = re.sub(r"\{(\w+)\}", lambda m: bindings[m.group(1)], template)
            for _ in range(2):
                assert build_system_prompt(Strategy.ZEROSHOT, template, bindings) == want
        else:
            with pytest.raises(UnboundPlaceholder, match="zeroshot"):
                build_system_prompt(Strategy.ZEROSHOT, template, bindings)

    def test_no_placeholder_markers_remain(self):
        for strategy in Strategy:
            b = golden_bundle(strategy)
            assert not re.search(r"\{\w+\}", b.system)
            assert not re.search(r"\{\w+\}", b.user)

    @pytest.mark.parametrize(
        "strategy",
        [Strategy.META_TOKENS_PI, Strategy.REVERSE_ORDERED_PI, Strategy.STR_DECOMPOSE_PI],
        ids=lambda s: s.value,
    )
    def test_counts_follow_context_len(self, strategy):
        phrases = (
            "{n} raw numbers",
            "the {n}-point series into {n} two-element tokens",
            "the {n} composite tokens",
            "[(v{a};slot{a}), (v{b};slot{b}), (v{n};slot{n})]",  # meta-patch's last patch
            "[[T{a},R{a}], [T{b},R{b}], [T{n},R{n}]]",  # str-patch's last patch
        )
        at_96 = golden_bundle(strategy).system
        at_48 = compose(strategy, tiny_dataset(range(48), horizon=3), ("s", 0), 3, 48).system
        expected = at_96
        for phrase in phrases:
            expected = expected.replace(phrase.format(n=96, a=94, b=95),
                                        phrase.format(n=48, a=46, b=47))
        assert expected != at_96
        assert at_48 == expected

    def test_decimals_contract_everywhere_but_zeroshot(self):
        for strategy in Strategy:
            if strategy is Strategy.ZEROSHOT:
                continue
            b = golden_bundle(strategy)
            assert "Decimals" in b.system and "4" in b.system


def meta_system(start_ts: int) -> str:
    ds = tiny_dataset(range(12), horizon=3, start_ts=start_ts)
    return compose(Strategy.META_TOKENS_PI, ds, ("s", 0), 3, 12).system


class TestMetaPatchClock:
    """meta-patch states the UTC clock time and 10-minute slot of the first
    context value, so a model can pair every value with its slot."""

    @staticmethod
    def clock_line(h: int, m: int, slot: int) -> str:
        return f"The first value was measured at {h:02d}:{m:02d} UTC (slot {slot});"

    def test_golden_window_starts_at_midnight(self):
        system = golden_bundle(Strategy.META_TOKENS_PI).system
        assert self.clock_line(0, 0, 0) + " each later value is 10 minutes after" in system

    @pytest.mark.parametrize("h,m,slot", [(10, 30, 63), (0, 0, 0), (23, 59, 143)])
    def test_examples(self, h, m, slot):
        """10:30 -> 63 is the paper's worked example (37,800 s into the day)."""
        assert self.clock_line(h, m, slot) in meta_system(3600 * h + 60 * m)

    def test_nondecreasing_and_surjective_at_10min(self):
        slots = [int(re.search(r"\(slot (\d+)\)", meta_system(600 * i)).group(1))
                 for i in range(144)]
        assert slots == list(range(144))

    def test_any_timestamp_reads_a_clock_of_its_day(self):
        assert self.clock_line(10, 30, 63) in meta_system(3 * 86400 + 37800)
        assert self.clock_line(23, 50, 143) in meta_system(-600)  # before the epoch
        assert self.clock_line(10, 30, 63) in meta_system(37800 + 59)

    def test_only_meta_patch_renders_per_start_time(self, monkeypatch):
        """Each run and each bundles_for_run call renders patch-instruct's system
        prompt once per horizon, and meta-patch's once per horizon and start clock."""
        calls = []
        real = prompting_mod.build_system_prompt
        monkeypatch.setattr(prompting_mod, "build_system_prompt",
                            lambda strategy, *rest: calls.append(strategy) or real(strategy, *rest))
        ds = make_dataset({"v": [i % 7 for i in range(40)]})  # starts 0, 6, ..., 24
        strategies = (Strategy.PATCH_INSTRUCT, Strategy.META_TOKENS_PI)
        cfg = RunConfig(strategies=strategies, backend=MOCK_P, horizons=(1, 3), context_len=12,
                        eval_stride=6)
        expected = {Strategy.PATCH_INSTRUCT: 2, Strategy.META_TOKENS_PI: 2 * 5}
        for call in (run, bundles_for_run, run):  # a second run renders again
            calls.clear()
            call(ds, cfg)
            assert Counter(calls) == expected
        distinct = {(b.strategy, b.system) for b in bundles_for_run(ds, cfg)}
        assert Counter(strategy for strategy, _ in distinct) == expected


class TestNeighborBlock:
    def test_single_neighbor(self):
        assert render_neighbor_block([(1.0, 2.0)]) == "Neighbor 1: <1, 2>"

    def test_five_lines_ascending(self):
        block = render_neighbor_block(golden_neighbor_windows())
        lines = block.split("\n")
        assert len(lines) == 5
        assert [l.split(":")[0] for l in lines] == [f"Neighbor {i}" for i in range(1, 6)]

    def test_block_precedes_continue_sentence(self):
        b = golden_bundle(Strategy.NEIGHS)
        assert b.user.index("Neighbor 5:") < b.user.index("Continue the following sequence")


class TestRenderSequences:
    """Each window's text from one formatting of the runs its windows merge into."""

    def test_overlapping_touching_and_apart(self):
        values = np.array([1.0, 2.5, -0.0, 3.0, 4.0, 9.0, 1e-5, 0.00015, 7.0])
        assert render_sequences(values, [3, 0, 2, 0, 7], 2) == {
            0: "<1, 2.5>", 2: "<0, 3>", 3: "<3, 4>", 7: "<0.0002, 7>"}
        assert render_sequences(values, [], 2) == {}

    def test_neighbor_block_joins_rendered_sequences(self):
        values = np.array(golden_series())
        starts = [start for _, start, _ in golden_neighbors()]
        texts = render_sequences(values, starts, CONTEXT_LEN)
        assert neighbor_block([texts[s] for s in starts]) == \
            render_neighbor_block(golden_neighbor_windows())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_equals_render_sequence_of_each_window(self, data):
        """Random overlapping windows of random values: every window's text is
        render_sequence of its values, and each cell shown is formatted once."""
        n = data.draw(st.integers(1, 60))
        cell = st.one_of(st.integers(-40, 40).map(lambda i: i / 4),
                         st.floats(-1e6, 1e6, allow_nan=False, allow_subnormal=True))
        values = np.array(data.draw(st.lists(cell, min_size=n, max_size=n)), dtype=float)
        length = data.draw(st.integers(1, n))
        starts = data.draw(st.lists(st.integers(0, n - length), max_size=12))
        formatted = []
        real = prompting_mod.format_value
        with mock.patch.object(prompting_mod, "format_value",
                               lambda x: formatted.append(x) or real(x)):
            got = render_sequences(values, starts, length)
        assert got == {s: render_sequence(values[s : s + length].tolist()) for s in starts}
        assert len(formatted) == len({s + i for s in starts for i in range(length)})


class TestAssemble:
    def test_zeroshot_empty_system(self):
        b = golden_bundle(Strategy.ZEROSHOT)
        assert b.system == ""
        assert b.user.startswith("Continue the following sequence")

    def test_deterministic(self):
        for strategy in Strategy:
            assert render_bundle(golden_bundle(strategy)) == render_bundle(golden_bundle(strategy))

    def test_zeroshot_has_no_patches_word(self):
        b = golden_bundle(Strategy.ZEROSHOT)
        assert "Patches" not in b.system + b.user

    def test_patch_instruct_mentions_patches(self):
        b = golden_bundle(Strategy.PATCH_INSTRUCT)
        assert "Patches" in b.system

    @pytest.mark.parametrize("strategy", list(Strategy), ids=lambda s: s.value)
    def test_golden_files(self, strategy):
        expected = golden_path(strategy).read_bytes()
        actual = render_bundle(golden_bundle(strategy)).encode("utf-8")
        assert actual == expected

    def test_run_plan_renders_the_goldens(self):
        """The run's own composition, on the golden dataset (101 points: one window
        of context 96 and h 3 at the default stride), gives the seven goldens of
        the strategies without neighbors byte for byte."""
        ds = golden_dataset()
        strategies = tuple(s for s in Strategy if not s.uses_neighbors)
        cfg = RunConfig(strategies=strategies, backend=MOCK_P, horizons=(3,), context_len=96)
        bundles = bundles_for_run(ds, cfg)
        assert [b.strategy for b in bundles] == list(strategies) and len(strategies) == 7
        for b in bundles:
            assert render_bundle(b).encode("utf-8") == golden_path(b.strategy).read_bytes()

    def test_templates_load(self):
        for strategy in Strategy:
            text = load_template(strategy)
            assert isinstance(text, str) and not text.endswith("\n")

    def test_template_files_are_named_by_strategy(self):
        """templates/ holds one <strategy value>.txt per strategy, and no other file."""
        files = sorted(f.name for f in resources.files("tsf.templates").iterdir()
                       if f.is_file() and f.name != "__init__.py")
        assert files == sorted(f"{s.value}.txt" for s in Strategy)

    def test_templates_loaded_once(self):
        for strategy in Strategy:
            assert load_template(strategy) is load_template(strategy)
