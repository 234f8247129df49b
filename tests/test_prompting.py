import re

import pytest

from tsf.dataset import EvalWindow
from tsf.errors import (
    EmptyNeighborSet,
    MissingNeighbors,
    UnboundPlaceholder,
    UnexpectedNeighbors,
)
from tsf.neighbors import CandidateWindow, NeighborSet
from tsf.prompting import (
    PromptTemplate,
    Strategy,
    assemble,
    build_system_prompt,
    build_user_prompt,
    load_template,
    render_neighbor_block,
)

from golden_util import (
    DESCRIPTION,
    INTERVAL_SECONDS,
    golden_bundle,
    golden_neighbors,
    golden_path,
    golden_window,
    render_bundle,
)


def tiny_window(context, horizon=1, truth=None):
    return EvalWindow(
        series_id="s",
        context=tuple(float(v) for v in context),
        context_start=0,
        horizon=horizon,
        truth=tuple(truth or [0.0] * horizon),
        context_timestamps=tuple(600 * i for i in range(len(context))),
    )


class TestUserPrompt:
    def test_h1_example(self):
        w = tiny_window([1, 2, 3], horizon=1)
        assert build_user_prompt(w) == (
            "Continue the following sequence without producing any additional text."
            " Sequence: <1, 2, 3>. Predict the next 1 values."
        )

    def test_h3_suffix(self):
        w = tiny_window([1, 2, 3], horizon=3)
        assert build_user_prompt(w).endswith("Predict the next 3 values.")

    def test_values_rendered_via_format_value(self):
        w = tiny_window([0.80325], horizon=1)
        assert "<0.8032>" in build_user_prompt(w)

    def test_value_count_equals_context_len(self):
        w = golden_window()
        user = build_user_prompt(w)
        inner = re.search(r"<([^>]*)>", user).group(1)
        assert len(inner.split(", ")) == len(w.context)


class TestSystemPrompt:
    def test_patch_instruct_wording(self):
        b = golden_bundle(Strategy.PATCH_INSTRUCT)
        assert "Split the series into overlapping patches with window size 3 and stride 1" in b.system

    def test_neighs_wording(self):
        b = golden_bundle(Strategy.NEIGHS)
        assert "You will also be given 5 neighbor time-series similar to the one to forecast" in b.system

    def test_unbound_placeholder(self):
        tpl = PromptTemplate(strategy=Strategy.PATCH_INSTRUCT, system_text="h={horizon}")
        with pytest.raises(UnboundPlaceholder):
            build_system_prompt(tpl, {"window": 3})

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
        )
        at_96 = golden_bundle(strategy).system
        window = tiny_window(range(48), horizon=3)
        at_48 = assemble(strategy, window, DESCRIPTION, INTERVAL_SECONDS).system
        expected = at_96
        for phrase in phrases:
            expected = expected.replace(phrase.format(n=96), phrase.format(n=48))
        assert expected != at_96
        assert at_48 == expected

    def test_decimals_contract_everywhere_but_zeroshot(self):
        for strategy in Strategy:
            if strategy is Strategy.ZEROSHOT:
                continue
            b = golden_bundle(strategy)
            assert "Decimals" in b.system and "4" in b.system


class TestNeighborBlock:
    def test_single_neighbor(self):
        ns = NeighborSet(k=1, entries=((CandidateWindow("a", 0, (1.0, 2.0)), 0.5),))
        assert render_neighbor_block(ns) == "Neighbor 1: <1, 2>"

    def test_five_lines_ascending(self):
        block = render_neighbor_block(golden_neighbors())
        lines = block.split("\n")
        assert len(lines) == 5
        assert [l.split(":")[0] for l in lines] == [f"Neighbor {i}" for i in range(1, 6)]

    def test_empty(self):
        with pytest.raises(EmptyNeighborSet):
            render_neighbor_block(NeighborSet(k=5, entries=()))

    def test_block_precedes_continue_sentence(self):
        b = golden_bundle(Strategy.NEIGHS)
        assert b.user.index("Neighbor 5:") < b.user.index("Continue the following sequence")


class TestAssemble:
    def test_zeroshot_empty_system(self):
        b = golden_bundle(Strategy.ZEROSHOT)
        assert b.system == ""
        assert b.user.startswith("Continue the following sequence")

    def test_missing_neighbors(self):
        with pytest.raises(MissingNeighbors):
            assemble(Strategy.PATCH_INSTRUCT_NEIGHS, golden_window(), "x", 600)

    def test_unexpected_neighbors(self):
        with pytest.raises(UnexpectedNeighbors):
            assemble(
                Strategy.PATCH_INSTRUCT,
                golden_window(),
                "x",
                600,
                neighbor_set=golden_neighbors(),
            )

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

    def test_templates_load(self):
        for strategy in Strategy:
            tpl = load_template(strategy)
            assert tpl.strategy is strategy

    def test_templates_loaded_once(self):
        for strategy in Strategy:
            assert load_template(strategy) is load_template(strategy)
