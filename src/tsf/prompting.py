"""Prompt assembly: versioned system-prompt templates plus the user prompt
carrying the formatted context window (and optional neighbor block)."""

from __future__ import annotations

import functools
import re
import threading
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Callable, Optional

from .dataset import EvalWindow, describe_interval, format_value
from .errors import (
    EmptyNeighborSet,
    MissingNeighbors,
    UnboundPlaceholder,
    UnexpectedNeighbors,
)
from .neighbors import NeighborSet

TEMPLATE_VERSION = "1.2.0"

_PLACEHOLDER_RE = re.compile(r"\{(\w+)\}")


class Strategy(Enum):
    ZEROSHOT = "zeroshot"
    PATCH_INSTRUCT = "patch-instruct"
    NEIGHS = "neighs"
    PATCH_INSTRUCT_NEIGHS = "patch-neighs"
    BASIC_PI = "basic-patch"
    NON_OVERLAPPING_PI = "nonoverlap-patch"
    STR_DECOMPOSE_PI = "str-patch"
    REVERSE_ORDERED_PI = "reverse-patch"
    META_TOKENS_PI = "meta-patch"

    @property
    def uses_neighbors(self) -> bool:
        return self in (Strategy.NEIGHS, Strategy.PATCH_INSTRUCT_NEIGHS)


_TEMPLATE_FILES = {
    Strategy.ZEROSHOT: "zeroshot.txt",
    Strategy.PATCH_INSTRUCT: "patch_instruct.txt",
    Strategy.NEIGHS: "neighs.txt",
    Strategy.PATCH_INSTRUCT_NEIGHS: "patch_instruct_neighs.txt",
    Strategy.BASIC_PI: "basic_pi.txt",
    Strategy.NON_OVERLAPPING_PI: "nonoverlap_pi.txt",
    Strategy.STR_DECOMPOSE_PI: "str_pi.txt",
    Strategy.REVERSE_ORDERED_PI: "reverse_pi.txt",
    Strategy.META_TOKENS_PI: "meta_pi.txt",
}


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str
    strategy: Strategy
    window_id: str
    horizon: int


@functools.cache
def load_template(strategy: Strategy) -> str:
    """The strategy's system-prompt template, read from disk on first use only."""
    return (
        resources.files("tsf.templates")
        .joinpath(_TEMPLATE_FILES[strategy])
        .read_text(encoding="utf-8")
        .rstrip("\n")
    )


def render_sequence(values) -> str:
    return "<" + ", ".join(format_value(v) for v in values) + ">"


def output_example(horizon: int) -> str:
    """The bracketed y1..yh list shown in the output-format contract."""
    return "[" + ", ".join(f"y{i}" for i in range(1, horizon + 1)) + "]"


def build_system_prompt(strategy: Strategy, template: str, bindings: dict) -> str:
    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in bindings:
            raise UnboundPlaceholder(f"placeholder {{{name}}} unbound in {strategy.value} template")
        return str(bindings[name])

    return _PLACEHOLDER_RE.sub(sub, template)


def render_neighbor_block(ns: NeighborSet) -> str:
    """One `Neighbor i: <...>` line per entry, nearest first."""
    if not ns.entries:
        raise EmptyNeighborSet("neighbor set has no entries")
    return "\n".join(
        f"Neighbor {i}: {render_sequence(cand.values)}"
        for i, (cand, _dist) in enumerate(ns.entries, start=1)
    )


class PromptText:
    """The prompt text of one run, each reused piece rendered once: a window's
    context sequence and neighbor block, keyed by (series_id, context_start),
    and each system prompt, keyed by its bindings. The window keys hold for one
    dataset, context length and neighbor search, as within a run. Safe for
    concurrent use: a piece is rendered under a lock, once, and read without it."""

    def __init__(self) -> None:
        self._sequences: dict[tuple, str] = {}
        self._neighbor_blocks: dict[tuple, str] = {}
        self._systems: dict[tuple, str] = {}
        self._lock = threading.Lock()

    def _once(self, memo: dict[tuple, str], key: tuple, render: Callable[[], str]) -> str:
        text = memo.get(key)
        if text is None:
            with self._lock:
                text = memo.get(key)
                if text is None:
                    text = memo[key] = render()
        return text

    def user_prompt(self, window: EvalWindow) -> str:
        sequence = self._once(self._sequences, (window.series_id, window.context_start),
                              lambda: render_sequence(window.context))
        return (
            "Continue the following sequence without producing any additional text."
            f" Sequence: {sequence}."
            f" Predict the next {window.horizon} values."
        )

    def assemble(
        self,
        strategy: Strategy,
        window: EvalWindow,
        series_description: str,
        interval_seconds: int,
        patch_window: int = 3,
        patch_stride: int = 1,
        k: int = 5,
        neighbor_set: Optional[NeighborSet] = None,
    ) -> PromptBundle:
        """Build the full system + user message pair for one forecast request."""
        if strategy.uses_neighbors and neighbor_set is None:
            raise MissingNeighbors(f"{strategy.value} requires a neighbor set")
        if not strategy.uses_neighbors and neighbor_set is not None:
            raise UnexpectedNeighbors(f"{strategy.value} does not take neighbors")

        horizon, context_len = window.horizon, len(window.context)
        clock = {}
        if strategy is Strategy.META_TOKENS_PI:  # the one template that names a clock time
            sod = window.context_timestamps[0] % 86400  # the first value's second of the UTC day
            clock = {"start_clock": f"{sod // 3600:02d}:{sod // 60 % 60:02d}",
                     "start_slot": sod // 600}
        system = self._once(
            self._systems,
            (strategy, series_description, interval_seconds, patch_window, patch_stride, k,
             horizon, context_len, *clock.values()),
            lambda: build_system_prompt(strategy, load_template(strategy), {
                "series_description": series_description,
                "interval_description": describe_interval(interval_seconds),
                "window": patch_window,
                "stride": patch_stride,
                "horizon": horizon,
                "context_len": context_len,
                "context_len_minus_1": context_len - 1,
                "context_len_minus_2": context_len - 2,
                "k": k,
                "output_example": output_example(horizon),
                **clock,
            }),
        )

        user = self.user_prompt(window)
        if neighbor_set is not None:
            block = self._once(self._neighbor_blocks, (window.series_id, window.context_start),
                               lambda: render_neighbor_block(neighbor_set))
            user = block + "\n" + user

        return PromptBundle(
            system=system,
            user=user,
            strategy=strategy,
            window_id=f"{window.series_id}:{window.context_start}",
            horizon=window.horizon,
        )

