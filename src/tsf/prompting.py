"""Prompt assembly: versioned system-prompt templates plus the user prompt
carrying the formatted context window (and optional neighbor block)."""

from __future__ import annotations

import functools
import itertools
import re
from enum import Enum
from importlib import resources
from typing import NamedTuple, Optional

from .dataset import describe_interval, format_value
from .errors import UnboundPlaceholder

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

    @property
    def states_clock(self) -> bool:
        """Its prompt names the UTC clock time of the first context value."""
        return self is Strategy.META_TOKENS_PI


class PromptBundle(NamedTuple):
    system: str
    user: str
    strategy: Strategy
    window_id: str
    horizon: int


@functools.cache
def load_template(strategy: Strategy) -> str:
    """The strategy's template, templates/<strategy value>.txt, read on first use only."""
    return (
        resources.files("tsf.templates")
        .joinpath(f"{strategy.value}.txt")
        .read_text(encoding="utf-8")
        .rstrip("\n")
    )


def render_sequences(values, starts, length: int) -> dict[int, str]:
    """The text "<v1, v2, ...>" of values[s:s + length], each value by
    format_value, for each start s of a 1-D float array, each value formatted
    once: windows that overlap or touch merge into one run, which is formatted
    and joined once, and each window's text is a slice of its run's."""
    starts = sorted(set(starts))
    texts = {}
    i = 0
    while i < len(starts):
        lo, end, j = starts[i], starts[i] + length, i + 1
        while j < len(starts) and starts[j] <= end:
            end, j = starts[j] + length, j + 1
        cells = list(map(format_value, values[lo:end].tolist()))
        run = ", ".join(cells)
        at = list(itertools.accumulate((len(c) + 2 for c in cells), initial=0))  # cell offsets
        for s in starts[i:j]:
            texts[s] = "<" + run[at[s - lo] : at[s - lo + length] - 2] + ">"
        i = j
    return texts


def output_example(horizon: int) -> str:
    """The bracketed y1..yh list shown in the output-format contract."""
    return "[" + ", ".join(f"y{i}" for i in range(1, horizon + 1)) + "]"


@functools.lru_cache(maxsize=64)
def _split_template(template: str) -> tuple[str, ...]:
    """The template's literal text and placeholder names, alternating: the
    text before the first placeholder, its name, the text up to the next, ..."""
    return tuple(_PLACEHOLDER_RE.split(template))


def build_system_prompt(strategy: Strategy, template: str, bindings: dict) -> str:
    parts = list(_split_template(template))
    for i in range(1, len(parts), 2):
        if parts[i] not in bindings:
            raise UnboundPlaceholder(
                f"placeholder {{{parts[i]}}} unbound in {strategy.value} template")
        parts[i] = str(bindings[parts[i]])
    return "".join(parts)


def neighbor_block(sequences) -> str:
    """One `Neighbor i: <...>` line per rendered sequence, nearest first."""
    return "\n".join(f"Neighbor {i}: {seq}" for i, seq in enumerate(sequences, start=1))


def system_prompt(
    strategy: Strategy,
    series_description: str,
    interval_seconds: int,
    horizon: int,
    context_len: int,
    patch_window: int,
    patch_stride: int,
    k: int,
    start_timestamp: int,
) -> str:
    """The strategy's system prompt. Of the first context value's timestamp,
    only the UTC clock time counts, and only where the strategy states it."""
    clock = {}
    if strategy.states_clock:
        sod = start_timestamp % 86400  # the first value's second of the UTC day
        clock = {"start_clock": f"{sod // 3600:02d}:{sod // 60 % 60:02d}",
                 "start_slot": sod // 600}
    return build_system_prompt(strategy, load_template(strategy), {
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
    })


def user_prompt(sequence: str, horizon: int, neighbor_block: Optional[str] = None) -> str:
    """The user message around a rendered context sequence, the neighbor block first."""
    user = (
        "Continue the following sequence without producing any additional text."
        f" Sequence: {sequence}."
        f" Predict the next {horizon} values."
    )
    return user if neighbor_block is None else neighbor_block + "\n" + user
