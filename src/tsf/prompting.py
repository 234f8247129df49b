"""Prompt assembly: versioned system-prompt templates plus the user prompt
carrying the formatted context window (and optional neighbor block)."""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from typing import Optional

from .dataset import EvalWindow, describe_interval, format_value
from .errors import (
    EmptyNeighborSet,
    MissingNeighbors,
    UnboundPlaceholder,
    UnexpectedNeighbors,
)
from .neighbors import NeighborSet

TEMPLATE_VERSION = "1.0.0"

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
class PromptTemplate:
    strategy: Strategy
    system_text: str
    version: str = TEMPLATE_VERSION


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str
    strategy: Strategy
    window_id: str
    horizon: int
    neighbor_count: int = 0
    template_version: str = TEMPLATE_VERSION


@functools.cache
def load_template(strategy: Strategy) -> PromptTemplate:
    """The strategy's template, read from disk on first use only."""
    text = (
        resources.files("tsf.templates")
        .joinpath(_TEMPLATE_FILES[strategy])
        .read_text(encoding="utf-8")
        .rstrip("\n")
    )
    return PromptTemplate(strategy=strategy, system_text=text)


def render_sequence(values) -> str:
    return "<" + ", ".join(format_value(v) for v in values) + ">"


def output_example(horizon: int) -> str:
    """The bracketed y1..yh list shown in the output-format contract."""
    return "[" + ", ".join(f"y{i}" for i in range(1, horizon + 1)) + "]"


def build_user_prompt(window: EvalWindow) -> str:
    return (
        "Continue the following sequence without producing any additional text."
        f" Sequence: {render_sequence(window.context)}."
        f" Predict the next {window.horizon} values."
    )


def build_system_prompt(template: PromptTemplate, bindings: dict) -> str:
    def sub(m: re.Match) -> str:
        name = m.group(1)
        if name not in bindings:
            raise UnboundPlaceholder(
                f"placeholder {{{name}}} unbound in {template.strategy.value} template"
            )
        return str(bindings[name])

    return _PLACEHOLDER_RE.sub(sub, template.system_text)


def render_neighbor_block(ns: NeighborSet) -> str:
    """One `Neighbor i: <...>` line per entry, nearest first."""
    if not ns.entries:
        raise EmptyNeighborSet("neighbor set has no entries")
    return "\n".join(
        f"Neighbor {i}: {render_sequence(cand.values)}"
        for i, (cand, _dist) in enumerate(ns.entries, start=1)
    )


def assemble(
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

    template = load_template(strategy)
    bindings = {
        "series_description": series_description,
        "interval_description": describe_interval(interval_seconds),
        "window": patch_window,
        "stride": patch_stride,
        "horizon": window.horizon,
        "context_len": len(window.context),
        "k": k,
        "output_example": output_example(window.horizon),
    }
    system = build_system_prompt(template, bindings)

    user = build_user_prompt(window)
    if neighbor_set is not None:
        user = render_neighbor_block(neighbor_set) + "\n" + user

    return PromptBundle(
        system=system,
        user=user,
        strategy=strategy,
        window_id=f"{window.series_id}:{window.context_start}",
        horizon=window.horizon,
        neighbor_count=len(neighbor_set.entries) if neighbor_set else 0,
        template_version=template.version,
    )
