"""Reference patch tokenizations: overlapping, non-overlapping and reversed
patches, and the daily slot index of the meta-token strategy.

The pipeline sends raw contexts and asks the model to patch them; nothing in
a run calls this module (see ROADMAP item 5)."""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

from .errors import InvalidClockTime, WindowTooLarge


class PatchStrategy(Enum):
    BASIC = "basic"
    NON_OVERLAPPING = "non-overlapping"
    REVERSE_ORDERED = "reverse-ordered"


class PatchOrder(Enum):
    NATURAL = "natural"
    REVERSED = "reversed"


@dataclass(frozen=True)
class Patch:
    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("patch must be non-empty")


@dataclass(frozen=True)
class PatchSet:
    strategy: PatchStrategy
    window: int
    stride: int
    patches: tuple[Patch, ...]
    order: PatchOrder = PatchOrder.NATURAL


def overlapping_patches(
    context: Sequence[float],
    w: int = 3,
    s: int = 1,
    strategy: PatchStrategy = PatchStrategy.BASIC,
) -> PatchSet:
    """Patches at offsets 0, s, 2s, ... each holding exactly w values."""
    n = len(context)
    if w < 1 or w > n:
        raise WindowTooLarge(f"window {w} not in [1, {n}]")
    if s < 1:
        raise ValueError("stride must be >= 1")
    patches = tuple(
        Patch(values=tuple(context[i : i + w])) for i in range(0, n - w + 1, s)
    )
    return PatchSet(strategy=strategy, window=w, stride=s, patches=patches)


def reverse_patches(ps: PatchSet) -> PatchSet:
    """Reverse the patch list so the most recent patch comes first."""
    if ps.order is not PatchOrder.NATURAL:
        raise ValueError("can only reverse a naturally ordered patch set")
    return replace(ps, patches=tuple(reversed(ps.patches)), order=PatchOrder.REVERSED)


def nonoverlapping_patches(context: Sequence[float], h: int) -> PatchSet:
    """Tile a suffix of the context with disjoint patches of width h.

    When len(context) is not a multiple of h the oldest leading values are
    dropped so the last patch always ends at the most recent value.
    """
    n = len(context)
    if h < 1:
        raise ValueError("window must be >= 1")
    if h > n:
        raise WindowTooLarge(f"window {h} exceeds context length {n}")
    offset = n % h
    patches = tuple(
        Patch(values=tuple(context[i : i + h])) for i in range(offset, n, h)
    )
    return PatchSet(
        strategy=PatchStrategy.NON_OVERLAPPING, window=h, stride=h, patches=patches
    )


def slot_index(hour: int, minute: int) -> int:
    """10-minute slot-of-day index: floor((60*hour + minute) / 10)."""
    if not (0 <= hour <= 23 and 0 <= minute <= 59):
        raise InvalidClockTime(f"{hour:02d}:{minute:02d} is not a valid clock time")
    return (60 * hour + minute) // 10
