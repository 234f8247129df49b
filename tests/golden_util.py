"""Shared construction of the fixed window and bundles pinned by the golden
prompt files."""

from __future__ import annotations

from pathlib import Path

from tsf.dataset import EvalWindow
from tsf.neighbors import CandidateWindow, NeighborSet
from tsf.prompting import (
    PromptBundle,
    Strategy,
    render_neighbor_block,
    render_sequence,
    system_prompt,
    user_prompt,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

DESCRIPTION = "the total regional humidity"
INTERVAL_SECONDS = 600
CONTEXT_LEN = 96
HORIZON = 3


def _value(i: int) -> float:
    return ((i * 37) % 100) / 10


def golden_window() -> EvalWindow:
    return EvalWindow(
        series_id="humidity",
        context=tuple(_value(i) for i in range(CONTEXT_LEN)),
        context_start=0,
        horizon=HORIZON,
        truth=tuple(_value(i) for i in range(CONTEXT_LEN, CONTEXT_LEN + HORIZON)),
        start_timestamp=0,
    )


def golden_neighbors() -> NeighborSet:
    entries = tuple(
        (
            CandidateWindow(
                series_id="humidity",
                start_index=j,
                values=tuple(_value(i + j + 1) for i in range(CONTEXT_LEN)),
            ),
            float(j + 1),
        )
        for j in range(5)
    )
    return NeighborSet(k=5, entries=entries)


def compose(strategy: Strategy, window: EvalWindow, description: str, interval_seconds: int,
            patch_window: int = 3, patch_stride: int = 1, k: int = 5,
            neighbor_set: NeighborSet | None = None) -> PromptBundle:
    """One request's bundle, composed from the prompting functions alone."""
    block = None if neighbor_set is None else render_neighbor_block(neighbor_set)
    return PromptBundle(
        system=system_prompt(strategy, description, interval_seconds, window.horizon,
                             len(window.context), patch_window, patch_stride, k,
                             window.start_timestamp),
        user=user_prompt(render_sequence(window.context), window.horizon, block),
        strategy=strategy,
        window_id=f"{window.series_id}:{window.context_start}",
        horizon=window.horizon,
    )


def golden_bundle(strategy: Strategy) -> PromptBundle:
    neighbor_set = golden_neighbors() if strategy.uses_neighbors else None
    return compose(strategy, golden_window(), DESCRIPTION, INTERVAL_SECONDS,
                   neighbor_set=neighbor_set)


def render_bundle(bundle: PromptBundle) -> str:
    return f"### SYSTEM\n{bundle.system}\n### USER\n{bundle.user}\n"


def golden_path(strategy: Strategy) -> Path:
    return GOLDEN_DIR / f"{strategy.value}.txt"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for strategy in Strategy:
        golden_path(strategy).write_text(
            render_bundle(golden_bundle(strategy)), encoding="utf-8"
        )
        print(f"wrote {golden_path(strategy)}")
