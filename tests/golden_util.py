"""Shared construction of the fixed window and bundles pinned by the golden
prompt files, and the renderers that compose them from the prompting
functions alone: the oracle for the text a run's plan renders."""

from __future__ import annotations

from pathlib import Path

from tsf.dataset import EvalWindow, format_value
from tsf.prompting import PromptBundle, Strategy, neighbor_block, system_prompt, user_prompt

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


def golden_series() -> tuple[float, ...]:
    """The humidity series the golden window and its neighbors are windows of."""
    return tuple(_value(i) for i in range(CONTEXT_LEN + 5))


def golden_neighbors() -> tuple[tuple[str, int, float], ...]:
    """The golden neighbors, as (series id, start, distance) entries over
    golden_series: the windows at starts 1 to 5."""
    return tuple(("humidity", j + 1, float(j + 1)) for j in range(5))


def golden_neighbor_windows() -> list[tuple[float, ...]]:
    """The values of each golden neighbor's window, nearest first."""
    values = golden_series()
    return [values[start : start + CONTEXT_LEN] for _, start, _ in golden_neighbors()]


def render_sequence(values) -> str:
    """The text "<v1, v2, ...>" of a window, each value by format_value."""
    return "<" + ", ".join(map(format_value, values)) + ">"


def render_neighbor_block(windows) -> str:
    """One `Neighbor i: <...>` line per window of values, nearest first."""
    return neighbor_block([render_sequence(w) for w in windows])


def compose(strategy: Strategy, window: EvalWindow, description: str, interval_seconds: int,
            patch_window: int = 3, patch_stride: int = 1, k: int = 5,
            neighbor_windows=None) -> PromptBundle:
    """One request's bundle, composed from the prompting functions alone;
    neighbor_windows holds the values of each neighbor shown, nearest first."""
    block = None if neighbor_windows is None else render_neighbor_block(neighbor_windows)
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
    shown = golden_neighbor_windows() if strategy.uses_neighbors else None
    return compose(strategy, golden_window(), DESCRIPTION, INTERVAL_SECONDS,
                   neighbor_windows=shown)


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
