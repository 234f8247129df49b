"""Shared construction of the fixed window and bundles pinned by the golden
prompt files, and the renderers that compose them from the prompting
functions alone: the oracle for the text a run's plan renders."""

from __future__ import annotations

from pathlib import Path

from tsf.dataset import Dataset, Series, format_value
from tsf.prompting import PromptBundle, Strategy, neighbor_block, system_prompt, user_prompt

GOLDEN_DIR = Path(__file__).parent / "golden"

DESCRIPTION = "the total regional humidity"
INTERVAL_SECONDS = 600
CONTEXT_LEN = 96
HORIZON = 3


def _value(i: int) -> float:
    return ((i * 37) % 100) / 10


def golden_series() -> tuple[float, ...]:
    """The humidity series the golden window and its neighbors are windows of."""
    return tuple(_value(i) for i in range(CONTEXT_LEN + 5))


def golden_dataset() -> Dataset:
    """golden_series as the one series of a dataset, stamped every
    INTERVAL_SECONDS from 0 (a midnight)."""
    values = golden_series()
    return Dataset("golden", tuple(INTERVAL_SECONDS * i for i in range(len(values))),
                   (Series("humidity", DESCRIPTION, values),))


def golden_window() -> tuple[str, int]:
    """The golden window, as (series id, start): the first CONTEXT_LEN values
    of golden_series, followed by its HORIZON values of truth."""
    return ("humidity", 0)


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


def compose(strategy: Strategy, dataset: Dataset, window: tuple[str, int], horizon: int,
            context_len: int, patch_window: int = 3, patch_stride: int = 1, k: int = 5,
            neighbor_windows=None) -> PromptBundle:
    """One request's bundle for the window (series id, start) of dataset,
    composed from the prompting functions alone; neighbor_windows holds the
    values of each neighbor shown, nearest first."""
    series_id, start = window
    (series,) = [s for s in dataset.series if s.id == series_id]
    context = series.values[start : start + context_len].tolist()
    block = None if neighbor_windows is None else render_neighbor_block(neighbor_windows)
    return PromptBundle(
        system=system_prompt(strategy, series.description, dataset.interval_seconds, horizon,
                             len(context), patch_window, patch_stride, k,
                             int(dataset.timestamps[start])),
        user=user_prompt(render_sequence(context), horizon, block),
        strategy=strategy,
        window_id=f"{series_id}:{start}",
        horizon=horizon,
    )


def golden_bundle(strategy: Strategy) -> PromptBundle:
    shown = golden_neighbor_windows() if strategy.uses_neighbors else None
    return compose(strategy, golden_dataset(), golden_window(), HORIZON, CONTEXT_LEN,
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
