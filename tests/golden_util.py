"""Shared construction of the fixed window and bundles pinned by the golden
prompt files."""

from pathlib import Path

from tsf.dataset import EvalWindow
from tsf.neighbors import CandidateWindow, NeighborSet
from tsf.prompting import PromptBundle, PromptText, Strategy

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
        context_timestamps=tuple(600 * i for i in range(CONTEXT_LEN)),
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


def golden_bundle(strategy: Strategy) -> PromptBundle:
    neighbor_set = golden_neighbors() if strategy.uses_neighbors else None
    return PromptText().assemble(
        strategy,
        golden_window(),
        series_description=DESCRIPTION,
        interval_seconds=INTERVAL_SECONDS,
        neighbor_set=neighbor_set,
    )


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
