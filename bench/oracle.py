"""Expected outputs computed by the benchmark from its own generated arrays.

Nothing here calls the program: each check compares what the program
reported against numpy arithmetic on the (features, rows) value array.
"""

from __future__ import annotations

import math
import re

import numpy as np

CONTEXT_LEN = 96
STRIDE = 96
REL_TOL = 1e-9

_NEIGHBOR_RE = re.compile(r"^Neighbor (\d+): <([^<>]*)>$", re.MULTILINE)


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel * 1e-3)


def windows_per_series(rows: int, horizon: int) -> int:
    """Windows slice_windows yields at stride 96: floor((rows-96-h)/96)+1."""
    return (rows - CONTEXT_LEN - horizon) // STRIDE + 1


def persistence_error(values: np.ndarray, windows, horizon: int) -> tuple[float, float]:
    """Mean over windows of the MSE and MAE of repeating the last context
    value. windows is a list of (feature index, context start)."""
    mses, maes = [], []
    for j, start in windows:
        end = start + CONTEXT_LEN
        err = values[j, end - 1] - values[j, end : end + horizon]
        mses.append(np.mean(err * err))
        maes.append(np.mean(np.abs(err)))
    return float(np.mean(mses)), float(np.mean(maes))


def all_windows(n_features: int, rows: int, horizon: int):
    n = windows_per_series(rows, horizon)
    return [(j, i * STRIDE) for j in range(n_features) for i in range(n)]


def _znorm_rows(m: np.ndarray) -> np.ndarray:
    mean = m.mean(axis=-1, keepdims=True)
    sd = m.std(axis=-1, keepdims=True)
    return np.where(sd == 0, m - mean, (m - mean) / np.where(sd == 0, 1.0, sd))


def check_neighbors(values: np.ndarray, j: int, start: int, user_prompt: str,
                    k: int, znorm: bool) -> list[str]:
    """Exhaustive search over every length-96 window of every feature that
    ends before the target context; returns the problems found."""
    problems = []
    L = CONTEXT_LEN
    target = values[j, start : start + L]
    cands = np.lib.stride_tricks.sliding_window_view(values[:, : start], L, axis=1)
    cands = cands.reshape(-1, L)  # every window ending before `start`
    t = _znorm_rows(target) if znorm else target
    c = _znorm_rows(cands) if znorm else cands
    oracle = np.sort(np.sqrt(((c - t) ** 2).sum(axis=1)))[:k]

    listed = _NEIGHBOR_RE.findall(user_prompt)
    if len(listed) != len(oracle):
        return [f"{len(listed)} neighbors listed, expected {len(oracle)}"]
    dists = []
    for pos, (idx, body) in enumerate(listed, start=1):
        if int(idx) != pos:
            problems.append(f"neighbor line {pos} is numbered {idx}")
        vals = np.array([float(tok) for tok in body.split(", ")])
        if vals.shape != (L,):
            problems.append(f"neighbor {pos} has {vals.size} values")
            continue
        match = np.flatnonzero((cands == vals).all(axis=1))
        if match.size == 0:
            problems.append(f"neighbor {pos} is not a window that ends before the target")
            continue
        v = _znorm_rows(vals) if znorm else vals
        dists.append(float(np.sqrt(((v - t) ** 2).sum())))
    if any(b < a for a, b in zip(dists, dists[1:])):
        problems.append(f"neighbor distances not nondecreasing: {dists}")
    for pos, (got, want) in enumerate(zip(dists, oracle), start=1):
        if not close(got, float(want)):
            problems.append(f"neighbor {pos} distance {got!r} != oracle {float(want)!r}")
    return problems
