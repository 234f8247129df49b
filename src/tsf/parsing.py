"""Extraction of numeric forecasts from raw LLM output text."""

from __future__ import annotations

import math
from typing import Optional

from .errors import NoListFound, NonNumericElement, WrongCount

PREDICTION_MARKER = "Prediction:"


def _bracket_groups(text: str) -> list[str]:
    """Balanced [...] spans; unclosed groups are dropped."""
    groups = []
    depth = 0
    start = -1
    for i, ch in enumerate(text):
        if ch == "[":
            if depth == 0:
                start = i
            depth += 1
        elif ch == "]":
            if depth > 0:
                depth -= 1
                if depth == 0:
                    groups.append(text[start : i + 1])
    return groups


def _parse_flat(group: str) -> Optional[list[float]]:
    """Parse "[a, b, c]" into floats; None when the group is nested or any
    element is non-numeric."""
    inner = group[1:-1]
    if "[" in inner or "]" in inner:
        return None
    tokens = [t.strip().rstrip(".") for t in inner.split(",")]
    if not tokens or tokens == [""]:
        return None
    values = []
    for t in tokens:
        try:
            v = float(t)
        except ValueError:
            return None
        if not math.isfinite(v):
            return None
        values.append(v)
    return values


def parse_prediction(text: str, h: int, lenient: bool = False) -> list[float]:
    """Numeric forecast from raw LLM text.

    Prefers the first list after the last "Prediction:" marker; otherwise the
    last top-level flat numeric list in the text. Strict mode insists on
    exactly h values; lenient mode truncates or pads with the last value.
    """
    if h < 1:
        raise ValueError("horizon must be >= 1")
    marker_at = text.rfind(PREDICTION_MARKER)
    candidates: list[str] = []
    if marker_at >= 0:
        candidates = _bracket_groups(text[marker_at + len(PREDICTION_MARKER) :])
    if not candidates:
        candidates = _bracket_groups(text)
    if not candidates:
        raise NoListFound("no bracketed list in text")

    chosen: Optional[list[float]] = None
    saw_flat = False
    search = candidates if marker_at >= 0 else list(reversed(candidates))
    for group in search:
        inner = group[1:-1]
        if "[" in inner:
            continue
        saw_flat = True
        values = _parse_flat(group)
        if values is not None:
            chosen = values
            break
    if chosen is None:
        if saw_flat:
            raise NonNumericElement("flat list found but not all elements numeric")
        raise NoListFound("no flat numeric list in text")

    if len(chosen) != h:
        if not lenient:
            raise WrongCount(len(chosen), h)
        if len(chosen) > h:
            chosen = chosen[:h]
        else:
            chosen = chosen + [chosen[-1]] * (h - len(chosen))
    return chosen
