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
    opening = text.find("[")
    closing = text.find("]")
    while closing >= 0 and (depth or opening >= 0):  # else no group can close
        if 0 <= opening < closing:
            if depth == 0:
                start = opening
            depth += 1
            opening = text.find("[", opening + 1)
        else:
            if depth > 0:
                depth -= 1
                if depth == 0:
                    groups.append(text[start : closing + 1])
            closing = text.find("]", closing + 1)
    return groups


def _parse_flat(group: str) -> Optional[list[float]]:
    """Parse a flat "[a, b, c]" into floats; None when any element is
    non-numeric."""
    tokens = [t.strip().rstrip(".") for t in group[1:-1].split(",")]
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
    if not candidates:  # no list after a marker: search the whole text from its end
        candidates = _bracket_groups(text)[::-1]
    if not candidates:
        raise NoListFound("no bracketed list in text")

    chosen: Optional[list[float]] = None
    saw_flat = False
    for group in candidates:
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
