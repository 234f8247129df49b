"""CSV ingestion, evaluation-window slicing, and prompt value formatting."""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

from .errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    NonNumericValue,
    NonUniformSampling,
    SeriesTooShort,
)


def _check_sampling(timestamps: tuple[int, ...], interval: int, where: str) -> None:
    for a, b in zip(timestamps, timestamps[1:]):
        if b - a != interval:
            raise NonUniformSampling(f"{where}gap of {b - a}s where {interval}s expected")


@dataclass(frozen=True)
class Series:
    """One named, uniformly sampled sequence of timestamped real values."""

    id: str
    description: str
    interval_seconds: int
    timestamps: tuple[int, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.timestamps) != len(self.values) or not self.values:
            raise ValueError("timestamps and values must be equal-length and non-empty")
        for v in self.values:
            if not math.isfinite(v):
                raise NonFiniteValue(f"series {self.id!r} contains a non-finite value")
        _check_sampling(self.timestamps, self.interval_seconds, f"series {self.id!r}: ")

    def __len__(self) -> int:
        return len(self.values)


def _prechecked_series(**fields) -> Series:
    """A Series whose values and timestamps load_csv has already checked, cell
    by cell and gap by gap; it skips the same checks in Series.__post_init__."""
    series = object.__new__(Series)
    series.__dict__.update(fields)  # frozen: no __setattr__
    return series


@dataclass(frozen=True)
class Dataset:
    name: str
    series: tuple[Series, ...]

    def __post_init__(self):
        if not self.series:
            raise ValueError("dataset must contain at least one series")
        first = self.series[0]
        for s in self.series[1:]:
            if s.interval_seconds != first.interval_seconds or (
                s.timestamps is not first.timestamps and s.timestamps != first.timestamps
            ):
                raise ValueError("all series in a dataset must share timestamps")

    @property
    def feature_count(self) -> int:
        return len(self.series)


@dataclass(frozen=True)
class EvalWindow:
    """A context slice plus its ground-truth continuation."""

    series_id: str
    context: tuple[float, ...]
    context_start: int
    horizon: int
    truth: tuple[float, ...]
    context_timestamps: tuple[int, ...]

    def __post_init__(self):
        if len(self.truth) != self.horizon:
            raise ValueError("truth length must equal horizon")
        if len(self.context_timestamps) != len(self.context):
            raise ValueError("context_timestamps length must equal context length")


@dataclass(frozen=True)
class CsvSchema:
    """Column mapping for load_csv.

    value_columns None means every non-timestamp column. descriptions maps a
    column name to the human-readable text used in prompts.
    """

    timestamp_column: str
    value_columns: tuple[str, ...] | None = None
    descriptions: dict = field(default_factory=dict)


def _parse_timestamp(raw: str, row: int, column: str) -> int:
    raw = raw.strip()
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise NonNumericValue(row, column, raw) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _cell(row: list[str], j: int) -> str:
    """A row's cell j; a short row's missing cells read as empty."""
    return row[j] if j < len(row) else ""


def _checked_values(row: list[str], i: int, columns: list[str], idx: list[int]) -> list[float]:
    """Row i's values parsed cell by cell, in column order; the first cell that
    is not a finite number raises NonNumericValue naming it."""
    vals = []
    for c, j in zip(columns, idx):
        raw = _cell(row, j).strip()
        try:
            v = float(raw)
        except ValueError:
            raise NonNumericValue(i, c, raw) from None
        if not math.isfinite(v):
            raise NonNumericValue(i, c, raw)
        vals.append(v)
    return vals


def load_csv(path, schema: CsvSchema, name: str | None = None) -> Dataset:
    """Load a CSV file into a Dataset, one Series per value column.

    Rows are sorted by timestamp; sampling must be uniform.
    """
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyFile(f"{path}: no header row") from None
        header = [h.strip() for h in header]
        if schema.timestamp_column not in header:
            raise MissingColumn(f"timestamp column {schema.timestamp_column!r} not in header")
        value_cols = (
            list(schema.value_columns)
            if schema.value_columns is not None
            else [c for c in header if c != schema.timestamp_column]
        )
        if not value_cols:
            raise MissingColumn("schema names no value columns")
        for c in value_cols:
            if c not in header:
                raise MissingColumn(f"value column {c!r} not in header")
        ts_idx = header.index(schema.timestamp_column)
        idx = [header.index(c) for c in value_cols]
        pick = operator.itemgetter(*idx) if len(idx) > 1 else lambda row: (row[idx[0]],)

        rows = []
        for i, row in enumerate(reader, start=2):
            if not any(map(str.strip, row)):
                continue
            ts = _parse_timestamp(_cell(row, ts_idx), i, schema.timestamp_column)
            try:
                vals = list(map(float, pick(row)))
            except (ValueError, IndexError):  # a bad or missing cell
                vals = None
            if vals is None or not all(map(math.isfinite, vals)):
                vals = _checked_values(row, i, value_cols, idx)  # names a bad cell
            rows.append((ts, vals))

    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    rows.sort(key=operator.itemgetter(0))
    timestamps = tuple(map(operator.itemgetter(0), rows))
    if len(timestamps) > 1:
        interval = timestamps[1] - timestamps[0]
        if interval <= 0:
            raise NonUniformSampling("duplicate or non-increasing timestamps")
        _check_sampling(timestamps, interval, "")
    else:
        interval = 1
    value_rows = list(map(operator.itemgetter(1), rows))
    del rows  # frees the row pairs before the columns are built, keeping peak memory down

    dataset_name = name if name is not None else str(path)
    series = tuple(
        _prechecked_series(
            id=c,
            description=schema.descriptions.get(c, c),
            interval_seconds=interval,
            timestamps=timestamps,
            values=tuple(map(operator.itemgetter(j), value_rows)),
        )
        for j, c in enumerate(value_cols)
    )
    return Dataset(name=dataset_name, series=series)


def window_starts(series: Series, context_len: int, horizon: int, stride: int) -> range:
    """Starts 0, stride, 2*stride, ... of every whole evaluation window."""
    if context_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("context_len, horizon and stride must be >= 1")
    n = len(series)
    if n < context_len + horizon:
        raise SeriesTooShort(
            f"series {series.id!r} has {n} points; needs {context_len + horizon}"
        )
    return range(0, n - context_len - horizon + 1, stride)


def eval_window(series: Series, start: int, context_len: int, horizon: int) -> EvalWindow:
    """The window whose context begins at `start`; its truth follows it."""
    end = start + context_len
    return EvalWindow(
        series_id=series.id,
        context=series.values[start:end],
        context_start=start,
        horizon=horizon,
        truth=series.values[end : end + horizon],
        context_timestamps=series.timestamps[start:end],
    )


def slice_windows(
    series: Series, context_len: int, horizon: int, stride: int = 96
) -> list[EvalWindow]:
    """Slice evaluation windows at starts 0, stride, 2*stride, ..."""
    return [
        eval_window(series, start, context_len, horizon)
        for start in window_starts(series, context_len, horizon, stride)
    ]


@functools.lru_cache(maxsize=1 << 14)
def format_value(x: float, max_decimals: int = 4) -> str:
    """Render a value for prompts: <= max_decimals places, half-to-even,
    trailing zeros stripped, leading zero kept, "-0" normalized to "0".
    Memoised: prompts repeat values, and the Decimal path is slow.
    """
    if not math.isfinite(x):
        raise NonFiniteValue(f"cannot format {x!r}")
    with localcontext() as ctx:
        ctx.prec = 60
        q = Decimal(repr(float(x))).quantize(
            Decimal(1).scaleb(-max_decimals), rounding=ROUND_HALF_EVEN
        )
        s = format(q.normalize(), "f")
    if s == "-0":
        s = "0"
    return s


def describe_interval(interval_seconds: int) -> str:
    """Humanize a sampling interval for prompt text, e.g. 600 -> "10 minutes"."""
    if interval_seconds % 3600 == 0:
        n = interval_seconds // 3600
        return "1 hour" if n == 1 else f"{n} hours"
    if interval_seconds % 60 == 0:
        n = interval_seconds // 60
        return "1 minute" if n == 1 else f"{n} minutes"
    return "1 second" if interval_seconds == 1 else f"{interval_seconds} seconds"
