"""CSV ingestion, evaluation-window starts, and prompt value formatting."""

from __future__ import annotations

import csv
import functools
import math
import operator
from dataclasses import dataclass, field
from datetime import datetime, timezone
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import numpy as np

from .errors import (
    DuplicateSeries,
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    NonNumericValue,
    NonUniformSampling,
    SeriesTooShort,
)


def _frozen(x, dtype) -> np.ndarray:
    """x as a read-only array of dtype, cast safely (no float or out-of-range stamp
    becomes an int): x itself when neither it nor the array it views is writeable."""
    if (isinstance(x, np.ndarray) and x.dtype == dtype and not x.flags.writeable
            and not (isinstance(x.base, np.ndarray) and x.base.flags.writeable)):
        return x
    a = np.array(x).astype(dtype, casting="safe", copy=False)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Series:
    """One named sequence of real values, one per stamp of its Dataset's clock,
    held as read-only float64. Other inputs are copied, so a caller's list or
    writable array may change without changing it."""

    id: str
    description: str
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, np.float64))
        if not np.isfinite(self.values).all():
            raise NonFiniteValue(f"series {self.id!r} contains a non-finite value")


@dataclass(frozen=True, eq=False)
class Dataset:
    """Series of distinct ids on one clock: read-only int64 epoch seconds that
    rise by one interval, with one value of each series per stamp. So (series
    id, start) names a window, and a window's stamps say which windows precede
    it in every series. The clock is copied as Series values are."""

    name: str
    timestamps: np.ndarray
    series: tuple[Series, ...]

    def __post_init__(self):
        object.__setattr__(self, "timestamps", stamps := _frozen(self.timestamps, np.int64))
        if not self.series or not len(stamps) or any(s.values.shape != stamps.shape
                                                      for s in self.series):
            raise ValueError("a dataset needs a clock and series of one value per stamp")
        ids = set()
        for s in self.series:
            if s.id in ids:
                raise DuplicateSeries(f"dataset {self.name!r}: series id {s.id!r} repeats")
            ids.add(s.id)
        interval = self.interval_seconds
        if interval <= 0:
            raise NonUniformSampling(
                f"dataset {self.name!r}: interval of {interval}s is not positive")
        lo, hi = stamps[:-1], stamps[1:]
        # int64 gaps wrap; where the stamps rise, their uint64 view is exact
        wrong = ((hi - lo).view(np.uint64) != interval) | (hi <= lo)
        if np.count_nonzero(wrong):
            i = int(wrong.argmax())
            raise NonUniformSampling(f"dataset {self.name!r}: gap of {int(hi[i]) - int(lo[i])}s"
                                     f" where {interval}s expected")

    @property
    def interval_seconds(self) -> int:
        """The clock's one gap, as an int, which may exceed int64; 1 for one stamp."""
        t = self.timestamps
        return int(t[1]) - int(t[0]) if len(t) > 1 else 1

    @property
    def feature_count(self) -> int:
        return len(self.series)


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
    if "-" not in raw[1:] and ":" not in raw:  # every string int() takes passes this
        try:
            ts = int(raw)
        except ValueError:
            pass
        else:
            if -1 << 63 <= ts < 1 << 63:  # int64, as a Series holds stamps
                return ts
            raise NonNumericValue(row, column, raw)
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


def _columns(f, path, schema: CsvSchema) -> tuple[list[str], int, list[int]]:
    """Read the header row of open file f: the value column names, the
    timestamp column's index and the value columns' indices."""
    try:
        header = next(csv.reader(f))
    except StopIteration:
        raise EmptyFile(f"{path}: no header row") from None
    header = [h.strip() for h in header]
    ts = schema.timestamp_column
    if ts not in header:
        raise MissingColumn(f"timestamp column {ts!r} not in header")
    if header.count(ts) > 1:  # which of them is the clock?
        raise DuplicateSeries(f"{path}: header names timestamp column {ts!r} more than once")
    value_cols = (list(schema.value_columns) if schema.value_columns is not None
                  else [c for c in header if c != ts])
    if not value_cols:
        raise MissingColumn("schema names no value columns")
    for c in value_cols:
        if c == ts:
            raise DuplicateSeries(f"{path}: value column {c!r} is the timestamp column")
        if c not in header:
            raise MissingColumn(f"value column {c!r} not in header")
        if header.count(c) > 1:  # which of them holds the series?
            raise DuplicateSeries(f"{path}: header names value column {c!r} more than once")
    return value_cols, header.index(ts), [header.index(c) for c in value_cols]


def _load_rows(path, schema: CsvSchema):
    """load_csv cell by cell: every row through csv, every stamp through
    _parse_timestamp and every value through float(), so each error names
    its row and column. Returns what _load_chunks does, as arrays of its own."""
    with open(path, newline="", encoding="utf-8") as f:
        value_cols, ts_idx, idx = _columns(f, path, schema)
        pick = operator.itemgetter(*idx) if len(idx) > 1 else lambda row: (row[idx[0]],)

        stamps, rows = [], []
        for i, row in enumerate(csv.reader(f), start=2):
            if not any(map(str.strip, row)):
                continue
            stamps.append(_parse_timestamp(_cell(row, ts_idx), i, schema.timestamp_column))
            try:
                vals = list(map(float, pick(row)))
            except (ValueError, IndexError):  # a bad or missing cell
                vals = None
            if vals is None or not all(map(math.isfinite, vals)):
                vals = _checked_values(row, i, value_cols, idx)  # names a bad cell
            rows.append(vals)
    return value_cols, np.array(stamps, dtype=np.int64), np.array(rows, dtype=float).T.copy()


_CHUNK_CHARS = 1 << 20  # about 7,000 rows of a 21-column table
_EPOCH_CHARS = str.maketrans("", "", "0123456789-,")  # the cast alone reads "+5", " 5", "1_0"
# byte offsets in "YYYY-MM-DD?HH:MM:SS," of its digits, and of its separators
# "--::," ("?", at 10, is "T" or " "); the days of each month of a common year
_ISO_DIGITS = [0, 1, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18]
_ISO_SEPARATORS = [4, 7, 13, 16, 19]
_MONTH_DAYS = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])


def _iso_seconds(text: str, n: int):
    """Epoch seconds, as int64, of the n stamps in text, each followed by a
    comma, when they are all YYYY-MM-DD HH:MM:SS with T or space, naive and so
    UTC; None unless every stamp is one, of a real date and time: year 0001
    to 9999, a day its month has under the Gregorian leap rule, hour up to
    23, minute and second up to 59. datetime.fromisoformat, and so
    _parse_timestamp, reads each such stamp as that time.

    Checked and converted by integer arithmetic on the bytes of text, as n
    rows of 20; days from civil after H. Hinnant, "chrono-Compatible
    Low-Level Date Algorithms"."""
    # rows of 20 whose only comma is the last (checked below) are stamps of 19
    if not text.isascii() or len(text) != 20 * n:
        return None
    b = np.frombuffer(text.encode(), np.uint8).reshape(n, 20)
    d = b[:, _ISO_DIGITS] - np.uint8(ord("0"))  # wraps above 9 for every non-digit
    if ((d > 9).any() or (b[:, _ISO_SEPARATORS] != np.frombuffer(b"--::,", np.uint8)).any()
            or ((b[:, 10] != ord("T")) & (b[:, 10] != ord(" "))).any()):
        return None
    d = d.astype(np.int64)
    year = d[:, 0] * 1000 + d[:, 1] * 100 + d[:, 2] * 10 + d[:, 3]
    month, day, hour, minute, second = (d[:, i] * 10 + d[:, i + 1] for i in range(4, 14, 2))
    if not ((1 <= month) & (month <= 12)).all():
        return None
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[month - 1] + (leap & (month == 2))
    if not ((year > 0) & (1 <= day) & (day <= month_days)
            & (hour <= 23) & (minute <= 59) & (second <= 59)).all():
        return None
    y = year - (month <= 2)  # years from March, so a leap day ends its year
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719_468
    return days * 86_400 + hour * 3_600 + minute * 60 + second


def _chunk_stamps(stamps: list[str]):
    """Epoch seconds of one chunk's stamps as int64, or None unless every
    stamp is an epoch int, or every stamp an ISO datetime _iso_seconds
    converts: the stamps _parse_timestamp reads, read alike."""
    joined = ",".join(stamps)  # a stamp holds no comma
    # ASCII digits and "-" only; an ISO chunk's first stamp spares the scan of the rest
    if not stamps[0].translate(_EPOCH_CHARS) and not joined.translate(_EPOCH_CHARS):
        try:
            return np.array(stamps, dtype=np.int64)
        except (ValueError, OverflowError):  # "", "-", "1-2" or beyond int64
            return None
    return _iso_seconds(joined + ",", len(stamps))


def _parse_chunk(text: str, ts_idx: int, idx: list[int]):
    """(stamps, values) of a chunk of whole lines ending in LF or CRLF, less
    the lines whose cells are all blank (as in _load_rows), or None on any
    doubt: a quote or a lone carriage return (csv would split the lines
    otherwise), a line longer than csv's field limit, a short or non-numeric
    row, stamps _chunk_stamps declines, or a non-finite value."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    if '"' in text or "\r" in text:
        return None
    # an ASCII line's whitespace is " \t\v\f\x1c\x1d\x1e\x1f": the cheap test first
    lines = [line for line in text.split("\n") if line.strip(" ,\t\v\f\x1c\x1d\x1e\x1f")
             and (line.isascii() or line.replace(",", "").strip())]
    if not lines:
        return np.empty(0, np.int64), np.empty((0, len(idx)))
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        stamps = _chunk_stamps([line.split(",", ts_idx + 1)[ts_idx] for line in lines])
        if stamps is None:
            return None
        values = np.loadtxt(
            lines, delimiter=",", comments=None, usecols=idx, dtype=float, ndmin=2
        )
    except (ValueError, IndexError, OverflowError):
        return None
    if len(values) != len(lines) or not np.isfinite(values).all():
        return None
    return stamps, values


def _line_count(path) -> int:
    """The newlines in the file at path, plus one: the lines it splits into,
    and so a bound on its data rows."""
    block, count = np.empty(1 << 16, np.uint8), 1
    with open(path, "rb") as f:
        while n := f.readinto(block):
            count += np.count_nonzero(block[:n] == ord("\n"))
    return count


def _load_chunks(path, schema: CsvSchema):
    """load_csv vectorised over chunks of lines: (value columns, int64 stamps
    in file order, float64 values with one row per value column), or None when
    a chunk is in doubt, so that _load_rows reads the file and raises any error.

    Each chunk's stamps and values are written in place into one stamps array
    and one (columns x rows) values array, sized by _line_count and returned
    as read-only views trimmed to the rows parsed."""
    with open(path, newline="", encoding="utf-8") as f:
        value_cols, ts_idx, idx = _columns(f, path, schema)
        size = _line_count(path)
        stamps, values = np.empty(size, np.int64), np.empty((len(idx), size))
        n = 0
        try:
            while text := f.read(_CHUNK_CHARS):
                text += f.readline()  # whole lines, held as one string
                parsed = _parse_chunk(text, ts_idx, idx)
                if parsed is None:
                    return None
                end = n + len(parsed[0])
                stamps[n:end], values[:, n:end] = parsed[0], parsed[1].T
                n = end
                del parsed  # so that no chunk's arrays are held while the next one parses
        except UnicodeDecodeError:  # its byte position depends on how the file is read
            return None
    if not n:
        return None
    stamps.flags.writeable = values.flags.writeable = False
    return value_cols, stamps[:n], values[:, :n]


def load_csv(path, schema: CsvSchema, name: str | None = None) -> Dataset:
    """Load a CSV file into a Dataset, one Series per value column. The
    Dataset's clock is one read-only timestamps array, and the series' values
    are the rows of one read-only (columns x rows) array, which no Series copies.

    Chunks of lines parse with numpy straight into those arrays; a file with
    any doubt parses again cell by cell, so each error names its row and
    column. Rows are then sorted by timestamp (stably, into new arrays, and
    only when they are out of order); the Dataset checks that sampling is
    uniform.
    """
    value_cols, stamps, values = _load_chunks(path, schema) or _load_rows(path, schema)
    if not len(stamps):
        raise EmptyFile(f"{path}: no data rows")
    if (stamps[1:] < stamps[:-1]).any():
        order = np.argsort(stamps, kind="stable")
        # take keeps each row contiguous; values[:, order] views a (rows x columns) array
        stamps, values = stamps[order], values.take(order, axis=1)
    stamps.flags.writeable = values.flags.writeable = False
    return Dataset(
        name=name if name is not None else str(path),
        timestamps=stamps,
        series=tuple(Series(c, schema.descriptions.get(c, c), column)
                     for c, column in zip(value_cols, values)),
    )


def window_starts(dataset: Dataset, context_len: int, horizon: int, stride: int) -> range:
    """Starts 0, stride, 2*stride, ... of every whole evaluation window, the
    same in every series of the dataset."""
    if context_len < 1 or horizon < 1 or stride < 1:
        raise ValueError("context_len, horizon and stride must be >= 1")
    n = len(dataset.timestamps)
    if n < context_len + horizon:
        raise SeriesTooShort(
            f"dataset {dataset.name!r} has {n} points; needs {context_len + horizon}"
        )
    return range(0, n - context_len - horizon + 1, stride)


_DECIMALS = 4  # places a prompt value keeps at most


@functools.lru_cache(maxsize=1 << 14)
def format_value(x: float) -> str:
    """Render a value for prompts: <= _DECIMALS places, half-to-even,
    trailing zeros stripped, leading zero kept, "-0" normalized to "0".
    Memoised: prompts repeat values, and the Decimal path is slow.
    """
    if not math.isfinite(x):
        raise NonFiniteValue(f"cannot format {x!r}")
    with localcontext() as ctx:
        ctx.prec = 60
        q = Decimal(repr(float(x))).quantize(
            Decimal(1).scaleb(-_DECIMALS), rounding=ROUND_HALF_EVEN
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
