import csv
import math
import random
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tsf import dataset, prompting, runner
from tsf.dataset import (
    CsvSchema,
    Dataset,
    Series,
    _parse_timestamp,
    format_value,
    load_csv,
    window_starts,
)
from tsf.errors import (
    DuplicateSeries,
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    NonNumericValue,
    NonUniformSampling,
    SeriesTooShort,
)
from tsf.llmgateway import BackendConfig, BackendKind
from tsf.prompting import Strategy, system_prompt
from tsf.runner import RunConfig

from conftest import make_dataset
from golden_util import render_sequence

SCHEMA = CsvSchema(timestamp_column="t")


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_three_row_readback(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0,1\n600,2\n1200,3\n")
        ds = load_csv(p, SCHEMA)
        assert ds.interval_seconds == 600
        assert tuple(ds.series[0].values.tolist()) == (1.0, 2.0, 3.0)
        assert tuple(ds.timestamps.tolist()) == (0, 600, 1200)

    def test_nonuniform_sampling(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0,1\n600,2\n1300,3\n")
        with pytest.raises(NonUniformSampling):
            load_csv(p, SCHEMA)

    def test_weather_shaped_feature_count(self, tmp_path):
        cols = [f"f{i}" for i in range(14)]
        header = "t," + ",".join(cols)
        rows = "\n".join(f"{600 * i}," + ",".join("1.0" for _ in cols) for i in range(3))
        p = write_csv(tmp_path, header + "\n" + rows + "\n")
        ds = load_csv(p, SCHEMA)
        assert ds.feature_count == 14

    def test_missing_column(self, tmp_path):
        p = write_csv(tmp_path, "time,v\n0,1\n")
        with pytest.raises(MissingColumn):
            load_csv(p, SCHEMA)

    def test_non_numeric_value_reports_row_and_column(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0,1\n600,oops\n")
        with pytest.raises(NonNumericValue) as exc:
            load_csv(p, SCHEMA)
        assert exc.value.row == 3
        assert exc.value.column == "v"

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "NaN"])
    def test_non_finite_value_reports_row_and_column(self, tmp_path, cell):
        p = write_csv(tmp_path, f"t,v,w\n0,1,2\n600,3,{cell}\n1200,5,6\n")
        with pytest.raises(NonNumericValue) as exc:
            load_csv(p, SCHEMA)
        assert (exc.value.row, exc.value.column, exc.value.raw) == (3, "w", cell)

    @pytest.mark.parametrize("text, column", [
        ("t,a,b\n0,1,2\n600,1.5\n", "b"),
        ("a,b,t\n1,2,0\n1.5,2\n", "t"),
        ("t,v\n0,1\n600\n", "v"),
    ])
    def test_short_row_reads_as_empty_cell(self, tmp_path, text, column):
        p = write_csv(tmp_path, text)
        with pytest.raises(NonNumericValue) as exc:
            load_csv(p, SCHEMA)
        assert (exc.value.row, exc.value.column, exc.value.raw) == (3, column, "")

    def test_first_bad_cell_in_column_order(self, tmp_path):
        p = write_csv(tmp_path, "t,u,v,w\n0,1,2,3\n600,4, nan ,oops\n")
        with pytest.raises(NonNumericValue) as exc:
            load_csv(p, SCHEMA)
        assert (exc.value.row, exc.value.column, exc.value.raw) == (3, "v", "nan")

    def test_cells_padded_with_any_whitespace(self, tmp_path):
        # float() alone rejects the trailing \x1c that str.strip() removes
        p = write_csv(tmp_path, "t,v,w\n0, 1 ,\t2\x1c\n600,\xa03,4\u2003\n")
        ds = load_csv(p, SCHEMA)
        assert [tuple(s.values.tolist()) for s in ds.series] == [(1.0, 3.0), (2.0, 4.0)]

    def test_duplicate_timestamp(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0,1\n0,2\n600,3\n")
        with pytest.raises(NonUniformSampling):
            load_csv(p, SCHEMA)

    def test_loaded_series_pass_direct_validation(self, tmp_path):
        p = write_csv(tmp_path, "t,v,w\n1200,3,6\n0,1.5,2\n600,2.25,4\n")
        ds = load_csv(p, SCHEMA)
        rebuilt = Dataset(ds.name, ds.timestamps,
                          tuple(Series(s.id, s.description, s.values) for s in ds.series))
        assert snapshot(rebuilt) == snapshot(ds)
        # read-only arrays over read-only memory are taken as they are, not copied
        assert rebuilt.timestamps is ds.timestamps
        assert all(a.values is b.values for a, b in zip(rebuilt.series, ds.series))

    def test_interval_wider_than_int64(self, tmp_path):
        p = write_csv(tmp_path, f"t,v\n{-2**63},1\n{2**63 - 1},2\n")
        assert load_csv(p, SCHEMA).interval_seconds == 2**64 - 1

    def test_empty_file(self, tmp_path):
        p = write_csv(tmp_path, "")
        with pytest.raises(EmptyFile):
            load_csv(p, SCHEMA)

    def test_header_only(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n")
        with pytest.raises(EmptyFile):
            load_csv(p, SCHEMA)

    def test_iso_timestamps(self, tmp_path):
        p = write_csv(
            tmp_path,
            "t,v\n1970-01-01T00:00:00,1\n1970-01-01T00:10:00,2\n1970-01-01T00:20:00,3\n",
        )
        ds = load_csv(p, SCHEMA)
        assert tuple(ds.timestamps.tolist()) == (0, 600, 1200)

    def test_rows_sorted_by_timestamp(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n1200,3\n0,1\n600,2\n")
        ds = load_csv(p, SCHEMA)
        assert tuple(ds.series[0].values.tolist()) == (1.0, 2.0, 3.0)

    def test_round_trip(self, tmp_path):
        p = write_csv(tmp_path, "t,v,w\n0,1.5,2\n600,2.25,4\n1200,3,6\n")
        ds = load_csv(p, SCHEMA)
        lines = ["t,v,w"]
        s1, s2 = ds.series
        for i, ts in enumerate(ds.timestamps):
            lines.append(f"{ts},{format_value(s1.values[i])},{format_value(s2.values[i])}")
        p2 = write_csv(tmp_path, "\n".join(lines) + "\n", name="rt.csv")
        ds2 = load_csv(p2, SCHEMA)
        assert ds2.series[0].values.tolist() == s1.values.tolist()
        assert ds2.series[1].values.tolist() == s2.values.tolist()
        assert ds2.timestamps.tolist() == ds.timestamps.tolist()


def per_cell(path, schema=SCHEMA):
    """load_csv with its vectorised path switched off: every row cell by cell."""
    with mock.patch.object(dataset, "_load_chunks", return_value=None):
        return load_csv(path, schema)


def snapshot(ds):
    """Everything a Dataset holds, with types, and values bit for bit."""
    return (ds.name, ds.interval_seconds, type(ds.interval_seconds),
            tuple(ds.timestamps.tolist()), ds.timestamps.dtype,
            [(s.id, s.description, s.values.dtype, [v.hex() for v in s.values.tolist()])
             for s in ds.series])


def load_outcome(load, path, schema):
    try:
        return snapshot(load(path, schema))
    except Exception as e:  # compared by type and message
        return type(e), str(e)


def epoch(ts):
    return str(ts)


def iso(sep, fmt="%Y-%m-%d{sep}%H:%M:%S", prefix="", suffix=""):
    def stamp(ts):
        return prefix + datetime.fromtimestamp(ts, timezone.utc).strftime(fmt.format(sep=sep)) + suffix
    return stamp


CLEAN_STYLES = [epoch, iso("T"), iso(" ")]
# stamp styles the vectorised path must leave to _parse_timestamp, applied to a whole column
ODD_STYLES = [
    iso("T", "%Y-%m-%d"), iso("T", "%Y-%m-%d{sep}%H:%M"), iso(" ", suffix=".5"),
    iso("T", suffix=".000"), iso("T", suffix="+00:00"), iso(" ", suffix="+01:00"),
    iso("T", suffix="Z"), iso("T", "0000-%m-%d{sep}%H:%M:%S"), iso("T", "%Y%m%d"),
    iso("T", "%Y%m%d{sep}%H%M%S"), iso(" ", prefix=" "), iso("T", suffix="\xa0"),
    lambda ts: f"+{ts}", lambda ts: f"{ts:_}", lambda ts: f" {ts}",
]
ODD_STAMPS = st.sampled_from([
    "1970-01-01", "1970-01-01T00:10", "1970-01-01 00:00:00.5", "1970-01-01T00:00:00.000",
    "1970-01-01T00:00:00+00:00", "1970-01-01 01:00:00+01:00", "1970-01-01T00:00:00Z",
    "1970-02-30T00:00:00", "1970-01-01T24:00:00", "1970-01-01T23:59:60", "1970-13-01 00:00:00",
    "0000-01-01T00:00:00", "10000-01-01T00:00:00", "20200101", "19700101", "+600", "1_200",
    " 600", "600 ", "\xa0600", "١٢٠٠", "-600", "-0", "007", "9" * 19, "-" + "9" * 18, "", "x",
    " 1970-01-01T00:00:00", "1970-01-01T00:00:00 ", "1970-01-01x00:00:00",
])
ODD_CELLS = st.sampled_from([
    "1_000", "١", "١.5", "inf", "-inf", "nan", "NaN", "infinity", "1e400", "-1e400", "1e-400",
    "", " ", " 1.5 ", "\xa02", "3\u2003", "4\x1c", "0x10", "#1", "1#", "-0", "+.5", "5.",
    "1e5", "1d5", "nan(1)", "\x001", "\v7", "8\f", '"1,2"', '"3",4',
])
LINE_ENDS = st.sampled_from(["\n"] * 6 + ["\r\n", "\r"])


@st.composite
def csv_files(draw, odd=True):
    """(text, schema) of a CSV of uniformly stamped rows of numbers, in which
    (when odd) the stamps may be of a style only datetime reads, and a few
    odd stamps, cells and lines may be planted. The schema may leave some
    columns unread."""
    n_values = draw(st.integers(1, 3))
    header = [f"v{j}" for j in range(n_values)]
    ts_col = draw(st.integers(0, n_values))
    header.insert(ts_col, "t")
    read = draw(st.one_of(st.none(), st.permutations(header[:ts_col] + header[ts_col + 1:])
                          .flatmap(lambda cols: st.integers(1, len(cols)).map(
                              lambda k: tuple(cols[:k])))))
    interval = draw(st.sampled_from([1, 600, 3600, 86400]))
    start = draw(st.integers(-10**9, 4 * 10**9))
    fmt = draw(st.sampled_from(CLEAN_STYLES * 5 + ODD_STYLES if odd else CLEAN_STYLES))
    cell = st.one_of(
        st.integers(-10**6, 10**6).map(lambda c: f"{c / 100:.2f}"),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-10**20, 10**20).map(str),
    )
    rows = []
    for i in range(draw(st.integers(0 if odd else 1, 25))):
        row = [draw(cell) for _ in range(n_values)]
        row.insert(ts_col, fmt(start + i * interval))
        rows.append(row)
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3])) if odd else 0):
        i = draw(st.integers(0, max(len(rows) - 1, 0)))
        kind = draw(st.sampled_from([
            "stamp", "cell", "blank", "commas", "short", "long", "quote", "hash",
            "crlf", "swap", "duplicate",
        ]))
        if not rows and kind not in ("blank", "commas"):
            continue
        if kind in ("stamp", "cell", "quote", "hash"):
            row = list(rows[i])
            j = ts_col if kind == "stamp" else draw(st.sampled_from(
                [j for j in range(len(row)) if j != ts_col]))
            if kind == "stamp":
                row[j] = draw(ODD_STAMPS)
            elif kind == "cell":
                row[j] = draw(ODD_CELLS)
            elif kind == "quote":  # a quoted comma moves csv's later cells one place left
                row[j] = draw(st.sampled_from(['"{}"', '"{},{}"'])).format(row[j], draw(cell))
            else:
                row[j] = row[j] + "#" + draw(st.sampled_from(["", "1", "x"]))
            lines[i] = ",".join(row)
        elif kind == "blank":
            lines.insert(i, draw(st.sampled_from(["", " ", "\t"])))
        elif kind == "commas":
            lines.insert(i, "," * draw(st.integers(1, 4)))
        elif kind == "short":
            lines[i] = lines[i].rsplit(",", 1)[0] if "," in lines[i] else ""
        elif kind == "long":
            lines[i] += "," + draw(st.sampled_from(["1", "", "x"]))
        elif kind == "crlf":
            lines[i] += "\r"
        elif kind == "swap":
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        else:
            lines.insert(i, lines[i])
    end = draw(LINE_ENDS) if odd else "\n"
    tail = draw(st.sampled_from([end, end, "", end + end]) if odd else st.sampled_from([end, ""]))
    text = ",".join(header) + end + end.join(lines) + (tail if lines else "")
    return text, CsvSchema(timestamp_column="t", value_columns=read)


class TestChunkedLoad:
    """load_csv's vectorised path gives per_cell's Dataset or error exactly."""

    @settings(max_examples=500, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file=csv_files(), chunk=st.integers(1, 300))
    def test_equals_per_cell(self, tmp_path, file, chunk):
        text, schema = file
        p = tmp_path / "data.csv"
        with open(p, "w", encoding="utf-8", newline="") as f:
            f.write(text)
        with mock.patch.object(dataset, "_CHUNK_CHARS", chunk):
            fast = load_outcome(load_csv, p, schema)
        assert fast == load_outcome(per_cell, p, schema)

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(file=csv_files(odd=False), chunk=st.integers(1, 300))
    def test_clean_files_equal_per_cell(self, tmp_path, file, chunk):
        """Files with nothing odd in them load without the per-cell path."""
        text, schema = file
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        with mock.patch.object(dataset, "_CHUNK_CHARS", chunk):
            fast = dataset._load_chunks(p, schema)
            ds = load_csv(p, schema)
        assert fast is not None
        assert snapshot(ds) == snapshot(per_cell(p, schema))

    @pytest.mark.parametrize("fmt", [epoch, iso("T"), iso(" ")], ids=["epoch", "T", "space"])
    @pytest.mark.parametrize("start", [-36_000, 1_577_836_800])
    def test_clean_files_take_vectorised_path(self, tmp_path, fmt, start):
        """LF and CRLF line ends, blank lines (a trailing one too, and a whole
        chunk of them) and rows out of order all parse with numpy."""
        rows = [f"{fmt(start + 600 * i)},{i / 4},{-i}" for i in range(2_000)]
        blank = list(rows)
        for i, line in [(1_500, ""), (700, " ,\t"), (3, ","), (0, "\xa0"), (2_004, "")]:
            blank.insert(i, line)
        blank_chunk = rows[:1_000] + [""] * 10_000 + rows[1_000:]  # a chunk of blank lines only
        swapped = list(rows)
        swapped[10], swapped[1_990] = swapped[1_990], swapped[10]
        variants = [(rows, "\n"), (rows, "\r\n"), (blank, "\n"), (blank, "\r\n"),
                    (blank_chunk, "\n"), (swapped, "\n")]
        for lines, end in variants:
            p = tmp_path / "data.csv"
            p.write_text(end.join(["t,a,b", *lines]) + end, encoding="utf-8", newline="")
            with mock.patch.object(dataset, "_CHUNK_CHARS", 4_096):  # about 15 chunks
                assert dataset._load_chunks(p, SCHEMA) is not None
                with mock.patch.object(dataset, "_load_rows", side_effect=AssertionError):
                    ds = load_csv(p, SCHEMA)
            assert snapshot(ds) == snapshot(per_cell(p))
            assert ds.timestamps[0] == start

    @pytest.mark.parametrize("text, expected", [
        ('t,u,v,w\n0,"1,2",3,4\n600,5,6,7\n', (4.0, 7.0)),  # split at commas, w reads 3
        ('t,u,v,w\n0,1,2,3\n600,"4,5",6,7\n', (3.0, 7.0)),
    ])
    def test_quoted_comma_is_one_cell(self, tmp_path, text, expected):
        p = write_csv(tmp_path, text)
        schema = CsvSchema(timestamp_column="t", value_columns=("w",))
        ds = load_csv(p, schema)
        assert tuple(ds.series[0].values.tolist()) == expected
        assert snapshot(ds) == snapshot(per_cell(p, schema))

    def test_bad_cell_past_second_chunk_names_its_row(self, tmp_path):
        row = ",".join(["1.25"] * 20)
        n = 3 * dataset._CHUNK_CHARS // len(row) + 10  # past the second chunk
        rows = [f"{600 * i},{row}" for i in range(n)]
        bad = n - 5
        rows[bad] = f"{600 * bad},{row[:-4]}1.2x"
        cols = [f"f{j}" for j in range(20)]
        p = write_csv(tmp_path, "t," + ",".join(cols) + "\n" + "\n".join(rows) + "\n")
        with pytest.raises(NonNumericValue) as exc:
            load_csv(p, SCHEMA)
        assert (exc.value.row, exc.value.column, exc.value.raw) == (bad + 2, "f19", "1.2x")

    def test_invalid_utf8_raises_as_per_cell(self, tmp_path):
        """The decoder names a byte position that depends on how much of the
        file was read at once, so a file that does not decode is read again."""
        text = "t,v\n" + "".join(f"{600 * i},{i}.25\n" for i in range(5_000))
        raw = text.encode()
        p = tmp_path / "data.csv"
        p.write_bytes(raw[:-100] + b"\xff" + raw[-99:])
        fast = load_outcome(load_csv, p, SCHEMA)
        assert fast[0] is UnicodeDecodeError
        assert fast == load_outcome(per_cell, p, SCHEMA)

    def test_cell_over_csv_field_limit_raises_as_per_cell(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0," + "0" * csv.field_size_limit() + "1\n600,2\n")
        fast = load_outcome(load_csv, p, SCHEMA)
        assert fast[0] is csv.Error
        assert fast == load_outcome(per_cell, p, SCHEMA)

    @pytest.mark.parametrize("text, row, raw", [
        ("t,v\n0,1\n9223372036854775808,2\n", 3, "9223372036854775808"),
        ("t,v\n-9223372036854775809,1\n", 2, "-9223372036854775809"),
    ])
    def test_stamp_outside_int64_names_its_cell(self, tmp_path, text, row, raw):
        p = write_csv(tmp_path, text)
        with pytest.raises(NonNumericValue) as exc:
            load_csv(p, SCHEMA)
        assert (exc.value.row, exc.value.column, exc.value.raw) == (row, "t", raw)

    @pytest.mark.parametrize("stamp", [-2**63, 2**63 - 1])
    def test_stamps_at_int64_bounds_load(self, tmp_path, stamp):
        p = write_csv(tmp_path, f"t,v\n{stamp},1\n")
        assert load_csv(p, SCHEMA).timestamps.tolist() == [stamp]

    def test_offset_stamps_warn_nothing(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n1970-01-01T01:00:00+01:00,1\n1970-01-01T00:10:00+00:00,2\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(p, SCHEMA)
        assert tuple(ds.timestamps.tolist()) == (0, 600)


def iso_table(rows, columns=3):
    """Lines of a CSV: a header, then rows of ISO stamps at a 600 s cadence
    and `columns` values in hundredths."""
    stamp = iso("T")
    return [",".join(["t", *(f"f{j}" for j in range(columns))])] + [
        ",".join([stamp(1_577_836_800 + 600 * i),
                  *(f"{(i * (j + 3)) % 2_000 / 100:.2f}" for j in range(columns))])
        for i in range(rows)
    ]


def owner(a):
    """The array that holds a's memory."""
    return a if a.base is None else a.base


class TestInPlaceFill:
    """Every series' values are a row of one read-only array, filled chunk by
    chunk in place, which no Series copies."""

    @pytest.mark.parametrize("variant", ["in order", "out of order", "crlf", "blank lines",
                                         "per cell"])
    def test_series_are_rows_of_one_read_only_array(self, tmp_path, variant):
        header, *rows = iso_table(3_000)
        if variant == "out of order":
            rows[5], rows[2_500] = rows[2_500], rows[5]
        elif variant == "blank lines":
            rows[100:100] = ["", " ,,"]
            rows.append("")
        end = "\r\n" if variant == "crlf" else "\n"
        p = tmp_path / "data.csv"
        p.write_text(end.join([header, *rows]) + end, encoding="utf-8", newline="")
        with mock.patch.object(dataset, "_CHUNK_CHARS", 4_096):  # about 30 chunks
            if variant == "per cell":
                ds = per_cell(p)
            else:
                with mock.patch.object(dataset, "_load_rows", side_effect=AssertionError):
                    ds = load_csv(p, SCHEMA)
        values = owner(ds.series[0].values)
        assert len(values) == 3 and not values.flags.writeable
        for j, s in enumerate(ds.series):
            assert s.values.base is values and not s.values.flags.writeable
            assert np.shares_memory(s.values, values[j])
        assert not owner(ds.timestamps).flags.writeable
        assert snapshot(ds) == snapshot(per_cell(p))

    def test_peak_memory_beyond_the_arrays_does_not_grow_with_the_table(self, tmp_path):
        """load_csv's tracemalloc peak, less the arrays it returns, is the same
        for a table four times as long: no copy of the table is made. Chunks are
        cut small, so that both tables span many of them."""
        def overhead(rows):
            p = tmp_path / f"{rows}.csv"
            p.write_text("\n".join(iso_table(rows, columns=5)) + "\n", encoding="utf-8")
            with mock.patch.object(dataset, "_CHUNK_CHARS", 1 << 16):
                tracemalloc.start()
                try:
                    ds = load_csv(p, SCHEMA)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            held = owner(ds.timestamps).nbytes + owner(ds.series[0].values).nbytes
            return peak - held, held

        small, small_held = overhead(20_000)
        large, large_held = overhead(80_000)
        assert large - small < (large_held - small_held) / 4


def parse_timestamp_int_first(raw: str, row: int, column: str) -> int:
    """_parse_timestamp as it was before its guard: int() tried on every stamp
    (and an int outside int64 rejected)."""
    raw = raw.strip()
    try:
        ts = int(raw)
    except ValueError:
        pass
    else:
        if not -2**63 <= ts <= 2**63 - 1:
            raise NonNumericValue(row, column, raw)
        return ts
    try:
        dt = datetime.fromisoformat(raw)
    except ValueError:
        raise NonNumericValue(row, column, raw) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def outcome(parse, raw):
    try:
        return parse(raw, 7, "t")
    except Exception as e:  # compared by type and message
        return type(e), str(e)


OFFSETS = st.integers(-23 * 60 - 59, 23 * 60 + 59).map(lambda m: timezone(timedelta(minutes=m)))
ISO_STAMPS = st.builds(
    lambda dt, sep, spec, date_only: dt.date().isoformat() if date_only
    else dt.isoformat(sep=sep, timespec=spec),
    st.datetimes(datetime(1900, 1, 1), datetime(2200, 1, 1),
                 timezones=st.one_of(st.none(), OFFSETS)),
    st.sampled_from(["T", " "]),
    st.sampled_from(["auto", "minutes", "seconds", "milliseconds", "microseconds"]),
    st.booleans(),
)
INT_STAMPS = st.from_regex(r"[+-]?[0-9]+(_[0-9]+)*", fullmatch=True)
JUNK_STAMPS = st.text(alphabet="0123456789+-_:.TZ Wx\t", max_size=30)


class TestParseTimestamp:
    @given(raw=st.one_of(INT_STAMPS, ISO_STAMPS, JUNK_STAMPS),
           pad=st.sampled_from(["", " ", "\t", "\xa0"]))
    def test_guard_equals_int_first(self, raw, pad):
        """Trying int() only on stamps with no inner '-' and no ':' parses, or
        rejects, every string exactly as trying it first did."""
        raw = pad + raw + pad
        assert outcome(_parse_timestamp, raw) == outcome(parse_timestamp_int_first, raw)

    @pytest.mark.parametrize("raw, expected", [
        ("-600", -600), ("+1_200", 1200), ("20240101", 20240101),
        ("1970-01-01", 0), ("1970-01-01 00:10", 600), ("1970-01-01T01:00:00+01:00", 0),
    ])
    def test_examples(self, raw, expected):
        assert _parse_timestamp(raw, 2, "t") == expected


# any digits in the shape of YYYY-MM-DD?HH:MM:SS, so most fields are out of range
TEMPLATE_STAMPS = st.from_regex(
    r"[0-9]{4}-[01][0-9]-[0-3][0-9][T ][0-2][0-9]:[0-6][0-9]:[0-6][0-9]", fullmatch=True)
SECONDS_STAMPS = st.builds(
    lambda dt, sep: dt.isoformat(sep=sep, timespec="seconds"),
    st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)),
    st.sampled_from(["T", " "]),
)
# such a stamp with one character replaced by any printable ASCII character
MUTATED_STAMPS = st.builds(
    lambda raw, at, c: raw[:at] + c + raw[at + 1:],
    SECONDS_STAMPS, st.integers(0, 18), st.characters(min_codepoint=32, max_codepoint=126),
)


def parsed(stamps):
    return [_parse_timestamp(raw, 2, "t") for raw in stamps]


class TestChunkStamps:
    """_chunk_stamps reads a chunk's stamps as _parse_timestamp does, or declines."""

    @given(stamps=st.lists(st.one_of(SECONDS_STAMPS, TEMPLATE_STAMPS, MUTATED_STAMPS, ISO_STAMPS,
                                     ODD_STAMPS, INT_STAMPS, JUNK_STAMPS), min_size=1, max_size=4))
    def test_equals_parse_timestamp_or_declines(self, stamps):
        got = dataset._chunk_stamps(stamps)
        if got is not None:
            assert got.dtype == np.int64
            assert got.tolist() == parsed(stamps)

    @given(stamps=st.lists(SECONDS_STAMPS, min_size=1, max_size=20))
    def test_reads_every_date_and_time(self, stamps):
        """Every second of years 0001 to 9999, with T or space, is read."""
        assert dataset._chunk_stamps(stamps).tolist() == parsed(stamps)

    @given(raw=TEMPLATE_STAMPS)
    def test_reads_what_fromisoformat_reads(self, raw):
        """A stamp of the right shape is declined only when its fields are not
        a date and time of years 0001 to 9999."""
        got = dataset._chunk_stamps([raw])
        try:
            expected = parsed([raw])
        except NonNumericValue:
            assert got is None
        else:
            if got is None:
                assert raw[11:13] == "24"  # some Pythons read 24:00:00 as the next midnight
            else:
                assert got.tolist() == expected

    @pytest.mark.parametrize("raw, read", [
        ("1900-02-29T00:00:00", False), ("2000-02-29T00:00:00", True),
        ("2023-02-29 00:00:00", False), ("2024-02-29 23:59:59", True),
        ("2023-04-31T00:00:00", False), ("2023-04-30T00:00:00", True),
        ("2024-04-31T00:00:00", False), ("2024-12-32T00:00:00", False),
        ("2023-12-31T00:00:00", True), ("2023-12-32T00:00:00", False),
        ("2023-00-10T00:00:00", False), ("2023-13-10T00:00:00", False),
        ("2023-01-00T00:00:00", False),
        ("2023-01-01T24:00:00", False), ("2023-01-01T23:60:00", False),
        ("2023-01-01T23:59:60", False), ("2023-01-01 23:59:59", True),
        ("0000-01-01T00:00:00", False), ("0001-01-01T00:00:00", True),
        ("9999-12-31T23:59:59", True), ("1970-01-01T00:00:00", True),
        ("1970-01-01 00:00:00", True), ("1970-01-01x00:00:00", False),
        ("1970/01/01T00:00:00", False), ("1970-01-01T00.00.00", False),
        ("197a-01-01T00:00:00", False), ("1970-0:-01T00:00:00", False),
        ("1970-01-01T0/:00:00", False), ("1970-01-01T00:00:0 ", False),
        ("١٩٧٠-01-01T00:00:00", False), ("1970-01-01T00:00:0\u0661", False),
        ("1970-01-01 00:00:00+01:00", False), ("1970-01-01T00:00:00.5", False),
        ("1970-01-01T00:00:0", False), ("1970-01-01T00:00:0\x00", False),
    ])
    def test_fields_separators_and_width(self, raw, read):
        got = dataset._chunk_stamps([raw])
        assert (got is not None) == read
        if read:
            assert got.tolist() == parsed([raw])

    def test_stamp_longer_than_the_others_is_not_cut(self):
        """A longer stamp among 19-character ones is not truncated to 19."""
        stamps = ["1970-01-01 00:00:00", "1970-01-01 00:10:00+01:00"]
        assert dataset._chunk_stamps(stamps) is None
        assert dataset._chunk_stamps(stamps[::-1]) is None

    def test_shorter_stamp_among_others_is_declined(self):
        assert dataset._chunk_stamps(["1970-01-01T00:00:00", "1970-01-01T00:00:1"]) is None

    @given(stamps=st.lists(st.one_of(
        st.sampled_from(["+5", " 5", "1_0", "\u0663", "", "-", "1-2", "--5", "5-", "-0",
                         "9" * 19, "-" + "9" * 19, str(2**63 - 1), str(2**63),
                         str(-2**63), str(-2**63 - 1)]),
        st.integers(-2**63 - 2**10, 2**63 + 2**10).map(str),
        st.text(alphabet="0123456789-+_ ", max_size=21)), min_size=1, max_size=5))
    def test_epoch_stamps_equal_parse_timestamp_or_declines(self, stamps):
        """Stamps of digits and signs, 19-digit ones on both sides of the int64
        bound among them, are read as _parse_timestamp reads each, or declined:
        never read as the int64 cast alone would read them ("+5", " 5", "1_0" and
        non-ASCII digits, which it takes as int() does)."""
        got = dataset._chunk_stamps(stamps)
        if got is not None:
            assert got.dtype == np.int64
            assert got.tolist() == parsed(stamps)

    @given(stamps=st.lists(st.integers(-2**63, 2**63 - 1), min_size=1, max_size=20))
    def test_reads_every_int64(self, stamps):
        """Every int64, as ASCII digits with a leading "-" when negative, is read
        here, 19-digit ones included."""
        assert dataset._chunk_stamps([str(t) for t in stamps]).tolist() == stamps

    def test_epoch_check_memory_does_not_grow_per_stamp(self):
        """30,000 epoch stamps are checked and cast within three times their
        joined text of tracemalloc peak: the text and the int64 array, and no
        state kept per stamp."""
        stamps = [str(1_600_000_000 + 600 * i) for i in range(30_000)]
        tracemalloc.start()
        try:
            got = dataset._chunk_stamps(stamps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tolist() == [1_600_000_000 + 600 * i for i in range(30_000)]
        assert peak < 3 * len(",".join(stamps))

    @pytest.mark.parametrize("stamps, expected", [
        (["0001-01-01T00:00:00"], [-62_135_596_800]),
        (["9999-12-31T23:59:59"], [253_402_300_799]),
        (["2000-02-29 12:34:56", "2000-03-01T00:00:00"], [951_827_696, 951_868_800]),
        (["-600", "0", "600"], [-600, 0, 600]),
    ])
    def test_examples(self, stamps, expected):
        assert dataset._chunk_stamps(stamps).tolist() == expected


def one_series(timestamps, values=None, name="d"):
    """A Dataset of one series "s" on the given clock (values default to 1.0)."""
    values = (1.0,) * len(timestamps) if values is None else values
    return Dataset(name, timestamps, (Series("s", "s", values),))


class TestDirectConstruction:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_series_non_finite(self, bad):
        with pytest.raises(NonFiniteValue):
            Series("s", "s", (1.0, bad, 3.0))

    @pytest.mark.parametrize("timestamps", [
        (0, 600, 1300), (0, 600, 600), (0, 1200, 1800),
        (2**63 - 601, 2**63 - 1, 599 - 2**63),  # the last int64 gap wraps to 600
    ])
    def test_series_uneven_gaps(self, timestamps):
        with pytest.raises(NonUniformSampling):
            one_series(timestamps)

    @pytest.mark.parametrize("interval, timestamps", [
        (-600, (0, -600, -1200)), (0, (0, 0, 0)),
    ])
    def test_series_interval_not_positive(self, interval, timestamps):
        with pytest.raises(NonUniformSampling, match=f"interval of {interval}s is not positive"):
            one_series(timestamps)

    def test_gap_error_names_the_dataset(self):
        with pytest.raises(NonUniformSampling, match="'d': gap of 700s where 600s expected"):
            one_series((0, 600, 1300))

    @pytest.mark.parametrize("timestamps", [(5,), (-2**63,)])
    def test_one_stamp_has_interval_one(self, timestamps):
        assert one_series(timestamps).interval_seconds == 1

    def test_repeated_series_id_raises(self):
        """Two series named alike, with their own values and descriptions: a
        window's (id, start) would not say which series it came from, nor its
        system prompt which description to name."""
        series = (Series("v", "wind speed", (1.0, 2.0, 3.0)),
                  Series("v", "air pressure", (4.0, 5.0, 6.0)))
        with pytest.raises(DuplicateSeries, match="'twins': series id 'v' repeats"):
            Dataset("twins", (0, 600, 1200), series)

    @pytest.mark.parametrize("values", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ((1.0, 2.0, 3.0),)])
    def test_one_value_per_stamp(self, values):
        with pytest.raises(ValueError):
            one_series((0, 600, 1200), values)

    @pytest.mark.parametrize("timestamps, series", [
        (np.empty(0, np.int64), (Series("s", "s", ()),)), ((0, 600), ()),
    ], ids=["no stamps", "no series"])
    def test_empty_dataset(self, timestamps, series):
        with pytest.raises(ValueError):
            Dataset("d", timestamps, series)


class TestSeriesArrays:
    def test_read_only(self):
        ds = make_dataset({"s": [1.0, 2.0]})
        with pytest.raises(ValueError):
            ds.series[0].values[0] = 1
        with pytest.raises(ValueError):
            ds.timestamps[0] = 1
        assert (ds.timestamps.dtype, ds.series[0].values.dtype) == (np.int64, np.float64)

    @pytest.mark.parametrize("wrap", [list, np.array], ids=["list", "array"])
    def test_caller_input_is_copied(self, wrap):
        timestamps, values = wrap([0, 600, 1200]), wrap([1.0, 2.0, 3.0])
        ds = one_series(timestamps, values)
        timestamps[1], values[1] = 700, 9.0
        assert (ds.timestamps.tolist(), ds.series[0].values.tolist()) == (
            [0, 600, 1200], [1.0, 2.0, 3.0])

    def test_read_only_view_of_writable_array_is_copied(self):
        values = np.array([1.0, 2.0])
        view = values[:]
        view.flags.writeable = False
        s = Series("s", "s", view)
        values[0] = 9.0
        assert s.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("timestamps", [(0, 2**63), (0, 600.0), (-2**63 - 1, 0)])
    def test_stamps_that_are_not_int64_raise(self, timestamps):
        with pytest.raises(TypeError):
            one_series(timestamps)

    @pytest.mark.parametrize("per_cell_path", [False, True], ids=["vectorised", "per-cell"])
    def test_loaded_series_share_one_timestamps_array(self, tmp_path, per_cell_path):
        p = write_csv(tmp_path, "t,u,v,w\n600,1,2,3\n0,4,5,6\n1200,7,8,9\n")
        ds = per_cell(p) if per_cell_path else load_csv(p, SCHEMA)
        assert ds.timestamps.tolist() == [0, 600, 1200]
        assert [s.values.tolist() for s in ds.series] == [[4, 1, 7], [5, 2, 8], [6, 3, 9]]


class TestSliceWindows:
    """window_starts gives a dataset's evaluation windows, and a run's plan
    slices each from its (series id, start)."""

    def test_two_windows(self):
        ds = make_dataset({"s": range(100)})
        assert list(window_starts(ds, 96, 3, stride=1)) == [0, 1]

    def test_one_window(self):
        ds = make_dataset({"s": range(99)})
        assert len(window_starts(ds, 96, 3, stride=1)) == 1

    def test_too_short(self):
        ds = make_dataset({"s": range(98)})
        with pytest.raises(SeriesTooShort, match="'synthetic' has 98 points; needs 99"):
            window_starts(ds, 96, 3, stride=1)

    def test_windows_are_exact_subranges(self):
        """Each job of the plan carries the id, context text and truth of its
        window, and its meta-patch prompt is that of the window's start stamp."""
        ds = make_dataset({"a": [((i * 13) % 7) / 3 for i in range(120)],
                           "b": [-i / 4 for i in range(120)]}, start_ts=-6_000)
        cfg = RunConfig(strategies=(Strategy.META_TOKENS_PI,),
                        backend=BackendConfig(kind=BackendKind.MOCK_PERSISTENCE),
                        horizons=(1, 4), eval_stride=5)
        stamps = []
        with mock.patch.object(prompting, "system_prompt",
                               lambda *a: stamps.append(a[-1]) or system_prompt(*a)):
            jobs = iter(runner._plan(ds, cfg))
        assert all(type(stamp) is int for stamp in stamps) and len(stamps) == 2 * 2 * 5
        for h in cfg.horizons:
            for s in ds.series:
                for lo in window_starts(ds, 96, 4, stride=5):
                    job = next(jobs)
                    assert (job.window_id, job.horizon) == (f"{s.id}:{lo}", h)
                    assert job.sequence == render_sequence(s.values[lo : lo + 96].tolist())
                    assert job.truth == tuple(s.values[lo + 96 : lo + 96 + h].tolist())
                    assert job.system == system_prompt(
                        Strategy.META_TOKENS_PI, s.id, 600, h, 96, 3, 1, 5, -6_000 + 600 * lo)
        assert next(jobs, None) is None


def oracle_round_half_even(x: float, max_decimals: int) -> Fraction:
    """Reference half-to-even rounding on the exact shortest-repr decimal."""
    exact = Fraction(repr(float(x)))
    scaled = exact * 10**max_decimals
    floor = scaled.numerator // scaled.denominator
    frac = scaled - floor
    if frac > Fraction(1, 2) or (frac == Fraction(1, 2) and floor % 2 != 0):
        floor += 1
    return Fraction(floor, 10**max_decimals)


class TestFormatValue:
    @pytest.mark.parametrize(
        "x,expected",
        [
            (0.8032, "0.8032"),
            (1.0, "1"),
            (0.80325, "0.8032"),
            (-0.00001, "0"),
            (8.2, "8.2"),
            (-1.5, "-1.5"),
            (0.00015, "0.0002"),
            (0.00025, "0.0002"),
            (123456.0, "123456"),
        ],
    )
    def test_examples(self, x, expected):
        assert format_value(x) == expected

    def test_non_finite(self):
        with pytest.raises(NonFiniteValue):
            format_value(float("nan"))
        with pytest.raises(NonFiniteValue):
            format_value(float("inf"))

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    def test_matches_oracle(self, x):
        assert Fraction(format_value(x)) == oracle_round_half_even(x, 4)

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    def test_idempotent(self, x):
        s = format_value(x)
        assert format_value(float(s)) == s

    @given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
    def test_rendering_shape(self, x):
        s = format_value(x)
        assert not s.startswith(".") and not s.startswith("-.")
        assert s != "-0"
        if "." in s:
            assert not s.endswith("0") and len(s.split(".")[1]) <= 4
        assert math.isfinite(float(s))


def test_format_value_memo_matches_decimal_path():
    """200,000 values, many repeated, near half-to-even ties at 4 and 2
    decimals, and both zeros (equal as cache keys): the memoised function,
    keyed by the value alone, returns exactly what the uncached Decimal path
    does."""
    rng = random.Random(2024)
    values = [0.0, -0.0, -0.0, 0.0, -1e-9, 1e-9, -0.00004, 0.00005, -0.00005]
    while len(values) < 200_000:
        kind = rng.randrange(5)
        if kind == 0:  # a tie at 4 decimals, or the float next to it
            x = (2 * rng.randint(-10**6, 10**6) + 1) / 20000
            x = rng.choice([x, math.nextafter(x, math.inf), math.nextafter(x, -math.inf)])
        elif kind == 1:  # a tie at 2 decimals
            x = (2 * rng.randint(-10**4, 10**4) + 1) / 200
        elif kind == 2:  # hundredths, as weather tables store them
            x = rng.randint(-5000, 5000) / 100
        elif kind == 3:
            x = rng.uniform(-1e4, 1e4) * 10.0 ** rng.randint(-8, 2)
        else:  # a value seen before, so the cache answers
            x = rng.choice(values)
        values.append(x)
    format_value.cache_clear()
    uncached = format_value.__wrapped__
    for x in values:
        assert format_value(x) == uncached(x), x
    assert format_value.cache_info().hits > 10_000

