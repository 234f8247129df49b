import math
import random
from datetime import datetime, timedelta, timezone
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tsf.dataset import (
    CsvSchema,
    Dataset,
    Series,
    _parse_timestamp,
    format_value,
    load_csv,
    slice_windows,
)
from tsf.errors import (
    EmptyFile,
    MissingColumn,
    NonFiniteValue,
    NonNumericValue,
    NonUniformSampling,
    SeriesTooShort,
)

from conftest import make_series

SCHEMA = CsvSchema(timestamp_column="t")


def write_csv(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_three_row_readback(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0,1\n600,2\n1200,3\n")
        ds = load_csv(p, SCHEMA)
        s = ds.series[0]
        assert s.interval_seconds == 600
        assert s.values == (1.0, 2.0, 3.0)
        assert s.timestamps == (0, 600, 1200)

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
        assert [s.values for s in ds.series] == [(1.0, 3.0), (2.0, 4.0)]

    def test_duplicate_timestamp(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n0,1\n0,2\n600,3\n")
        with pytest.raises(NonUniformSampling):
            load_csv(p, SCHEMA)

    def test_loaded_series_pass_direct_validation(self, tmp_path):
        p = write_csv(tmp_path, "t,v,w\n1200,3,6\n0,1.5,2\n600,2.25,4\n")
        ds = load_csv(p, SCHEMA)
        for s in ds.series:
            rebuilt = Series(s.id, s.description, s.interval_seconds, s.timestamps, s.values)
            assert rebuilt == s
        assert Dataset(ds.name, ds.series) == ds

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
        assert ds.series[0].timestamps == (0, 600, 1200)

    def test_rows_sorted_by_timestamp(self, tmp_path):
        p = write_csv(tmp_path, "t,v\n1200,3\n0,1\n600,2\n")
        ds = load_csv(p, SCHEMA)
        assert ds.series[0].values == (1.0, 2.0, 3.0)

    def test_round_trip(self, tmp_path):
        p = write_csv(tmp_path, "t,v,w\n0,1.5,2\n600,2.25,4\n1200,3,6\n")
        ds = load_csv(p, SCHEMA)
        lines = ["t,v,w"]
        s1, s2 = ds.series
        for i, ts in enumerate(s1.timestamps):
            lines.append(f"{ts},{format_value(s1.values[i])},{format_value(s2.values[i])}")
        p2 = write_csv(tmp_path, "\n".join(lines) + "\n", name="rt.csv")
        ds2 = load_csv(p2, SCHEMA)
        assert ds2.series[0].values == s1.values
        assert ds2.series[1].values == s2.values
        assert ds2.series[0].timestamps == s1.timestamps


def parse_timestamp_int_first(raw: str, row: int, column: str) -> int:
    """_parse_timestamp as it was before its guard: int() tried on every stamp."""
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


class TestDirectConstruction:
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_series_non_finite(self, bad):
        with pytest.raises(NonFiniteValue):
            Series("s", "s", 600, (0, 600, 1200), (1.0, bad, 3.0))

    @pytest.mark.parametrize("timestamps", [(0, 600, 1300), (0, 600, 600), (0, 1200, 1800)])
    def test_series_uneven_gaps(self, timestamps):
        with pytest.raises(NonUniformSampling):
            Series("s", "s", 600, timestamps, (1.0, 2.0, 3.0))

    def test_dataset_mismatched_timestamps(self):
        a = make_series([1, 2, 3], series_id="a")
        b = make_series([1, 2, 3], series_id="b", start_ts=600)
        with pytest.raises(ValueError):
            Dataset("d", (a, b))

    def test_dataset_mismatched_interval(self):
        a = make_series([1.0], series_id="a", interval=600)
        b = make_series([1.0], series_id="b", interval=60)
        with pytest.raises(ValueError):
            Dataset("d", (a, b))


class TestSliceWindows:
    def test_two_windows(self):
        s = make_series(range(100))
        ws = slice_windows(s, 96, 3, stride=1)
        assert [w.context_start for w in ws] == [0, 1]

    def test_one_window(self):
        s = make_series(range(99))
        assert len(slice_windows(s, 96, 3, stride=1)) == 1

    def test_too_short(self):
        s = make_series(range(98))
        with pytest.raises(SeriesTooShort):
            slice_windows(s, 96, 3, stride=1)

    def test_windows_are_exact_subranges(self):
        s = make_series([((i * 13) % 7) / 3 for i in range(120)])
        for w in slice_windows(s, 96, 4, stride=5):
            lo = w.context_start
            assert w.context == s.values[lo : lo + 96]
            assert w.truth == s.values[lo + 96 : lo + 100]
            assert w.context_timestamps == s.timestamps[lo : lo + 96]


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
    decimals, and both zeros (equal as cache keys): the memoised function
    returns exactly what the uncached Decimal path does."""
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
    for i, x in enumerate(values):
        d = 2 if i % 5 == 0 else 4
        assert format_value(x, d) == uncached(x, d), (x, d)
    assert format_value.cache_info().hits > 10_000

