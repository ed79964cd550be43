"""Feature derivation, encoding, and the train/val/test split."""

from __future__ import annotations

import csv
import gc
import io
import tracemalloc
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busflux.aggregation import HourlyCount
from busflux.errors import BusfluxError, ConfigError, ParseError
from busflux.features import (
    CATEGORICAL_FEATURES,
    JOINED_KEY_COLUMNS,
    NUMERIC_FEATURES,
    CampusCalendar,
    ColumnMeta,
    FeatureCodec,
    FeatureMatrix,
    RowRejected,
    SplitSpec,
    build_rows,
    derive_features,
    fit_transform,
    load_matrix,
    read_joined_csv,
    read_matrix_meta,
    save_matrix,
    split_rows,
    write_joined_csv,
    write_matrix_meta,
)
from busflux.frames import format_timestamp, parse_timestamp
from busflux.schema import read_table, real
from busflux.weather import WeatherObservation

SEMESTER = date(2017, 1, 9)  # a Monday
CAL = CampusCalendar(semester_start=SEMESTER)


def wx(dt_hour: datetime, **overrides) -> WeatherObservation:
    values = dict(
        dt=int((dt_hour - datetime(1970, 1, 1)).total_seconds()),
        temp=10.0,
        feels_like=8.5,
        temp_min=9.0,
        temp_max=11.0,
        pressure=1013.0,
        sea_level=0.0,
        grnd_level=0.0,
        humidity=70.0,
        wind_speed=3.0,
        wind_deg=180.0,
        rain_1h=0.0,
        rain_3h=0.0,
        snow_1h=0.0,
        snow_3h=0.0,
        clouds_all=40.0,
        weather_id=800,
        weather_main="Clear",
        weather_description="clear sky",
    )
    values.update(overrides)
    return WeatherObservation(**values)


def row(
    hour: datetime,
    stop: str = "stop-01",
    count: float = 1.5,
    **wx_overrides,
):
    return derive_features(HourlyCount(stop, hour, count), wx(hour, **wx_overrides), CAL)


def many_rows(n: int, stops=("stop-01", "stop-02")):
    base = datetime(2017, 4, 3, 10)
    out = []
    for i in range(n):
        hour = base + timedelta(hours=i // len(stops))
        stop = stops[i % len(stops)]
        out.append(row(hour, stop=stop, count=float(i % 7), temp=10.0 + (i % 5)))
    return out


# ── Calendar features ────────────────────────────────────────────────────────


def test_week_of_semester_starts_at_one():
    # UTC 04:00 on the start date is local midnight (offset -4): week 1.
    r = row(datetime(2017, 1, 9, 4))
    assert r.numeric["week_of_semester"] == 1.0


def test_week_boundary_rolls_after_seven_days():
    assert row(datetime(2017, 1, 15, 12)).numeric["week_of_semester"] == 1.0
    assert row(datetime(2017, 1, 16, 12)).numeric["week_of_semester"] == 2.0


def test_hours_before_semester_are_rejected():
    # UTC 03:00 on the start date is still local Jan 8.
    with pytest.raises(RowRejected):
        row(datetime(2017, 1, 9, 3))


def test_hour_of_day_and_morning_flag_use_local_clock():
    r = row(datetime(2017, 4, 5, 15))  # 11:00 local
    assert r.numeric["hour_of_day"] == 11.0
    assert r.categorical["is_morning"] == "true"
    r = row(datetime(2017, 4, 5, 16))  # 12:00 local
    assert r.numeric["hour_of_day"] == 12.0
    assert r.categorical["is_morning"] == "false"


def test_weekend_flag_follows_local_weekday():
    saturday = row(datetime(2017, 4, 8, 16))
    assert saturday.categorical["weekday_name"] == "Saturday"
    assert saturday.categorical["is_weekend"] == "true"
    wednesday = row(datetime(2017, 4, 5, 16))
    assert wednesday.categorical["weekday_name"] == "Wednesday"
    assert wednesday.categorical["is_weekend"] == "false"


def test_midnight_utc_offset_shifts_the_date():
    # UTC 2017-04-06 01:00 is local 2017-04-05 21:00, still Wednesday.
    r = row(datetime(2017, 4, 6, 1))
    assert r.categorical["weekday_name"] == "Wednesday"
    assert r.numeric["hour_of_day"] == 21.0


def test_numeric_block_carries_weather_but_not_the_condition_code():
    r = row(datetime(2017, 4, 5, 15))
    assert set(r.numeric) == set(NUMERIC_FEATURES)
    assert "weather_id" not in r.numeric
    assert r.categorical["weather_main"] == "Clear"


def test_calendar_validation():
    with pytest.raises(ConfigError):
        CampusCalendar(semester_start=SEMESTER, utc_offset_hours=20)
    with pytest.raises(ConfigError):
        CampusCalendar(semester_start=SEMESTER, morning_end_hour=24)


# ── Join ─────────────────────────────────────────────────────────────────────


def test_build_rows_drops_hours_without_weather():
    h1, h2 = datetime(2017, 4, 5, 15), datetime(2017, 4, 5, 16)
    counts = [HourlyCount("stop-01", h1, 1.0), HourlyCount("stop-01", h2, 2.0)]
    rows, report = build_rows(counts, {h1: wx(h1)}, CAL)
    assert len(rows) == 1
    assert report.rows_in == 2 and report.rows_out == 1
    assert report.dropped_no_weather == 1
    report.check()


def test_build_rows_counts_pre_semester_rejections():
    h = datetime(2017, 1, 9, 3)
    rows, report = build_rows([HourlyCount("stop-01", h, 1.0)], {h: wx(h)}, CAL)
    assert rows == []
    assert report.rejected_pre_semester == 1


# ── Codec ────────────────────────────────────────────────────────────────────


def test_column_order_is_sorted_numerics_then_sorted_dummies():
    rows = many_rows(30)
    codec = FeatureCodec.fit(rows)
    numeric = [c for c in codec.columns if c.kind == "numeric"]
    onehot = [c for c in codec.columns if c.kind == "onehot"]
    assert codec.columns == numeric + onehot
    assert [c.name for c in numeric] == sorted(c.name for c in numeric)
    assert [(c.group, c.value) for c in onehot] == sorted((c.group, c.value) for c in onehot)


def test_constant_numerics_are_dropped_and_recorded():
    rows = many_rows(30)  # snow is identically zero in these rows
    codec = FeatureCodec.fit(rows)
    assert "snow_1h" in codec.dropped_constant
    assert all(c.name != "snow_1h" for c in codec.columns)


def test_zscore_uses_train_statistics():
    rows = many_rows(40)
    codec = FeatureCodec.fit(rows)
    matrix = codec.transform(rows)
    j = matrix.column_names.index("temp")
    col = matrix.rows[:, j]
    assert col.mean() == pytest.approx(0.0, abs=1e-12)
    assert col.std() == pytest.approx(1.0)
    # and a disjoint set encoded with the same codec is NOT re-standardized
    other = codec.transform(many_rows(10))
    t = codec.columns[matrix.column_names.index("temp")]
    raw = np.array([r.numeric["temp"] for r in many_rows(10)])
    assert other.rows[:, j] == pytest.approx((raw - t.mean) / t.std)


def test_dummy_group_sums_to_one_for_seen_categories():
    rows = many_rows(30)
    codec = FeatureCodec.fit(rows)
    matrix = codec.transform(rows)
    for group in CATEGORICAL_FEATURES:
        cols = [j for j, c in enumerate(codec.columns) if c.group == group]
        if cols:
            assert np.all(matrix.rows[:, cols].sum(axis=1) == 1.0)


def test_unseen_category_encodes_as_all_zero_group():
    rows = many_rows(30)
    codec = FeatureCodec.fit(rows)
    novel = [row(datetime(2017, 4, 5, 15), stop="stop-99")]
    matrix = codec.transform(novel)
    stop_cols = [j for j, c in enumerate(codec.columns) if c.group == "bus_stop"]
    assert np.all(matrix.rows[:, stop_cols] == 0.0)


def test_codec_fit_requires_rows():
    with pytest.raises(BusfluxError):
        FeatureCodec.fit([])


# ── Split ────────────────────────────────────────────────────────────────────


def test_split_sizes_match_the_floor_arithmetic():
    rows = many_rows(100)
    train, val, test = split_rows(rows, SplitSpec(seed=7))
    assert (len(train), len(val), len(test)) == (64, 16, 20)


def test_split_partitions_are_disjoint_and_exhaustive():
    rows = many_rows(53)
    train, val, test = split_rows(rows, SplitSpec(seed=3))
    keys = [r.key() for r in train + val + test]
    assert len(keys) == len(rows)
    assert len(set(keys)) == len(keys)
    assert set(keys) == {r.key() for r in rows}


def test_split_is_input_order_invariant():
    rows = many_rows(40)
    a = split_rows(rows, SplitSpec(seed=5))
    b = split_rows(list(reversed(rows)), SplitSpec(seed=5))
    assert a == b


def test_split_changes_with_seed():
    rows = many_rows(40)
    a = split_rows(rows, SplitSpec(seed=1))
    b = split_rows(rows, SplitSpec(seed=2))
    assert a != b


def test_split_rejects_starved_partitions():
    with pytest.raises(BusfluxError):
        split_rows(many_rows(3), SplitSpec())


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSpec(val_fraction_of_train=1.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=10, max_value=400), st.integers(min_value=0, max_value=99))
def test_split_arithmetic_property(n, seed):
    rows = many_rows(n)
    train, val, test = split_rows(rows, SplitSpec(seed=seed))
    n_test = int(n * 0.2)
    n_val = int((n - n_test) * 0.2)
    assert len(test) == n_test
    assert len(val) == n_val
    assert len(train) == n - n_test - n_val


# ── Serialization round-trips ────────────────────────────────────────────────


def test_joined_csv_round_trip(tmp_path):
    rows = many_rows(12)
    path = tmp_path / "joined.csv"
    write_joined_csv(rows, path)
    assert read_joined_csv(path) == sorted(rows, key=lambda r: r.key())


def test_matrix_meta_round_trip(tmp_path):
    rows = many_rows(30)
    codec = FeatureCodec.fit(rows)
    split = SplitSpec(seed=13)
    path = tmp_path / "meta.json"
    write_matrix_meta(codec, split, path)
    codec2, split2 = read_matrix_meta(path)
    assert codec2.columns == codec.columns
    assert codec2.dropped_constant == codec.dropped_constant
    assert split2 == split


def test_matrix_save_load_round_trip(tmp_path):
    rows = many_rows(30)
    train, _, _ = split_rows(rows, SplitSpec())
    codec = FeatureCodec.fit(train)
    matrix = codec.transform(train)
    path = tmp_path / "train.csv"
    save_matrix(matrix, path)
    back = load_matrix(path, codec)
    assert np.array_equal(back.rows, matrix.rows)
    assert np.array_equal(back.target, matrix.target)
    assert back.keys == matrix.keys
    assert back.column_names == matrix.column_names


def test_a_matrix_with_no_rows_round_trips_with_its_width(tmp_path):
    codec = _numeric_codec(5)
    empty = FeatureMatrix(columns=list(codec.columns), rows=np.empty((0, 5)),
                          target=np.empty(0), keys=[])
    path = tmp_path / "empty.csv"
    save_matrix(empty, path)
    back = load_matrix(path, codec)
    assert back.rows.shape == (0, 5)
    assert back.target.shape == (0,)
    assert back.keys == []


# ── Matrix CSV: memory, and equivalence with the list-based reader ──────────


def _numeric_codec(d: int) -> FeatureCodec:
    return FeatureCodec(
        columns=[ColumnMeta(name=f"c{j}", kind="numeric", mean=0.0, std=1.0) for j in range(d)]
    )


def _random_matrix(n: int, d: int) -> FeatureMatrix:
    """A matrix shaped like the 30-day train matrix: about 3,000 keyed rows
    of 37 encoded columns."""
    rng = np.random.default_rng(0)
    codec = _numeric_codec(d)
    base = datetime(2017, 1, 9)
    return FeatureMatrix(
        columns=list(codec.columns),
        rows=rng.standard_normal((n, d)),
        target=rng.random(n) * 5,
        keys=[(f"stop-{i % 12:02}", base + timedelta(hours=i // 12)) for i in range(n)],
    )


def _traced(call):
    """call()'s result, the traced bytes it still holds, and the traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def test_load_matrix_peak_stays_under_twice_what_the_result_keeps(tmp_path):
    matrix = _random_matrix(3000, 37)
    path = tmp_path / "train.csv"
    save_matrix(matrix, path)
    codec = _numeric_codec(37)
    back, kept, peak = _traced(lambda: load_matrix(path, codec))
    assert back.rows.shape == (3000, 37)
    assert kept >= back.rows.nbytes + back.target.nbytes
    assert peak < 2 * kept, f"peak {peak} B, kept {kept} B"


def test_save_matrix_peak_stays_under_half_the_matrix_bytes(tmp_path):
    matrix = _random_matrix(3000, 37)
    _, _, peak = _traced(lambda: save_matrix(matrix, tmp_path / "train.csv"))
    assert peak < 0.5 * matrix.rows.nbytes, f"peak {peak} B, matrix {matrix.rows.nbytes} B"


def reference_load_matrix(source, codec: FeatureCodec) -> FeatureMatrix:
    """load_matrix as it was when it held every row as a list of Python
    floats: the reference that the streaming reader must reproduce."""
    names = [c.name for c in codec.columns]
    rows = list(read_table(
        source,
        [*JOINED_KEY_COLUMNS, *names, "target"],
        [str, parse_timestamp] + [real] * (len(names) + 1),
    ))
    X = np.array([row[2:-1] for row in rows], dtype=np.float64).reshape(len(rows), len(names))
    return FeatureMatrix(
        columns=list(codec.columns),
        rows=X,
        target=np.array([row[-1] for row in rows], dtype=np.float64),
        keys=[(row[0], row[1]) for row in rows],
    )


def _outcome(load, path, codec):
    """What a reader gives: its arrays as (dtype, shape, C order, bytes)
    and its keys, or the ParseError text."""
    try:
        m = load(path, codec)
    except ParseError as exc:
        return ("ParseError", str(exc))
    return [
        (a.dtype, a.shape, a.flags.c_contiguous, a.tobytes()) for a in (m.rows, m.target)
    ] + [m.keys, m.column_names]


_CORRUPTIONS = {
    "wrong header": None,
    "wrong field count": lambda fields, j: fields[:-1],
    "non-numeric cell": lambda fields, j: fields[:j] + ["abc"] + fields[j + 1 :],
    "nan": lambda fields, j: fields[:j] + ["nan"] + fields[j + 1 :],
    "inf": lambda fields, j: fields[:j] + ["-inf"] + fields[j + 1 :],
}


@st.composite
def _matrix_files(draw):
    """(width, CSV text) of a matrix file: quoted stop names holding a
    comma, a quote or a newline, blank lines between records, and at most
    one corruption."""
    d = draw(st.integers(0, 4))
    header = [*JOINED_KEY_COLUMNS, *(f"c{j}" for j in range(d)), "target"]
    records = [
        [
            draw(st.text(alphabet="ab ,\n\"-", max_size=6)),
            format_timestamp(datetime(2017, 1, 9) + timedelta(hours=draw(st.integers(0, 9999)))),
            *map(repr, draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=d + 1, max_size=d + 1))),
        ]
        for _ in range(draw(st.integers(0, 6)))
    ]
    corruption = draw(st.sampled_from([None, *_CORRUPTIONS]))
    if corruption == "wrong header":
        header = draw(st.permutations(header).filter(lambda h: h != header))
    elif corruption is not None and records:
        i = draw(st.integers(0, len(records) - 1))
        records[i] = _CORRUPTIONS[corruption](records[i], draw(st.integers(2, d + 2)))
    lines = []
    for fields in [header, *records]:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow(fields)
        lines.append(buf.getvalue())
    for at in draw(st.lists(st.integers(1, len(lines)), max_size=3)):
        lines.insert(at, "\n")
    return d, "".join(lines)


@settings(max_examples=200, deadline=None)
@given(case=_matrix_files())
def test_load_matrix_equals_the_list_based_reference(tmp_path_factory, case):
    d, text = case
    path = tmp_path_factory.mktemp("matrix") / "m.csv"
    path.write_text(text, encoding="utf-8", newline="")
    codec = _numeric_codec(d)
    assert _outcome(load_matrix, path, codec) == _outcome(reference_load_matrix, path, codec)


def test_fit_transform_encodes_all_three_partitions():
    rows = many_rows(60)
    train, val, test = fit_transform(rows, SplitSpec())
    assert train.rows.shape[1] == val.rows.shape[1] == test.rows.shape[1]
    assert train.n_rows + val.n_rows + test.n_rows == 60
