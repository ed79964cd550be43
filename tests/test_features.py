"""Feature derivation, encoding, and the train/val/test split."""

from __future__ import annotations

import csv
import gc
import io
import math
import tracemalloc
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from conftest import run, with_leaf
from hypothesis import given, settings
from hypothesis import strategies as st

from busflux.aggregation import HourlyCount
from busflux.errors import BusfluxError, ConfigError, ParseError
from busflux.features import (
    CATEGORICAL_FEATURES,
    JOINED_HEADER,
    JOINED_KEY_COLUMNS,
    NUMERIC_FEATURES,
    CampusCalendar,
    ColumnMeta,
    FeatureCodec,
    FeatureMatrix,
    JoinedTable,
    RowRejected,
    SplitSpec,
    build_rows,
    derive_features,
    load_matrix,
    read_joined_csv,
    read_matrix_meta,
    save_matrix,
    split_rows,
    write_joined_csv,
    write_matrix_meta,
)
from busflux.schema import format_timestamp, parse_timestamp, read_table, real
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


def joined_row(
    hour: datetime,
    stop: str = "stop-01",
    count: float = 1.5,
    **wx_overrides,
) -> list:
    return derive_features(HourlyCount(stop, hour, count), wx(hour, **wx_overrides), CAL)


def row(hour: datetime, **kwargs) -> dict:
    """derive_features' joined row, keyed by its joined.csv column names."""
    return dict(zip(JOINED_HEADER, joined_row(hour, **kwargs), strict=True))


def many_rows(n: int, stops=("stop-01", "stop-02")) -> JoinedTable:
    base = datetime(2017, 4, 3, 10)
    out = []
    for i in range(n):
        hour = base + timedelta(hours=i // len(stops))
        stop = stops[i % len(stops)]
        out.append(joined_row(hour, stop=stop, count=float(i % 7), temp=10.0 + (i % 5)))
    return JoinedTable.from_rows(out)


def reversed_rows(table: JoinedTable) -> JoinedTable:
    return JoinedTable.from_rows(list(table)[::-1])


# ── Calendar features ────────────────────────────────────────────────────────


def test_week_of_semester_starts_at_one():
    # UTC 04:00 on the start date is local midnight (offset -4): week 1.
    r = row(datetime(2017, 1, 9, 4))
    assert r["num:week_of_semester"] == 1.0


def test_week_boundary_rolls_after_seven_days():
    assert row(datetime(2017, 1, 15, 12))["num:week_of_semester"] == 1.0
    assert row(datetime(2017, 1, 16, 12))["num:week_of_semester"] == 2.0


def test_hours_before_semester_are_rejected():
    # UTC 03:00 on the start date is still local Jan 8.
    with pytest.raises(RowRejected):
        row(datetime(2017, 1, 9, 3))


def test_hour_of_day_and_morning_flag_use_local_clock():
    r = row(datetime(2017, 4, 5, 15))  # 11:00 local
    assert r["num:hour_of_day"] == 11.0
    assert r["cat:is_morning"] == "true"
    r = row(datetime(2017, 4, 5, 16))  # 12:00 local
    assert r["num:hour_of_day"] == 12.0
    assert r["cat:is_morning"] == "false"


def test_weekend_flag_follows_local_weekday():
    saturday = row(datetime(2017, 4, 8, 16))
    assert saturday["cat:weekday_name"] == "Saturday"
    assert saturday["cat:is_weekend"] == "true"
    wednesday = row(datetime(2017, 4, 5, 16))
    assert wednesday["cat:weekday_name"] == "Wednesday"
    assert wednesday["cat:is_weekend"] == "false"


def test_midnight_utc_offset_shifts_the_date():
    # UTC 2017-04-06 01:00 is local 2017-04-05 21:00, still Wednesday.
    r = row(datetime(2017, 4, 6, 1))
    assert r["cat:weekday_name"] == "Wednesday"
    assert r["num:hour_of_day"] == 21.0


def test_numeric_block_carries_weather_but_not_the_condition_code():
    r = row(datetime(2017, 4, 5, 15), temp=12.5, weather_id=801)
    assert r["num:temp"] == 12.5
    assert "weather_id" not in NUMERIC_FEATURES and 801 not in r.values()
    assert r["cat:weather_main"] == "Clear"


def test_calendar_validation():
    with pytest.raises(ConfigError):
        CampusCalendar(semester_start=SEMESTER, utc_offset_hours=20)
    with pytest.raises(ConfigError):
        CampusCalendar(semester_start=SEMESTER, morning_end_hour=24)


@pytest.mark.parametrize(
    "field, value, ok",
    [
        ("utc_offset_hours", -13, False),
        ("utc_offset_hours", -12, True),
        ("utc_offset_hours", 14, True),
        ("utc_offset_hours", 15, False),
        ("morning_end_hour", -1, False),
        ("morning_end_hour", 0, True),
        ("morning_end_hour", 23, True),
        ("morning_end_hour", 24, False),
    ],
)
def test_calendar_ranges_at_their_edges(field, value, ok):
    make = lambda: CampusCalendar(semester_start=SEMESTER, **{field: value})  # noqa: E731
    if ok:
        assert getattr(make(), field) == value
    else:
        with pytest.raises(ConfigError, match=field):
            make()


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
    assert len(rows) == 0
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
    raw = many_rows(10).numeric[:, NUMERIC_FEATURES.index("temp")]
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
    novel = JoinedTable.from_rows([joined_row(datetime(2017, 4, 5, 15), stop="stop-99")])
    matrix = codec.transform(novel)
    stop_cols = [j for j, c in enumerate(codec.columns) if c.group == "bus_stop"]
    assert np.all(matrix.rows[:, stop_cols] == 0.0)


def test_codec_fit_requires_rows():
    with pytest.raises(BusfluxError):
        FeatureCodec.fit(JoinedTable.from_rows([]))


# ── Split ────────────────────────────────────────────────────────────────────


def test_split_sizes_match_the_floor_arithmetic():
    rows = many_rows(100)
    train, val, test = split_rows(rows, SplitSpec(seed=7))
    assert (len(train), len(val), len(test)) == (64, 16, 20)


def test_split_partitions_are_disjoint_and_exhaustive():
    rows = many_rows(53)
    train, val, test = split_rows(rows, SplitSpec(seed=3))
    keys = train.keys + val.keys + test.keys
    assert len(keys) == len(rows)
    assert len(set(keys)) == len(keys)
    assert set(keys) == set(rows.keys)


def test_split_is_input_order_invariant():
    rows = many_rows(40)
    a = split_rows(rows, SplitSpec(seed=5))
    b = split_rows(reversed_rows(rows), SplitSpec(seed=5))
    assert [list(part) for part in a] == [list(part) for part in b]


def test_rows_already_in_key_order_are_not_reordered():
    rows = many_rows(40)  # hour-major: not in key order
    ordered = rows.sorted_by_key()
    assert ordered.keys == sorted(rows.keys)
    assert list(ordered) == sorted(rows, key=lambda r: (r[0], r[1]))
    assert ordered.sorted_by_key() is ordered


def test_split_changes_with_seed():
    rows = many_rows(40)
    a = split_rows(rows, SplitSpec(seed=1))
    b = split_rows(rows, SplitSpec(seed=2))
    assert [part.keys for part in a] != [part.keys for part in b]


def test_split_rejects_starved_partitions():
    with pytest.raises(BusfluxError):
        split_rows(many_rows(3), SplitSpec())


def test_split_spec_validation():
    with pytest.raises(ConfigError):
        SplitSpec(test_fraction=0.0)
    with pytest.raises(ConfigError):
        SplitSpec(val_fraction_of_train=1.0)


_BELOW_ONE = math.nextafter(1.0, 0.0)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("test_fraction", 0.0, "test_fraction must lie in (0, 1)"),
        ("test_fraction", 1.0, "test_fraction must lie in (0, 1)"),
        ("test_fraction", _BELOW_ONE, None),
        ("val_fraction_of_train", 0.0, None),
        ("val_fraction_of_train", 1.0, "val_fraction_of_train must lie in [0, 1)"),
        ("val_fraction_of_train", _BELOW_ONE, None),
    ],
)
def test_split_fractions_at_their_edges(field, value, message):
    if message is None:
        assert getattr(SplitSpec(**{field: value}), field) == value
    else:
        with pytest.raises(ConfigError) as err:
            SplitSpec(**{field: value})
        assert str(err.value) == message


@pytest.mark.parametrize("n", [1, 2, 3, 7, 1000])
def test_split_leaves_train_non_empty_at_fractions_just_below_one(n):
    rows = many_rows(n)
    for spec in (SplitSpec(test_fraction=_BELOW_ONE, val_fraction_of_train=0.0),
                 SplitSpec(test_fraction=0.5, val_fraction_of_train=_BELOW_ONE)):
        try:
            train, _, _ = split_rows(rows, spec)
        except BusfluxError:
            continue
        assert len(train) >= 1


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
    in_key_order = sorted(rows, key=lambda r: (r[0], r[1]))
    write_joined_csv(rows, path)
    assert list(read_joined_csv(path)) == in_key_order
    write_joined_csv(reversed_rows(rows), path)
    assert list(read_joined_csv(path)) == in_key_order


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


@pytest.mark.parametrize(
    "rows, target",
    [
        (np.zeros((3, 2), dtype=np.float32), np.zeros(3)),
        (np.zeros((3, 2)), np.zeros(3, dtype=np.int64)),
        (np.zeros(3), np.zeros(3)),
        (np.zeros((3, 2)), np.zeros((3, 1))),
        (np.zeros((3, 2)), np.zeros(2)),
    ],
)
def test_a_matrix_needs_2d_float64_rows_and_one_float64_target_per_row(rows, target):
    # The fits and predicts take rows and target as they are, uncast.
    with pytest.raises(ValueError, match="a feature matrix needs 2-D float64 rows and a float64 target"):
        FeatureMatrix(columns=[], rows=rows, target=target)


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


def test_split_fit_transform_encodes_all_three_partitions():
    parts = split_rows(many_rows(60), SplitSpec())
    codec = FeatureCodec.fit(parts[0])
    train, val, test = (codec.transform(part) for part in parts)
    assert train.rows.shape[1] == val.rows.shape[1] == test.rows.shape[1]
    assert train.n_rows + val.n_rows + test.n_rows == 60


# ── Columnar split and codec: equivalence with the row-wise reference ───────


@dataclass(frozen=True)
class ReferenceRow:
    """One joined row as the row-wise encoder held it: two dicts."""

    stop: str
    hour: datetime
    numeric: dict[str, float]
    categorical: dict[str, str]
    target: float

    def key(self):
        return (self.stop, self.hour)


def reference_rows(joined: list[list]) -> list[ReferenceRow]:
    n_num = len(NUMERIC_FEATURES)
    return [
        ReferenceRow(
            stop=r[0],
            hour=r[1],
            numeric=dict(zip(NUMERIC_FEATURES, r[2 : 2 + n_num])),
            categorical=dict(zip(CATEGORICAL_FEATURES, r[2 + n_num : -1])),
            target=r[-1],
        )
        for r in joined
    ]


def reference_split_rows(rows: list[ReferenceRow], split: SplitSpec):
    """split_rows as it was when it sorted row objects: the reference that
    the index split must reproduce."""
    ordered = sorted(rows, key=ReferenceRow.key)
    n = len(ordered)
    n_test = int(n * split.test_fraction)
    n_val = int((n - n_test) * split.val_fraction_of_train)
    n_train = n - n_test - n_val
    if n_test < 1 or n_train < 1 or (split.val_fraction_of_train > 0 and n_val < 1):
        raise BusfluxError(f"{n} rows cannot fill non-empty train/val/test partitions")
    perm = np.random.default_rng(split.seed).permutation(n)
    test = [ordered[i] for i in sorted(perm[:n_test])]
    val = [ordered[i] for i in sorted(perm[n_test : n_test + n_val])]
    train = [ordered[i] for i in sorted(perm[n_test + n_val :])]
    return train, val, test


def reference_fit(train_rows: list[ReferenceRow]) -> FeatureCodec:
    """FeatureCodec.fit as it was when it gathered each column from row
    objects."""
    columns: list[ColumnMeta] = []
    dropped: list[str] = []
    for name in sorted(NUMERIC_FEATURES):
        values = np.array([r.numeric[name] for r in train_rows], dtype=np.float64)
        mean = float(values.mean())
        std = float(values.std())
        if std == 0.0:
            dropped.append(name)
            continue
        columns.append(ColumnMeta(name=name, kind="numeric", mean=mean, std=std))
    for group in sorted(CATEGORICAL_FEATURES):
        for value in sorted({r.categorical[group] for r in train_rows}):
            columns.append(
                ColumnMeta(name=f"{group}_{value}", kind="onehot", group=group, value=value)
            )
    return FeatureCodec(columns=columns, dropped_constant=dropped)


def reference_transform(codec: FeatureCodec, rows: list[ReferenceRow]) -> FeatureMatrix:
    """FeatureCodec.transform as it was when it set each one-hot cell in a
    per-row loop."""
    n, d = len(rows), len(codec.columns)
    X = np.zeros((n, d), dtype=np.float64)
    index = {c.name: j for j, c in enumerate(codec.columns)}
    for j, c in enumerate(codec.columns):
        if c.kind == "numeric":
            raw = np.array([r.numeric[c.name] for r in rows], dtype=np.float64)
            X[:, j] = (raw - c.mean) / c.std
    for i, r in enumerate(rows):
        for group in CATEGORICAL_FEATURES:
            j = index.get(f"{group}_{r.categorical[group]}")
            if j is not None:
                X[i, j] = 1.0
    y = np.array([r.target for r in rows], dtype=np.float64)
    return FeatureMatrix(columns=list(codec.columns), rows=X, target=y,
                         keys=[r.key() for r in rows])


def _encoded(split, fit, transform, rows, spec):
    """What split → fit → transform gives: the split's keys, the codec, and
    each matrix as (shape, C order, bytes) plus its keys; or the error."""
    try:
        parts = split(rows, spec)
    except BusfluxError as exc:
        return ("BusfluxError", str(exc))
    codec = fit(parts[0])
    matrices = [transform(codec, part) for part in parts]
    return (
        [[r.key() for r in part] if isinstance(part, list) else part.keys for part in parts],
        codec.columns,
        codec.dropped_constant,
        [
            (m.rows.shape, m.rows.flags.c_contiguous, m.rows.tobytes(), m.target.tobytes(), m.keys)
            for m in matrices
        ],
    )


_finite = st.floats(min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False)


@st.composite
def _joined_rows(draw):
    """Joined rows in a shuffled order: unique keys over a few stops,
    numeric columns that are random or constant, and categories drawn from
    small alphabets, so val and test meet values that train never saw."""
    keys = draw(st.lists(st.tuples(st.sampled_from(["s1", "s2", "s3"]), st.integers(0, 40)),
                         min_size=4, max_size=60, unique=True))
    constant = draw(st.sets(st.sampled_from(NUMERIC_FEATURES)))
    numeric_of = {
        name: draw(st.lists(_finite, min_size=1, max_size=1)) * len(keys) if name in constant
        else draw(st.lists(_finite, min_size=len(keys), max_size=len(keys)))
        for name in NUMERIC_FEATURES
    }
    rows = []
    for i, (stop, h) in enumerate(keys):
        rows.append([
            stop,
            datetime(2017, 4, 3) + timedelta(hours=h),
            *(numeric_of[name][i] for name in NUMERIC_FEATURES),
            *(draw(st.sampled_from(["a", "b", "c_d", "e"][: 1 + g % 4]))
              for g in range(len(CATEGORICAL_FEATURES))),
            draw(_finite),
        ])
    return draw(st.permutations(rows))


@settings(max_examples=150, deadline=None)
@given(
    joined=_joined_rows(),
    seed=st.integers(0, 2**32 - 1),
    test_fraction=st.sampled_from([0.2, 0.3, 0.5]),
    val_fraction=st.sampled_from([0.0, 0.2, 0.25]),
)
def test_columnar_encoding_equals_the_row_wise_reference(joined, seed, test_fraction, val_fraction):
    spec = SplitSpec(seed=seed, test_fraction=test_fraction, val_fraction_of_train=val_fraction)
    columnar = _encoded(split_rows, FeatureCodec.fit, FeatureCodec.transform,
                        JoinedTable.from_rows(joined), spec)
    reference = _encoded(reference_split_rows, reference_fit, reference_transform,
                         reference_rows(joined), spec)
    assert columnar == reference


@pytest.mark.parametrize("path, value, message", [
    (("split", "seed"), 1.5, "key 'split.seed' needs an integer, got 1.5"),
    (("codec", "columns", 0, "mean"), "x", "key 'codec.columns[0].mean' needs a number, got 'x'"),
    (("codec", "dropped_constant"), "abc",
     "key 'codec.dropped_constant' needs a list, got 'abc'"),
    (("split", "test_fraction"), 5, "key 'split': test_fraction must lie in (0, 1)"),
], ids=["seed-fraction", "mean-string", "dropped-string", "test-fraction-out-of-range"])
def test_a_matrix_meta_with_a_malformed_leaf_exits_2(ws, tmp_path, capsys, path, value, message):
    # The first three exited 0 (a dropped_constant of "abc" loaded as
    # ['a', 'b', 'c']); the last exited 1 with a message naming no file.
    meta = with_leaf(ws["meta"], tmp_path / "meta.json", path, value)
    assert run("evaluate", "--test", ws["test"], "--meta", meta, "--model", ws["lr"],
               "--out-report", tmp_path / "eval.json") == 2
    assert capsys.readouterr().err == f"error: {meta}: {message}\n"
    assert not (tmp_path / "eval.json").exists()
