"""Design matrix assembly: weather join, calendar features, encoding, splits.

Feature derivation happens in local campus time (configured UTC offset);
everything else in the pipeline stays UTC. Normalization statistics and
one-hot vocabularies are fit on the training partition only.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from typing import Sequence, Union

import numpy as np

from .aggregation import HourlyCount
from .errors import BusfluxError, ConfigError
from .frames import format_timestamp, parse_timestamp
from .schema import read_json, read_table, real, to_dict, write_json, write_table
from .weather import WeatherObservation

WEEKDAY_NAMES = (
    "Monday",
    "Tuesday",
    "Wednesday",
    "Thursday",
    "Friday",
    "Saturday",
    "Sunday",
)

_WEATHER_FEATURES = (
    "temp",
    "feels_like",
    "temp_min",
    "temp_max",
    "pressure",
    "humidity",
    "wind_speed",
    "wind_deg",
    "rain_1h",
    "rain_3h",
    "snow_1h",
    "snow_3h",
    "clouds_all",
)
NUMERIC_FEATURES = _WEATHER_FEATURES + ("week_of_semester", "hour_of_day")
# weather_id stays out of the numeric block: it is a condition code, and its
# information already enters through the weather_main/description dummies.
CATEGORICAL_FEATURES = (
    "bus_stop",
    "weather_main",
    "weather_description",
    "weekday_name",
    "is_weekend",
    "is_morning",
)


class RowRejected(BusfluxError):
    """A (stop, hour) row cannot become a feature row; carries the reason."""


@dataclass(frozen=True, slots=True)
class CampusCalendar:
    """Campus clock context: semester start (local), UTC offset, morning cut."""

    semester_start: date
    utc_offset_hours: int = -4
    morning_end_hour: int = 12

    def __post_init__(self):
        if not -12 <= self.utc_offset_hours <= 14:
            raise ConfigError("utc_offset_hours must be in [-12, 14]")
        if not 0 <= self.morning_end_hour <= 23:
            raise ConfigError("morning_end_hour must be a valid hour")

    def to_local(self, at: datetime) -> datetime:
        return at + timedelta(hours=self.utc_offset_hours)


@dataclass(frozen=True, slots=True)
class SplitSpec:
    seed: int = 7
    test_fraction: float = 0.2
    val_fraction_of_train: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("split seed must be a nonnegative integer")
        if not 0 < self.test_fraction < 1 or not 0 <= self.val_fraction_of_train < 1:
            raise ConfigError("split fractions must lie in (0,1)")


@dataclass(frozen=True, slots=True)
class FeatureRow:
    """One joined (stop, hour) observation before encoding."""

    stop: str
    hour: datetime
    numeric: dict[str, float]
    categorical: dict[str, str]
    target: float

    def key(self):
        return (self.stop, self.hour)


def derive_features(
    count: HourlyCount, wx: WeatherObservation, cal: CampusCalendar
) -> FeatureRow:
    """Join one hourly count with its weather hour and derive calendar features.

    week_of_semester = floor(days(local_date - semester_start) / 7) + 1, so
    the semester start date itself lands in week 1. Hours before the
    semester are rejected.
    """
    local = cal.to_local(count.hour)
    local_date = local.date()
    if local_date < cal.semester_start:
        raise RowRejected(
            f"{count.stop}@{count.hour}: before semester start {cal.semester_start}"
        )
    week = (local_date - cal.semester_start).days // 7 + 1
    weekday = local.weekday()

    numeric = {name: getattr(wx, name) for name in _WEATHER_FEATURES}
    numeric["week_of_semester"] = float(week)
    numeric["hour_of_day"] = float(local.hour)
    categorical = {
        "bus_stop": count.stop,
        "weather_main": wx.weather_main,
        "weather_description": wx.weather_description,
        "weekday_name": WEEKDAY_NAMES[weekday],
        "is_weekend": "true" if weekday >= 5 else "false",
        "is_morning": "true" if local.hour < cal.morning_end_hour else "false",
    }
    return FeatureRow(
        stop=count.stop,
        hour=count.hour,
        numeric=numeric,
        categorical=categorical,
        target=count.count,
    )


@dataclass(slots=True)
class JoinReport:
    rows_in: int = 0
    rows_out: int = 0
    dropped_no_weather: int = 0
    rejected_pre_semester: int = 0

    def check(self) -> None:
        if self.rows_in != self.rows_out + self.dropped_no_weather + self.rejected_pre_semester:
            raise AssertionError("join accounting broken")


def build_rows(
    counts: Sequence[HourlyCount],
    weather_by_hour: dict[datetime, WeatherObservation],
    cal: CampusCalendar,
) -> tuple[list[FeatureRow], JoinReport]:
    """Join all hourly counts against weather; missing hours are dropped,
    not interpolated, and the loss is surfaced in the report."""
    report = JoinReport(rows_in=len(counts))
    rows: list[FeatureRow] = []
    for count in counts:
        wx = weather_by_hour.get(count.hour)
        if wx is None:
            report.dropped_no_weather += 1
            continue
        try:
            rows.append(derive_features(count, wx, cal))
        except RowRejected:
            report.rejected_pre_semester += 1
            continue
        report.rows_out += 1
    report.check()
    return rows, report


@dataclass(frozen=True, slots=True)
class ColumnMeta:
    name: str
    kind: str  # "numeric" | "onehot"
    mean: float | None = None
    std: float | None = None
    group: str | None = None
    value: str | None = None


@dataclass(slots=True)
class FeatureMatrix:
    columns: list[ColumnMeta]
    rows: np.ndarray
    target: np.ndarray
    keys: list[tuple[str, datetime]] | None = None

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    @property
    def n_rows(self) -> int:
        return int(self.rows.shape[0])

    @classmethod
    def from_arrays(
        cls, X: np.ndarray, y: np.ndarray, names: Sequence[str] | None = None
    ) -> "FeatureMatrix":
        """Wrap raw arrays as an un-normalized numeric matrix (test/oracle use)."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[:, None]
        y = np.asarray(y, dtype=np.float64)
        if names is None:
            names = [f"x{i}" for i in range(X.shape[1])]
        cols = [ColumnMeta(name=n, kind="numeric", mean=0.0, std=1.0) for n in names]
        return cls(columns=cols, rows=X, target=y)


@dataclass(slots=True)
class FeatureCodec:
    """Fitted encoder: numeric z-score stats plus one-hot vocabularies.

    Column order is a pure function of the training vocabulary: sorted
    numeric names first, then one-hot groups sorted by group and value.
    """

    columns: list[ColumnMeta]
    dropped_constant: list[str] = field(default_factory=list)

    @classmethod
    def fit(cls, train_rows: Sequence[FeatureRow]) -> "FeatureCodec":
        if not train_rows:
            raise BusfluxError("cannot fit a feature codec on zero rows")
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
            vocab = sorted({r.categorical[group] for r in train_rows})
            for value in vocab:
                columns.append(
                    ColumnMeta(
                        name=f"{group}_{value}",
                        kind="onehot",
                        group=group,
                        value=value,
                    )
                )
        return cls(columns=columns, dropped_constant=dropped)

    def transform(self, rows: Sequence[FeatureRow]) -> FeatureMatrix:
        """Encode rows against the fitted columns.

        Unseen categories produce an all-zero dummy group; numeric features
        are z-scored with the training statistics.
        """
        n, d = len(rows), len(self.columns)
        X = np.zeros((n, d), dtype=np.float64)
        index = {c.name: j for j, c in enumerate(self.columns)}
        for j, c in enumerate(self.columns):
            if c.kind == "numeric":
                raw = np.array([r.numeric[c.name] for r in rows], dtype=np.float64)
                X[:, j] = (raw - c.mean) / c.std
        for i, r in enumerate(rows):
            for group in CATEGORICAL_FEATURES:
                j = index.get(f"{group}_{r.categorical[group]}")
                if j is not None:
                    X[i, j] = 1.0
        y = np.array([r.target for r in rows], dtype=np.float64)
        return FeatureMatrix(
            columns=list(self.columns),
            rows=X,
            target=y,
            keys=[r.key() for r in rows],
        )

    def to_dict(self) -> dict:
        return {
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    "mean": c.mean,
                    "std": c.std,
                    "group": c.group,
                    "value": c.value,
                }
                for c in self.columns
            ],
            "dropped_constant": self.dropped_constant,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureCodec":
        return cls(
            columns=[ColumnMeta(**c) for c in data["columns"]],
            dropped_constant=list(data.get("dropped_constant", [])),
        )


def split_rows(
    rows: Sequence[FeatureRow], split: SplitSpec
) -> tuple[list[FeatureRow], list[FeatureRow], list[FeatureRow]]:
    """Seeded random partition into train/val/test over row keys.

    Rows are first sorted by (stop, hour) so identical data always splits
    identically regardless of input order; partitions are disjoint and
    exhaustive.
    """
    ordered = sorted(rows, key=FeatureRow.key)
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


def fit_transform(
    rows: Sequence[FeatureRow], split: SplitSpec
) -> tuple[FeatureMatrix, FeatureMatrix, FeatureMatrix]:
    """Split, fit the codec on train only, and encode all three partitions."""
    train_rows, val_rows, test_rows = split_rows(rows, split)
    codec = FeatureCodec.fit(train_rows)
    return codec.transform(train_rows), codec.transform(val_rows), codec.transform(test_rows)


# --- joined-row and matrix serialization ---------------------------------

JOINED_KEY_COLUMNS = ("bus_stop", "hour_utc")
JOINED_HEADER = (
    JOINED_KEY_COLUMNS
    + tuple(f"num:{n}" for n in NUMERIC_FEATURES)
    + tuple(f"cat:{c}" for c in CATEGORICAL_FEATURES)
    + ("target",)
)
_JOINED_TYPES = (
    (str, parse_timestamp)
    + (real,) * len(NUMERIC_FEATURES)
    + (str,) * len(CATEGORICAL_FEATURES)
    + (real,)
)


def write_joined_csv(rows: Sequence[FeatureRow], dest: Union[str, os.PathLike]) -> None:
    """Raw joined rows (pre-encoding): keys, numerics, categoricals, target."""
    write_table(
        dest,
        JOINED_HEADER,
        (
            [r.stop, format_timestamp(r.hour)]
            + [float(r.numeric[n]) for n in NUMERIC_FEATURES]
            + [r.categorical[c] for c in CATEGORICAL_FEATURES]
            + [float(r.target)]
            for r in sorted(rows, key=FeatureRow.key)
        ),
    )


def read_joined_csv(source: Union[str, os.PathLike]) -> list[FeatureRow]:
    n_num = len(NUMERIC_FEATURES)
    return [
        FeatureRow(
            stop=row[0],
            hour=row[1],
            numeric=dict(zip(NUMERIC_FEATURES, row[2 : 2 + n_num])),
            categorical=dict(zip(CATEGORICAL_FEATURES, row[2 + n_num : -1])),
            target=row[-1],
        )
        for row in read_table(source, JOINED_HEADER, _JOINED_TYPES)
    ]


def write_matrix_meta(
    codec: FeatureCodec, split: SplitSpec, dest: Union[str, os.PathLike]
) -> None:
    """Sidecar JSON describing the encoded matrices: codec + split recipe."""
    write_json(dest, {"format_version": 1, "codec": codec.to_dict(), "split": to_dict(split)})


def read_matrix_meta(source: Union[str, os.PathLike]) -> tuple[FeatureCodec, SplitSpec]:
    with read_json(source, 1) as payload:
        return FeatureCodec.from_dict(payload["codec"]), SplitSpec(**payload["split"])


def save_matrix(matrix: FeatureMatrix, dest: Union[str, os.PathLike]) -> None:
    """Matrix CSV: key columns, encoded features, target.

    Only matrices from ``FeatureCodec.transform``, which carry row keys,
    are saved. Each row's floats are made as it is written, so only one
    row exists as Python objects at a time.
    """
    X, y = matrix.rows, matrix.target
    write_table(
        dest,
        [*JOINED_KEY_COLUMNS, *matrix.column_names, "target"],
        (
            [stop, format_timestamp(hour), *X[i].tolist(), y[i].item()]
            for i, (stop, hour) in enumerate(matrix.keys)
        ),
    )


def load_matrix(
    source: Union[str, os.PathLike], codec: FeatureCodec
) -> FeatureMatrix:
    """The matrix CSV written by ``save_matrix``, under ``codec``'s columns.

    Each row's features and target go into one flat float64 buffer as the
    row is read, so the file is never held as Python floats; ``rows`` and
    ``target`` come out as C-contiguous float64 arrays of their own.
    """
    names = [c.name for c in codec.columns]
    cells = array("d")
    keys: list[tuple[str, datetime]] = []
    for row in read_table(
        source,
        [*JOINED_KEY_COLUMNS, *names, "target"],
        [str, parse_timestamp] + [real] * (len(names) + 1),
    ):
        keys.append((row[0], row[1]))
        cells.extend(row[2:])
    table = np.frombuffer(cells, dtype=np.float64).reshape(len(keys), len(names) + 1)
    return FeatureMatrix(
        columns=list(codec.columns),
        rows=table[:, :-1].copy(),
        target=table[:, -1].copy(),
        keys=keys,
    )
