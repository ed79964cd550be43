"""Design matrix assembly: weather join, calendar features, encoding, splits.

Feature derivation happens in local campus time (configured UTC offset);
everything else in the pipeline stays UTC. Joined rows live in one
columnar ``JoinedTable``, which the split subsets by index and the codec
encodes a column at a time. Normalization statistics and one-hot
vocabularies are fit on the training partition only.
"""

from __future__ import annotations

import os
from array import array
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from itertools import pairwise
from typing import Iterable, Iterator, Sequence, Union

from .aggregation import HourlyCount
from .config import CampusCalendar, SplitSpec
from .errors import BusfluxError, ConfigError
from .lazy import numpy as np
from .schema import (format_timestamp, parse_timestamp, read_json, read_table, real, to_dict,
                     write_json, write_table)
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

# A joined row holds the cells of JOINED_HEADER, with the hour as a datetime.
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
_FIRST_CATEGORICAL = len(JOINED_KEY_COLUMNS) + len(NUMERIC_FEATURES)


class RowRejected(BusfluxError):
    """A (stop, hour) row cannot become a feature row; carries the reason."""


def derive_features(count: HourlyCount, wx: WeatherObservation, cal: CampusCalendar) -> list:
    """Join one hourly count with its weather hour and derive calendar
    features: the joined row, in ``JOINED_HEADER`` order.

    week_of_semester = floor(days(local_date - semester_start) / 7) + 1, so
    the semester start date itself lands in week 1. Hours before the
    semester are rejected.
    """
    local = count.hour + timedelta(hours=cal.utc_offset_hours)
    local_date = local.date()
    if local_date < cal.semester_start:
        raise RowRejected(
            f"{count.stop}@{count.hour}: before semester start {cal.semester_start}"
        )
    week = (local_date - cal.semester_start).days // 7 + 1
    weekday = local.weekday()
    return [
        count.stop, count.hour,
        *(getattr(wx, name) for name in _WEATHER_FEATURES), float(week), float(local.hour),
        count.stop, wx.weather_main, wx.weather_description, WEEKDAY_NAMES[weekday],
        "true" if weekday >= 5 else "false",
        "true" if local.hour < cal.morning_end_hour else "false",
        count.count,
    ]


@dataclass(slots=True)
class JoinedTable:
    """Joined (stop, hour) rows as flat, row-major ``array`` columns.

    ``numeric_cells`` holds one float64 per ``NUMERIC_FEATURES`` name and
    row. Cell g of a row's ``code_cells`` indexes ``vocab[g]``, the values
    of categorical group ``CATEGORICAL_FEATURES[g]`` in the order they were
    first seen. A subset made by ``take`` shares its parent's vocabularies.
    Reading the rows back and writing them in key order needs no numpy;
    ``numeric``, ``codes`` and ``target`` are numpy views of the cells,
    made without a copy where the codec and the split need arrays.
    """

    keys: list[tuple[str, datetime]]
    numeric_cells: array
    code_cells: array
    vocab: tuple[list[str], ...]
    target_cells: array

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence]) -> "JoinedTable":
        """The joined rows, each appended to flat buffers as it arrives, so
        that no row is kept as Python objects beyond its key."""
        keys: list[tuple[str, datetime]] = []
        numeric = array("d")
        codes = array("q")
        target = array("d")
        seen: list[dict[str, int]] = [{} for _ in CATEGORICAL_FEATURES]
        for row in rows:
            keys.append((row[0], row[1]))
            numeric.extend(row[len(JOINED_KEY_COLUMNS) : _FIRST_CATEGORICAL])
            for lookup, value in zip(seen, row[_FIRST_CATEGORICAL:-1]):
                codes.append(lookup.setdefault(value, len(lookup)))
            target.append(row[-1])
        return cls(keys, numeric, codes, tuple(list(lookup) for lookup in seen), target)

    def __len__(self) -> int:
        return len(self.keys)

    n_rows = property(__len__)

    @property
    def numeric(self) -> np.ndarray:
        return np.frombuffer(self.numeric_cells).reshape(len(self), len(NUMERIC_FEATURES))

    @property
    def codes(self) -> np.ndarray:
        return np.frombuffer(self.code_cells, dtype=np.int64).reshape(
            len(self), len(CATEGORICAL_FEATURES))

    @property
    def target(self) -> np.ndarray:
        return np.frombuffer(self.target_cells)

    def row(self, i: int) -> list:
        """Row ``i``, in ``JOINED_HEADER`` order."""
        k, g = len(NUMERIC_FEATURES), len(CATEGORICAL_FEATURES)
        categorical = (vocab[c] for vocab, c in zip(self.vocab, self.code_cells[i * g : i * g + g]))
        return [*self.keys[i], *self.numeric_cells[i * k : i * k + k], *categorical,
                self.target_cells[i]]

    def __iter__(self) -> Iterator[list]:
        """Each joined row, made as it is yielded."""
        return map(self.row, range(len(self)))

    def take(self, index: np.ndarray) -> "JoinedTable":
        """The rows at ``index``, in that order."""
        return JoinedTable([self.keys[i] for i in index.tolist()], _cells("d", self.numeric[index]),
                           _cells("q", self.codes[index]), self.vocab,
                           _cells("d", self.target[index]))

    def key_order(self) -> list[int] | None:
        """The row indices in (stop, hour) order, equal keys in input order;
        None when the rows are already in that order."""
        if all(a <= b for a, b in pairwise(self.keys)):
            return None
        return sorted(range(len(self.keys)), key=self.keys.__getitem__)

    def sorted_by_key(self) -> "JoinedTable":
        """The rows in key order; the table itself when it is already in
        that order."""
        order = self.key_order()
        return self if order is None else self.take(np.array(order, dtype=np.intp))


def _cells(typecode: str, values: np.ndarray) -> array:
    """A C-contiguous array's cells, copied into an ``array``."""
    cells = array(typecode)
    if values.size:  # a memoryview casts no empty view
        cells.frombytes(memoryview(values).cast("B"))
    return cells


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
) -> tuple[JoinedTable, JoinReport]:
    """Join all hourly counts against weather; missing hours are dropped,
    not interpolated, and the loss is surfaced in the report."""
    report = JoinReport(rows_in=len(counts))

    def joined() -> Iterator[list]:
        for count in counts:
            wx = weather_by_hour.get(count.hour)
            if wx is None:
                report.dropped_no_weather += 1
                continue
            try:
                row = derive_features(count, wx, cal)
            except RowRejected:
                report.rejected_pre_semester += 1
                continue
            report.rows_out += 1
            yield row

    table = JoinedTable.from_rows(joined())
    report.check()
    return table, report


@dataclass(frozen=True, slots=True)
class ColumnMeta:
    name: str
    kind: str  # "numeric" | "onehot"
    mean: float | None = None
    std: float | None = None
    group: str | None = None
    value: str | None = None

    def __post_init__(self):
        # A codec read from a file: its names become a matrix header.
        if not isinstance(self.name, str) or self.kind not in ("numeric", "onehot"):
            raise TypeError(f"a column needs a string name and the kind 'numeric' or 'onehot', "
                            f"not {self.name!r} and {self.kind!r}")


@dataclass(slots=True)
class FeatureMatrix:
    """2-D float64 rows and a float64 target of one entry per row, which the
    model fits take as they are."""

    columns: list[ColumnMeta]
    rows: np.ndarray
    target: np.ndarray
    keys: list[tuple[str, datetime]] | None = None

    def __post_init__(self):
        X, y = self.rows, self.target
        if not (X.ndim == 2 and X.dtype == y.dtype == np.float64 and y.shape == X.shape[:1]):
            raise ValueError("a feature matrix needs 2-D float64 rows and a float64 target of "
                             f"one entry per row, not {X.dtype} {X.shape} and {y.dtype} {y.shape}")

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
    def fit(cls, train_rows: JoinedTable) -> "FeatureCodec":
        if not train_rows:
            raise BusfluxError("cannot fit a feature codec on zero rows")
        columns: list[ColumnMeta] = []
        dropped: list[str] = []
        for name in sorted(NUMERIC_FEATURES):
            # A contiguous copy: a strided reduction may sum in another
            # order and so change the bits of the mean or std.
            values = np.ascontiguousarray(train_rows.numeric[:, NUMERIC_FEATURES.index(name)])
            mean = float(values.mean())
            std = float(values.std())
            if std == 0.0:
                dropped.append(name)
                continue
            columns.append(ColumnMeta(name=name, kind="numeric", mean=mean, std=std))
        for group in sorted(CATEGORICAL_FEATURES):
            g = CATEGORICAL_FEATURES.index(group)
            vocab = train_rows.vocab[g]
            for value in sorted(vocab[c] for c in np.unique(train_rows.codes[:, g]).tolist()):
                columns.append(ColumnMeta(f"{group}_{value}", "onehot", group=group, value=value))
        return cls(columns=columns, dropped_constant=dropped)

    def transform(self, rows: JoinedTable) -> FeatureMatrix:
        """Encode rows against the fitted columns.

        Unseen categories produce an all-zero dummy group; numeric features
        are z-scored with the training statistics.
        """
        n, d = len(rows), len(self.columns)
        X = np.zeros((n, d), dtype=np.float64)
        index = {c.name: j for j, c in enumerate(self.columns)}
        for j, c in enumerate(self.columns):
            if c.kind == "numeric":
                X[:, j] = (rows.numeric[:, NUMERIC_FEATURES.index(c.name)] - c.mean) / c.std
        every = np.arange(n)
        for group, vocab, codes in zip(CATEGORICAL_FEATURES, rows.vocab, rows.codes.T):
            # The dummy column of each code, -1 where the codec has none.
            column = np.array([index.get(f"{group}_{v}", -1) for v in vocab], dtype=np.intp)
            cols = column[codes]
            seen = cols >= 0
            X[every[seen], cols[seen]] = 1.0
        return FeatureMatrix(list(self.columns), X, rows.target.copy(), list(rows.keys))

    def to_dict(self) -> dict:
        return {"columns": [to_dict(c) for c in self.columns],
                "dropped_constant": self.dropped_constant}

    @classmethod
    def from_dict(cls, data: dict) -> "FeatureCodec":
        return cls([ColumnMeta(**c) for c in data["columns"]],
                   list(data.get("dropped_constant", [])))


def split_rows(
    rows: JoinedTable, split: SplitSpec
) -> tuple[JoinedTable, JoinedTable, JoinedTable]:
    """Seeded random partition into train/val/test over row keys.

    The permutation is drawn over the rows in (stop, hour) order, so
    identical data always splits identically regardless of input order;
    each partition keeps that order. Partitions are disjoint and
    exhaustive. Both fractions are below 1, so train is never empty.
    """
    ordered = rows.sorted_by_key()
    n = len(ordered)
    n_test = int(n * split.test_fraction)
    n_val = int((n - n_test) * split.val_fraction_of_train)
    if n_test < 1 or (split.val_fraction_of_train > 0 and n_val < 1):
        raise BusfluxError(f"{n} rows cannot fill non-empty train/val/test partitions")
    perm = np.random.default_rng(split.seed).permutation(n)
    test = ordered.take(np.sort(perm[:n_test]))
    val = ordered.take(np.sort(perm[n_test : n_test + n_val]))
    train = ordered.take(np.sort(perm[n_test + n_val :]))
    return train, val, test


# --- joined-row and matrix serialization ---------------------------------


def write_joined_csv(rows: JoinedTable, dest: Union[str, os.PathLike]) -> None:
    """Raw joined rows (pre-encoding) in key order: keys, numerics,
    categoricals, target."""
    order = rows.key_order()
    ordered = rows if order is None else map(rows.row, order)
    cells = ([stop, format_timestamp(hour), *rest] for stop, hour, *rest in ordered)
    write_table(dest, JOINED_HEADER, cells)


def read_joined_csv(source: Union[str, os.PathLike]) -> JoinedTable:
    return JoinedTable.from_rows(read_table(source, JOINED_HEADER, _JOINED_TYPES))


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
