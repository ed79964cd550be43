"""OpenWeather-format historical observations: parsing, validation, hourly keys.

Input is a JSON array of hourly objects or a CSV with the same field names.
There is no HTTP client here on purpose: the wire format is identical, and
file-based ingestion keeps every run hermetic.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from typing import IO, Sequence, Union

from .errors import ParseError
from .schema import decoding, epoch_seconds, source_name, to_dict, utc_datetime, write_json

# Field names follow the OpenWeather bulk export exactly.
NUMERIC_FIELDS = (
    "temp",
    "feels_like",
    "temp_min",
    "temp_max",
    "pressure",
    "sea_level",
    "grnd_level",
    "humidity",
    "wind_speed",
    "wind_deg",
    "rain_1h",
    "rain_3h",
    "snow_1h",
    "snow_3h",
    "clouds_all",
)
CATEGORICAL_FIELDS = ("weather_id", "weather_main", "weather_description")
OPTIONAL_FIELDS = ("rain_1h", "rain_3h", "snow_1h", "snow_3h", "sea_level", "grnd_level")

CSV_HEADER = "dt," + ",".join(NUMERIC_FIELDS) + "," + ",".join(CATEGORICAL_FIELDS)


@dataclass(frozen=True, slots=True)
class WeatherObservation:
    """One hourly weather record; dt is unix seconds, UTC."""

    dt: int
    temp: float
    feels_like: float
    temp_min: float
    temp_max: float
    pressure: float
    sea_level: float
    grnd_level: float
    humidity: float
    wind_speed: float
    wind_deg: float
    rain_1h: float
    rain_3h: float
    snow_1h: float
    snow_3h: float
    clouds_all: float
    weather_id: int
    weather_main: str
    weather_description: str

    @property
    def at(self) -> datetime:
        return utc_datetime(self.dt)


@dataclass(slots=True)
class WeatherParseReport:
    rows_total: int = 0
    rows_ok: int = 0
    duplicate_dt: int = 0
    sorted_input: bool = True
    absent_defaults: Counter = field(default_factory=Counter)
    rejected: list[tuple[int, str]] = field(default_factory=list)

    def rejected_by_reason(self) -> dict[str, int]:
        """Rejected rows counted by reason: a reason's text before its first
        ": ", so rows failing one check with different values count together."""
        return dict(Counter(reason.split(": ", 1)[0] for _, reason in self.rejected))


# The unix seconds that a datetime can hold, years 1 to 9999.
_DT_RANGE = range(epoch_seconds(datetime.min),
                  epoch_seconds(datetime.max.replace(microsecond=0)) + 1)


def _validate(values: dict) -> str | None:
    if values["dt"] not in _DT_RANGE:
        return f"dt out of range: {values['dt']}"
    for name in NUMERIC_FIELDS:
        if not math.isfinite(values[name]):
            return f"non-finite {name}: {values[name]}"
    if not 0 <= values["humidity"] <= 100:
        return f"humidity out of [0,100]: {values['humidity']}"
    if not 0 <= values["clouds_all"] <= 100:
        return f"clouds_all out of [0,100]: {values['clouds_all']}"
    if values["wind_speed"] < 0:
        return f"negative wind_speed: {values['wind_speed']}"
    if not 0 <= values["wind_deg"] < 360:
        return f"wind_deg out of [0,360): {values['wind_deg']}"
    for name in ("rain_1h", "rain_3h", "snow_1h", "snow_3h"):
        if values[name] < 0:
            return f"negative precipitation {name}: {values[name]}"
    if not values["temp_min"] <= values["temp"] <= values["temp_max"]:
        return (
            f"temp ordering violated: {values['temp_min']} <= "
            f"{values['temp']} <= {values['temp_max']}"
        )
    return None


# The JSON types a field of each kind may hold; a bool is never a number.
_JSON_TYPES = {int: int, float: (int, float), str: str}
_KIND_NAMES = {int: "an integer", float: "a number", str: "a string"}


def _field(raw: dict, name: str, kind: type, text: bool):
    """Field ``name`` of a row as ``kind``. A CSV row's cells are text and
    are converted; a JSON row's value must already be of the JSON type."""
    value = raw[name]
    if isinstance(value, str if text else _JSON_TYPES[kind]) and not isinstance(value, bool):
        try:
            return kind(value)
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{name} needs {_KIND_NAMES[kind]}, got {value!r}")


def _build(
    raw: dict, index: int, report: WeatherParseReport, text: bool
) -> WeatherObservation | None:
    values: dict = {}
    try:
        values["dt"] = _field(raw, "dt", int, text)
        for name in NUMERIC_FIELDS:
            if name in raw and raw[name] not in (None, ""):
                values[name] = _field(raw, name, float, text)
            elif name in OPTIONAL_FIELDS:
                values[name] = 0.0
                report.absent_defaults[name] += 1
            else:
                raise KeyError(name)
        values["weather_id"] = _field(raw, "weather_id", int, text)
        for name in ("weather_main", "weather_description"):
            values[name] = _field(raw, name, str, text)
    except (KeyError, ValueError) as exc:
        report.rejected.append((index, f"missing or malformed field: {exc}"))
        return None

    problem = _validate(values)
    if problem is not None:
        report.rejected.append((index, problem))
        return None
    return WeatherObservation(**values)


def parse_weather(
    source: Union[str, os.PathLike, IO[bytes], IO[str]],
) -> tuple[list[WeatherObservation], WeatherParseReport]:
    """Parse observations from a JSON array or CSV, told apart by the
    first character that is not whitespace.

    Optional fields (rain_*, snow_*, sea_level, grnd_level) default to 0
    with a per-field absence counter. Duplicate dt keeps the first
    occurrence; out-of-order input is sorted. Both are warnings, not
    errors. Rows holding a non-finite number, a field of the wrong type or
    a value violating range invariants, and CSV rows with more fields than
    the header, are rejected into the report: ``dt`` and ``weather_id``
    must be integers (a JSON integer, or integer text in CSV), the other
    numbers JSON numbers or number text but never booleans, and
    ``weather_main`` and ``weather_description`` strings.
    """
    with decoding(source):
        if hasattr(source, "read"):
            data = source.read()
            text = data.decode("utf-8") if isinstance(data, bytes) else data
        else:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()

    from_csv = text.lstrip()[:1] not in ("[", "{")
    report = WeatherParseReport()
    rows: list
    if from_csv:
        buf = io.StringIO(text)
        header = buf.readline().rstrip("\r\n")
        if header != CSV_HEADER:
            raise ParseError(f"{source_name(source)}: weather CSV needs header "
                             f"{CSV_HEADER!r}, got {header!r}")
        names = header.split(",")
        rows = [row for row in csv.reader(buf) if row]
    else:
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{source_name(source)}: weather JSON unreadable: {exc}") from exc
        if not isinstance(payload, list):
            raise ParseError(f"{source_name(source)}: weather JSON must be an array of "
                             "hourly objects")
        rows = payload

    observations: list[WeatherObservation] = []
    seen: set[int] = set()
    last_dt: int | None = None
    for index, raw in enumerate(rows):
        report.rows_total += 1
        if from_csv:
            if len(raw) > len(names):
                report.rejected.append((index, f"{len(raw)} fields, the header has {len(names)}"))
                continue
            raw = dict(zip(names, raw))
        elif not isinstance(raw, dict):
            report.rejected.append((index, "not an object"))
            continue
        obs = _build(raw, index, report, from_csv)
        if obs is None:
            continue
        if obs.dt in seen:
            report.duplicate_dt += 1
            continue
        seen.add(obs.dt)
        if last_dt is not None and obs.dt < last_dt:
            report.sorted_input = False
        last_dt = obs.dt
        observations.append(obs)
        report.rows_ok += 1

    if not report.sorted_input:
        observations.sort(key=lambda o: o.dt)
    return observations, report


def _mode(values: Sequence) -> object:
    """Most frequent value; ties go to the smallest, for determinism."""
    counts = Counter(values)
    best = max(counts.values())
    return min(v for v, n in counts.items() if n == best)


def hourly_lookup(
    observations: Sequence[WeatherObservation],
) -> dict[datetime, WeatherObservation]:
    """Key observations by their UTC hour.

    Multiple observations in one hour are merged: numeric fields are
    averaged, categorical fields (weather_id included; it is a code, not a
    magnitude) take the mode with ties to the smallest value.
    """
    buckets: dict[datetime, list[WeatherObservation]] = {}
    for obs in observations:
        hour = obs.at.replace(minute=0, second=0, microsecond=0)
        buckets.setdefault(hour, []).append(obs)

    out: dict[datetime, WeatherObservation] = {}
    for hour, group in buckets.items():
        if len(group) == 1:
            out[hour] = group[0]
            continue
        merged = {"dt": epoch_seconds(hour)}
        for name in NUMERIC_FIELDS:
            merged[name] = sum(getattr(o, name) for o in group) / len(group)
        for name in CATEGORICAL_FIELDS:
            merged[name] = _mode([getattr(o, name) for o in group])
        out[hour] = WeatherObservation(**merged)
    return out


def write_weather_json(
    observations: Sequence[WeatherObservation], dest: Union[str, os.PathLike]
) -> None:
    """Serialize observations as the JSON-array wire format.

    Zero-valued optional fields are omitted, mirroring how the upstream
    export leaves out dry hours.
    """
    rows = [
        {name: v for name, v in to_dict(obs).items() if v != 0 or name not in OPTIONAL_FIELDS}
        for obs in observations
    ]
    write_json(dest, rows)
