"""Weather ingestion: JSON/CSV parsing, defaults, validation, hourly keys."""

from __future__ import annotations

import io
import json
import re
from datetime import datetime

import pytest

from busflux.errors import ParseError
from busflux.weather import (
    CSV_HEADER,
    WeatherObservation,
    hourly_lookup,
    parse_weather,
    write_weather_json,
)

DT_8AM = 1491379200  # 2017-04-05 08:00:00 UTC


def obs(dt: int = DT_8AM, **overrides) -> WeatherObservation:
    values = dict(
        dt=dt,
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


def row(dt: int = DT_8AM, **overrides) -> dict:
    d = {
        "dt": dt,
        "temp": 10.0,
        "feels_like": 8.5,
        "temp_min": 9.0,
        "temp_max": 11.0,
        "pressure": 1013.0,
        "humidity": 70.0,
        "wind_speed": 3.0,
        "wind_deg": 180.0,
        "clouds_all": 40.0,
        "weather_id": 800,
        "weather_main": "Clear",
        "weather_description": "clear sky",
    }
    d.update(overrides)
    return d


def write_json(tmp_path, rows, name="wx.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rows))
    return path


# ── Parsing ──────────────────────────────────────────────────────────────────


def test_parse_json_array(tmp_path):
    path = write_json(tmp_path, [row(), row(dt=DT_8AM + 3600)])
    observations, report = parse_weather(path)
    assert len(observations) == 2
    assert report.rows_ok == 2 and not report.rejected
    assert observations[0].at == datetime(2017, 4, 5, 8)


def test_absent_optional_fields_default_to_zero_and_are_counted(tmp_path):
    path = write_json(tmp_path, [row()])
    observations, report = parse_weather(path)
    o = observations[0]
    assert (o.rain_1h, o.rain_3h, o.snow_1h, o.snow_3h) == (0.0, 0.0, 0.0, 0.0)
    assert report.absent_defaults["rain_1h"] == 1
    assert report.absent_defaults["snow_3h"] == 1


def test_missing_required_field_rejects_the_row(tmp_path):
    bad = row()
    del bad["temp"]
    path = write_json(tmp_path, [bad, row(dt=DT_8AM + 3600)])
    observations, report = parse_weather(path)
    assert len(observations) == 1
    assert len(report.rejected) == 1
    assert report.rejected[0][0] == 0  # row index


def test_range_violations_reject_rows(tmp_path):
    rows = [
        row(humidity=101.0),
        row(dt=DT_8AM + 3600, wind_deg=360.0),
        row(dt=DT_8AM + 7200, rain_1h=-1.0),
        row(dt=DT_8AM + 10800, temp=20.0),  # above temp_max
        row(dt=DT_8AM + 14400, clouds_all=100.5),
        row(dt=DT_8AM + 18000, wind_speed=-0.5),
    ]
    observations, report = parse_weather(write_json(tmp_path, rows))
    assert observations == []
    assert report.rejected == [
        (0, "humidity out of [0,100]: 101.0"),
        (1, "wind_deg out of [0,360): 360.0"),
        (2, "negative precipitation rain_1h: -1.0"),
        (3, "temp ordering violated: 9.0 <= 20.0 <= 11.0"),
        (4, "clouds_all out of [0,100]: 100.5"),
        (5, "negative wind_speed: -0.5"),
    ]


@pytest.mark.parametrize("element", [None, 3, "row", [DT_8AM]])
def test_json_element_that_is_not_an_object_rejects_its_row(tmp_path, element):
    observations, report = parse_weather(write_json(tmp_path, [element, row()]))
    assert [o.dt for o in observations] == [DT_8AM]
    assert report.rows_total == 2 and report.rows_ok == 1
    assert report.rejected == [(0, "not an object")]


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_json_values_reject_rows(tmp_path, value):
    # json.dumps writes these as the bare tokens NaN, Infinity, -Infinity.
    rows = [row(pressure=value), row(dt=DT_8AM + 3600, wind_speed=value), row(dt=DT_8AM + 7200)]
    observations, report = parse_weather(write_json(tmp_path, rows))
    assert [o.dt for o in observations] == [DT_8AM + 7200]
    assert [index for index, _ in report.rejected] == [0, 1]
    assert all("non-finite" in reason for _, reason in report.rejected)


@pytest.mark.parametrize("text", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_non_finite_csv_values_reject_rows(tmp_path, text):
    o = obs()
    cells = [str(getattr(o, name)) for name in CSV_HEADER.split(",")]
    bad = [text if name == "pressure" else cell for name, cell in zip(CSV_HEADER.split(","), cells)]
    path = tmp_path / "wx.csv"
    path.write_text(CSV_HEADER + "\n" + ",".join(bad) + "\n" + ",".join(cells) + "\n")
    observations, report = parse_weather(path)
    assert observations == [o]
    assert report.rejected == [(0, f"non-finite pressure: {float(text)}")]


def _csv_line(o: WeatherObservation, **cells) -> str:
    names = CSV_HEADER.split(",")
    return ",".join(cells.get(name, str(getattr(o, name))) for name in names) + "\n"


@pytest.mark.parametrize(
    "fmt, field, value, reason",
    [
        ("json", "weather_main", None, "weather_main needs a string, got None"),
        ("json", "weather_main", 7, "weather_main needs a string, got 7"),
        ("json", "weather_main", ["x"], "weather_main needs a string, got ['x']"),
        ("json", "weather_description", 1.5, "weather_description needs a string, got 1.5"),
        ("json", "dt", 1491350400.9, "dt needs an integer, got 1491350400.9"),
        ("json", "dt", True, "dt needs an integer, got True"),
        ("json", "dt", "1491350400", "dt needs an integer, got '1491350400'"),
        ("json", "weather_id", 800.7, "weather_id needs an integer, got 800.7"),
        ("json", "pressure", True, "pressure needs a number, got True"),
        ("json", "pressure", "1013", "pressure needs a number, got '1013'"),
        ("csv", "dt", "1491350400.9", "dt needs an integer, got '1491350400.9'"),
        ("csv", "weather_id", "800.7", "weather_id needs an integer, got '800.7'"),
        ("csv", "pressure", "True", "pressure needs a number, got 'True'"),
    ],
)
def test_wrong_typed_fields_reject_the_row(tmp_path, fmt, field, value, reason):
    good = obs(dt=DT_8AM + 3600)
    if fmt == "json":
        path = write_json(tmp_path, [row(**{field: value}), row(dt=DT_8AM + 3600)])
    else:
        path = tmp_path / "wx.csv"
        path.write_text(CSV_HEADER + "\n" + _csv_line(obs(), **{field: value}) + _csv_line(good))
    observations, report = parse_weather(path)
    assert observations == [good]
    assert report.rejected == [(0, f"missing or malformed field: {reason}")]


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("dt", [DT_8AM * 1000, -DT_8AM * 100])
def test_a_dt_that_no_datetime_holds_rejects_the_row(tmp_path, fmt, dt):
    # A millisecond timestamp passed as a good row, and hourly_lookup then
    # raised OverflowError, so join exited 1 with a traceback.
    good = obs(dt=DT_8AM + 3600)
    if fmt == "json":
        path = write_json(tmp_path, [row(dt=dt), row(dt=DT_8AM + 3600)])
    else:
        path = tmp_path / "wx.csv"
        path.write_text(CSV_HEADER + "\n" + _csv_line(obs(), dt=str(dt)) + _csv_line(good))
    observations, report = parse_weather(path)
    assert observations == [good]
    assert report.rejected == [(0, f"dt out of range: {dt}")]
    assert list(hourly_lookup(observations).values()) == [good]


def test_duplicate_dt_keeps_first(tmp_path):
    path = write_json(tmp_path, [row(temp=10.0), row(temp=9.0, temp_min=8.0)])
    observations, report = parse_weather(path)
    assert len(observations) == 1
    assert observations[0].temp == 10.0
    assert report.duplicate_dt == 1


def test_unsorted_input_is_sorted_and_flagged(tmp_path):
    path = write_json(tmp_path, [row(dt=DT_8AM + 3600), row(dt=DT_8AM)])
    observations, report = parse_weather(path)
    assert not report.sorted_input
    assert [o.dt for o in observations] == [DT_8AM, DT_8AM + 3600]


def test_parse_csv_with_same_fields(tmp_path):
    path = tmp_path / "wx.csv"
    o = obs()
    cells = [str(getattr(o, name)) for name in CSV_HEADER.split(",")]
    path.write_text(CSV_HEADER + "\n" + ",".join(cells) + "\n")
    observations, report = parse_weather(path)
    assert observations == [o]
    assert report.rows_ok == 1


def test_csv_rows_with_more_or_fewer_fields_than_the_header_are_rejected(tmp_path):
    # A 20th cell was dropped without a trace, and the row accepted.
    o = obs()
    good = ",".join(str(getattr(o, name)) for name in CSV_HEADER.split(","))
    short = good.rsplit(",", 1)[0]
    path = tmp_path / "wx.csv"
    path.write_text(f"{CSV_HEADER}\n{good}\n{good},EXTRA\n{short}\n")
    observations, report = parse_weather(path)
    assert observations == [o]
    assert (report.rows_total, report.rows_ok) == (3, 1)
    assert report.rejected[0] == (1, "20 fields, the header has 19")
    assert [index for index, _ in report.rejected] == [1, 2]


@pytest.mark.parametrize("name, text, message", [
    ("wx.csv", "a,b\n1,2\n", "weather CSV needs header "),
    ("wx.json", "[1, 2", "weather JSON unreadable: "),
    ("wx.json", '{"dt": 1}', "weather JSON must be an array of hourly objects"),
], ids=["csv header", "json unreadable", "json not an array"])
def test_a_fatal_weather_error_names_the_file_or_the_stream(tmp_path, name, text, message):
    path = tmp_path / name
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: {message}')}"):
        parse_weather(path)
    with pytest.raises(ParseError, match=f"^input stream: {re.escape(message)}"):
        parse_weather(io.BytesIO(text.encode()))


def test_weather_that_is_not_utf8_is_a_parse_error_naming_it(tmp_path):
    path = write_json(tmp_path, [row()])
    data = path.read_bytes() + b"\xff"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: cannot decode: "):
        parse_weather(path)
    with pytest.raises(ParseError, match="^input stream: cannot decode: "):
        parse_weather(io.BytesIO(data))


# ── Hourly lookup ────────────────────────────────────────────────────────────


def test_hourly_lookup_keys_by_utc_hour():
    table = hourly_lookup([obs()])
    assert set(table) == {datetime(2017, 4, 5, 8)}


def test_hourly_lookup_merges_same_hour_by_mean_and_mode():
    a = obs(dt=DT_8AM, temp=10.0, weather_id=800, weather_main="Clear")
    b = obs(dt=DT_8AM + 1800, temp=12.0, temp_max=13.0, weather_id=500, weather_main="Rain", weather_description="light rain")
    c = obs(dt=DT_8AM + 1900, temp=11.0, weather_id=500, weather_main="Rain", weather_description="light rain")
    merged = hourly_lookup([a, b, c])[datetime(2017, 4, 5, 8)]
    assert merged.temp == pytest.approx(11.0)
    assert merged.weather_id == 500  # mode
    assert merged.weather_main == "Rain"


def test_hourly_lookup_mode_tie_goes_to_smallest():
    a = obs(dt=DT_8AM, weather_id=800)
    b = obs(dt=DT_8AM + 60, weather_id=500, weather_main="Rain", weather_description="light rain")
    merged = hourly_lookup([a, b])[datetime(2017, 4, 5, 8)]
    assert merged.weather_id == 500


# ── Serialization ────────────────────────────────────────────────────────────


def test_json_round_trip(tmp_path):
    original = [obs(), obs(dt=DT_8AM + 3600, rain_1h=1.2, rain_3h=1.2)]
    path = tmp_path / "wx.json"
    write_weather_json(original, path)
    back, report = parse_weather(path)
    assert back == original
    assert not report.rejected


def test_writer_omits_zero_optional_fields(tmp_path):
    path = tmp_path / "wx.json"
    write_weather_json([obs()], path)
    raw = json.loads(path.read_text())[0]
    assert "rain_1h" not in raw and "sea_level" not in raw
    assert "temp" in raw
