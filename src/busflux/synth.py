"""Scenario generator with planted ground truth.

Builds probe-frame traces in which every emitted device is either a
genuine waiting passenger (a "trip": two bounded dwells at two different
stops the same day) or a member of exactly one noise class, each class
constructed to be removed by exactly one cleaning stage:

  randomized    locally-administered MAC, otherwise a valid trip
  single_stop   one stop all day, otherwise valid dwell
  out_of_rssi   valid trip shape, every frame outside the keep band
  short_dwell   both dwells shorter than the minimum duration
  long_dwell    both dwells longer than the maximum duration

Because membership is exact, the cleaning report's per-stage counters can
be checked against the planted counts with equality rather than tolerance,
and the surviving device set must equal the planted passenger set.

Per-day RNG substreams make a day's output independent of how many days
follow it, so extending the date range appends data without disturbing the
prefix.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from itertools import repeat
from typing import Union

from .aggregation import HourlyCount
# The scenario sections and their constants live in config; they stay
# importable from here.
from .config import (DEFAULT_HOUR_SHAPE, DEFAULT_STOPS, LAST_TRIP_START_HOUR, CleaningConfig,
                     DemandModel, NoiseMix, ScenarioConfig)
from .errors import ConfigError
from .features import FeatureMatrix
from .frames import DeviceId, FrameColumns, _ColumnBuilder, anonymize
from .lazy import numpy as np
from .schema import (epoch_seconds, read_artifact, to_dict, utc_datetime, whole_seconds,
                     write_artifact)
from .weather import WeatherObservation

NOISE_CLASSES = ("randomized", "single_stop", "out_of_rssi", "short_dwell", "long_dwell")


def default_noise_mix() -> NoiseMix:
    return NoiseMix(**{name: 0.1 for name in NOISE_CLASSES})


@dataclass(frozen=True, slots=True)
class PlantedDwell:
    stop: str
    device: DeviceId
    start: datetime
    end: datetime


@dataclass(slots=True)
class GroundTruth:
    dwells: list[PlantedDwell] = field(default_factory=list)
    hourly: list[HourlyCount] = field(default_factory=list)
    coefficients: dict = field(default_factory=dict)
    signal_devices: int = 0
    signal_frames: int = 0
    noise_devices: dict[str, int] = field(default_factory=lambda: dict.fromkeys(NOISE_CLASSES, 0))
    noise_frames: dict[str, int] = field(default_factory=lambda: dict.fromkeys(NOISE_CLASSES, 0))


def _truth_hourly(dwells: list[PlantedDwell]) -> list[HourlyCount]:
    """Hourly waiting counts straight from the planted intervals.

    Computed with plain integer minute arithmetic (never through the
    aggregation module) so pipeline output can be checked against an
    independent second implementation: a dwell covers every minute index in
    [floor(start/60), floor(end/60)], an hour averages its 60 minutes, and
    hours are zero-filled over the scenario's observed span. A dwell's
    minutes are handed out hour by hour, each hour getting those before its
    end less those already counted, so no minute is held on its own.
    """
    hour_sums: dict[tuple[str, int], int] = {}
    for d in dwells:
        first = epoch_seconds(d.start) // 60
        minutes = epoch_seconds(d.end) // 60 + 1 - first
        hour, counted = first // 60, 0
        while counted < minutes:
            upto = min(60 * (hour + 1) - first, minutes)
            key = (d.stop, hour)
            hour_sums[key] = hour_sums.get(key, 0) + upto - counted
            hour, counted = hour + 1, upto
    if not hour_sums:
        return []
    stops = sorted({stop for stop, _ in hour_sums})
    lo = min(h for _, h in hour_sums)
    hi = max(h for _, h in hour_sums)
    return [
        HourlyCount(
            stop=stop,
            hour=utc_datetime(h * 3600),
            count=hour_sums.get((stop, h), 0) / 60.0,
        )
        for h in range(lo, hi + 1)
        for stop in stops
    ]


_WEATHER_KINDS = (
    (800, "Clear", "clear sky"),
    (803, "Clouds", "broken clouds"),
    (500, "Rain", "light rain"),
    (501, "Rain", "moderate rain"),
)


def _day_weather(day: date, rng: np.random.Generator, recent_rain: list[float]) -> list[WeatherObservation]:
    """One observation per hour: a diurnal temperature arc around a per-day
    base, occasional multi-hour rain blocks, everything seeded."""
    out = []
    day_base = float(rng.uniform(2.0, 18.0))
    cloudy = float(rng.uniform(0.0, 1.0))
    rain_start, rain_len = 24, 0
    if rng.uniform() < 0.35:
        rain_start = int(rng.integers(6, 17))
        rain_len = int(rng.integers(2, 7))
    for hour in range(24):
        temp = day_base + 5.0 * float(np.sin((hour - 5.0) * np.pi / 19.0)) + float(rng.normal(0.0, 0.4))
        raining = rain_start <= hour < rain_start + rain_len
        rain_1h = round(float(rng.uniform(0.2, 3.0)), 2) if raining else 0.0
        recent_rain.append(rain_1h)
        del recent_rain[:-3]
        clouds = min(100.0, round(cloudy * 60 + (40.0 if raining else 0.0) + float(rng.uniform(0, 15)), 0))
        if raining:
            wid, main, desc = _WEATHER_KINDS[2] if rain_1h < 1.5 else _WEATHER_KINDS[3]
        elif clouds >= 50:
            wid, main, desc = _WEATHER_KINDS[1]
        else:
            wid, main, desc = _WEATHER_KINDS[0]
        spread = round(float(rng.uniform(0.5, 2.0)), 2)
        out.append(
            WeatherObservation(
                dt=epoch_seconds(datetime(day.year, day.month, day.day, hour)),
                temp=round(temp, 2),
                feels_like=round(temp - 1.5, 2),
                temp_min=round(temp - spread, 2),
                temp_max=round(temp + spread, 2),
                pressure=round(1013.0 + float(rng.normal(0.0, 4.0)), 1),
                sea_level=0.0,
                grnd_level=0.0,
                humidity=float(int(rng.integers(35, 96))),
                wind_speed=round(float(rng.uniform(0.0, 9.0)), 2),
                wind_deg=float(int(rng.integers(0, 360))),
                rain_1h=rain_1h,
                rain_3h=round(sum(recent_rain), 2),
                snow_1h=0.0,
                snow_3h=0.0,
                clouds_all=clouds,
                weather_id=wid,
                weather_main=main,
                weather_description=desc,
            )
        )
    return out


def _device_mac(index: int, randomized: bool) -> int:
    """The MAC xx:B8 followed by the low 32 bits of ``index``, where xx is
    02 (locally administered) for a randomized device and 00 otherwise."""
    return (0x02 if randomized else 0x00) << 40 | 0xB8 << 32 | index & 0xFFFFFFFF


def _dwell_frames(
    frames: _ColumnBuilder,
    stop: str,
    device: int,
    t0: int,
    t1: int,
    rssi_lo: int,
    rssi_hi: int,
    rng: np.random.Generator,
) -> int:
    """Frames of table entry ``device`` at exactly t0 and t1 with gaps well
    under the segmenter's threshold in between, so the recovered segment is
    the dwell interval. Every draw is a scalar call, times first and then
    one RSSI per frame, so that a seed's frames stay the same bits."""
    times = [t0]
    cur = t0
    while t1 - cur > 240:
        cur += int(rng.integers(45, 241))
        times.append(cur)
    times.append(t1)
    frames.stop.extend(repeat(frames.stop_code(stop), len(times)))
    frames.t.extend(times)
    frames.device.extend(repeat(device, len(times)))
    frames.rssi.extend(int(rng.integers(rssi_lo, rssi_hi + 1)) for _ in times)
    return len(times)


def generate(
    cfg: ScenarioConfig, cleaning: CleaningConfig | None = None
) -> tuple[FrameColumns, list[WeatherObservation], GroundTruth]:
    """Emit frames, the hourly weather series, and the planted truth.

    The dwell-duration bounds and the RSSI keep band that the noise
    classes fall outside of, and the signal inside of, are ``cleaning``'s,
    by default ``CleaningConfig()``'s, as in ``clean``.
    """
    cleaning = cleaning or CleaningConfig()
    truth = GroundTruth(coefficients={"demand": to_dict(cfg.demand)})
    frames = _ColumnBuilder()
    weather: list[WeatherObservation] = []

    noise_fractions = cfg.noise.as_tuple()
    signal_fraction = max(0.0, 1.0 - sum(noise_fractions))
    probs = np.array((signal_fraction,) + noise_fractions, dtype=np.float64)
    probs = probs / probs.sum()
    class_names = ("signal",) + NOISE_CLASSES

    d_min = whole_seconds(cleaning.d_min)
    d_max = whole_seconds(cleaning.d_max)
    keep_lo, keep_hi = cleaning.rssi_lo, cleaning.rssi_hi
    device_index = 0
    recent_rain: list[float] = []

    for day_index in range(cfg.days):
        day = cfg.start_date + timedelta(days=day_index)
        rng_w = np.random.default_rng((cfg.seed, 1, day_index))
        rng_t = np.random.default_rng((cfg.seed, 2, day_index))
        rng_c = np.random.default_rng((cfg.seed, 3, day_index))
        day_weather = _day_weather(day, rng_w, recent_rain)
        weather.extend(day_weather)
        day_start = epoch_seconds(datetime(day.year, day.month, day.day))

        for stop_index, stop in enumerate(cfg.stops):
            for hour in range(24):
                rate = cfg.demand.rate(stop_index, day, hour, day_weather[hour])
                if rate == 0.0:
                    continue
                for _ in range(int(rng_t.poisson(rate))):
                    cls = class_names[int(rng_c.choice(len(class_names), p=probs))]
                    randomized = cls == "randomized"
                    mac = _device_mac(device_index, randomized)
                    device_index += 1
                    device = anonymize(mac)
                    # A new device per trip: no lookup could find it again.
                    entry = frames.add_device(device.digest, mac)

                    if cls == "short_dwell":
                        draw = lambda: int(rng_t.integers(10, 91))
                    elif cls == "long_dwell":
                        draw = lambda: int(rng_t.integers(d_max + 90, d_max + 1800))
                    else:
                        draw = lambda: int(rng_t.integers(d_min + 10, d_max - 9))
                    lo, hi = (
                        (keep_lo - 30, keep_lo - 5)
                        if cls == "out_of_rssi"
                        else (keep_lo, keep_hi)
                    )

                    t0 = day_start + hour * 3600 + int(rng_t.integers(0, 3600))
                    t1 = t0 + draw()
                    n = _dwell_frames(frames, stop, entry, t0, t1, lo, hi, rng_t)
                    emitted = n
                    if cls != "single_stop":
                        offset = int(rng_t.integers(1, len(cfg.stops)))
                        stop2 = cfg.stops[(stop_index + offset) % len(cfg.stops)]
                        t2 = t1 + int(rng_t.integers(1200, 2401))
                        t3 = t2 + draw()
                        emitted += _dwell_frames(frames, stop2, entry, t2, t3, lo, hi, rng_t)

                    if cls == "signal":
                        truth.signal_devices += 1
                        truth.signal_frames += emitted
                        truth.dwells.append(
                            PlantedDwell(
                                stop=stop,
                                device=device,
                                start=utc_datetime(t0),
                                end=utc_datetime(t1),
                            )
                        )
                        truth.dwells.append(
                            PlantedDwell(
                                stop=stop2,
                                device=device,
                                start=utc_datetime(t2),
                                end=utc_datetime(t3),
                            )
                        )
                    else:
                        truth.noise_devices[cls] += 1
                        truth.noise_frames[cls] += emitted

    truth.hourly = _truth_hourly(truth.dwells)
    return frames.build(), weather, truth


def default_scenario(seed: int = 11, days: int = 30) -> ScenarioConfig:
    """The standard verification scenario: all five noise classes at 10%."""
    return ScenarioConfig(
        seed=seed,
        days=days,
        demand=DemandModel(base_rate=2.6),
        noise=default_noise_mix(),
    )


def noise_free_scenario(seed: int = 11, days: int = 30) -> ScenarioConfig:
    return ScenarioConfig(seed=seed, days=days)


def nonlinear_scenario(seed: int = 11, days: int = 14) -> ScenarioConfig:
    """Demand with strong multiplicative structure (peaked hours, spread-out
    stop weights, weather response) that a purely additive model underfits."""
    demand = DemandModel(
        base_rate=3.0,
        stop_weights=(0.35, 0.6, 1.0, 1.5, 2.2, 3.0, 4.0),
        hour_shape=(
            0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
            0.3, 1.6, 2.6, 1.4, 0.5, 0.4,
            0.6, 0.5, 0.4, 0.7, 1.5, 2.6,
            1.6, 0.6, 0.3, 0.0, 0.0, 0.0,
        ),
        weekday_weights=(1.0, 1.1, 1.1, 1.0, 0.9, 0.35, 0.25),
        rain_multiplier=0.45,
        cold_multiplier=0.6,
    )
    return ScenarioConfig(seed=seed, days=days, demand=demand)


# --- linear oracle dataset -------------------------------------------------


@dataclass(frozen=True, slots=True)
class LinearScenarioConfig:
    theta: tuple[float, ...]
    n: int = 200
    bias: float = 0.0
    sigma: float = 0.0
    seed: int = 5

    def __post_init__(self):
        if self.n < len(self.theta) + 1:
            raise ConfigError("need more rows than coefficients")
        if self.sigma < 0:
            raise ConfigError("sigma must be >= 0")


def linear_scenario(cfg: LinearScenarioConfig) -> FeatureMatrix:
    """Design matrix with target exactly theta . x + bias (+ optional noise),
    bypassing the frame pipeline; the recovery oracle for the linear model."""
    rng = np.random.default_rng(cfg.seed)
    theta = np.array(cfg.theta, dtype=np.float64)
    X = rng.standard_normal((cfg.n, theta.size))
    y = X @ theta + cfg.bias
    if cfg.sigma > 0:
        y = y + cfg.sigma * rng.standard_normal(cfg.n)
    return FeatureMatrix.from_arrays(X, y)


# --- ground-truth serialization -------------------------------------------

TRUTH_FORMAT_VERSION = 2


def write_truth_json(truth: GroundTruth, dest: Union[str, os.PathLike]) -> None:
    write_artifact(dest, truth, TRUTH_FORMAT_VERSION)


def read_truth_json(source: Union[str, os.PathLike]) -> GroundTruth:
    return read_artifact(GroundTruth, source, TRUTH_FORMAT_VERSION)
