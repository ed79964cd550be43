"""Pipeline configuration file: one JSON document, one section per stage.

Every section and key is optional and falls back to the stage defaults,
so a config file only needs to spell out what it changes. Unknown keys,
values of the wrong type and non-finite numbers are rejected with a
ConfigError naming the dotted key, so a misspelt key cannot silently leave
a default in place. The ``cleaning`` section serves both ``clean`` and
the noise that ``synth`` plants against it. Command-line flags
override file values through the same loader; the fully resolved config
is what run manifests snapshot.

The section dataclasses live here, and ``cleaning``, ``features`` and
``synth`` import them back, so reading a config runs none of the stage
modules: a CLI stage loads only the modules its handler calls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date, timedelta
from typing import TYPE_CHECKING, Union

from .errors import ConfigError
from .models.config import TrainConfig
from .schema import from_dict, load_json, to_dict, write_json

if TYPE_CHECKING:
    from .weather import WeatherObservation

DEFAULT_SEMESTER_START = date(2017, 1, 9)


WINDOW_PER_DAY = "per-day"
WINDOW_WHOLE_DATASET = "whole-dataset"


@dataclass(frozen=True, slots=True)
class CleaningConfig:
    """Thresholds for the cleaning pipeline.

    The dwell bounds and RSSI range follow the field deployment defaults
    (2/30 minutes, -80/-30 dBm, both ends inclusive); the segmentation gap
    is not published anywhere, so it defaults to 5 minutes and is
    configurable down to 60 s. A shorter gap would let one device's
    segments share a minute, which the minute counts would count twice.
    """

    d_min: timedelta = timedelta(minutes=2)
    d_max: timedelta = timedelta(minutes=30)
    gap: timedelta = timedelta(minutes=5)
    rssi_lo: int = -80
    rssi_hi: int = -30
    multi_stop_window: str = WINDOW_PER_DAY

    def __post_init__(self):
        if not (timedelta(0) < self.d_min < self.d_max):
            raise ConfigError("need 0 < d_min < d_max")
        if self.rssi_lo >= self.rssi_hi:
            raise ConfigError("need rssi_lo < rssi_hi")
        if self.gap < timedelta(minutes=1):
            raise ConfigError("need gap >= 60 s")
        if self.multi_stop_window not in (WINDOW_PER_DAY, WINDOW_WHOLE_DATASET):
            raise ConfigError(f"unknown multi_stop_window: {self.multi_stop_window!r}")


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


@dataclass(frozen=True, slots=True)
class SplitSpec:
    seed: int = 7
    test_fraction: float = 0.2
    val_fraction_of_train: float = 0.2

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("split seed must be a nonnegative integer")
        if not 0 < self.test_fraction < 1:
            raise ConfigError("test_fraction must lie in (0, 1)")
        if not 0 <= self.val_fraction_of_train < 1:
            raise ConfigError("val_fraction_of_train must lie in [0, 1)")


DEFAULT_STOPS = tuple(f"stop-{i:02d}" for i in range(1, 8))

# Expected departures per hour relative to base_rate: quiet nights, a
# morning and an evening peak. Hours 21-23 stay zero so both dwells of a
# trip always finish before midnight UTC.
DEFAULT_HOUR_SHAPE = (
    0.0, 0.0, 0.0, 0.0, 0.0, 0.0,
    0.4, 1.2, 1.8, 1.2, 0.7, 0.6,
    0.8, 0.7, 0.6, 0.8, 1.3, 1.8,
    1.4, 0.8, 0.5, 0.0, 0.0, 0.0,
)

LAST_TRIP_START_HOUR = 20


@dataclass(frozen=True, slots=True)
class DemandModel:
    """Multiplicative intensity: base x stop x hour shape x weekday x weather."""

    base_rate: float = 2.0
    stop_weights: tuple[float, ...] | None = None
    hour_shape: tuple[float, ...] = DEFAULT_HOUR_SHAPE
    weekday_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 0.5)
    rain_multiplier: float = 0.5
    cold_multiplier: float = 0.7
    cold_threshold_c: float = 5.0

    def __post_init__(self):
        if self.base_rate < 0:
            raise ConfigError("base_rate must be >= 0")
        if len(self.hour_shape) != 24 or any(v < 0 for v in self.hour_shape):
            raise ConfigError("hour_shape needs 24 nonnegative entries")
        if any(self.hour_shape[h] > 0 for h in range(LAST_TRIP_START_HOUR + 1, 24)):
            raise ConfigError(
                f"hour_shape must be zero after hour {LAST_TRIP_START_HOUR} "
                "so trips finish within their UTC day"
            )
        if len(self.weekday_weights) != 7 or any(v < 0 for v in self.weekday_weights):
            raise ConfigError("weekday_weights needs 7 nonnegative entries")

    def rate(self, stop_index: int, day: date, hour: int, wx: WeatherObservation) -> float:
        shape = self.hour_shape[hour]
        if shape == 0.0:
            return 0.0
        weight = 1.0 if self.stop_weights is None else self.stop_weights[stop_index]
        rate = self.base_rate * weight * shape * self.weekday_weights[day.weekday()]
        if wx.rain_1h > 0:
            rate *= self.rain_multiplier
        if wx.temp < self.cold_threshold_c:
            rate *= self.cold_multiplier
        return rate


@dataclass(frozen=True, slots=True)
class NoiseMix:
    """Fractions of the total device population per noise class."""

    randomized: float = 0.0
    single_stop: float = 0.0
    out_of_rssi: float = 0.0
    short_dwell: float = 0.0
    long_dwell: float = 0.0

    def __post_init__(self):
        fractions = self.as_tuple()
        if any(not 0.0 <= f <= 1.0 for f in fractions):
            raise ConfigError("noise fractions must lie in [0, 1]")
        if sum(fractions) > 1.0 + 1e-12:
            raise ConfigError("noise fractions must sum to at most 1")

    def as_tuple(self) -> tuple[float, ...]:
        return (
            self.randomized,
            self.single_stop,
            self.out_of_rssi,
            self.short_dwell,
            self.long_dwell,
        )


@dataclass(frozen=True, slots=True)
class ScenarioConfig:
    seed: int = 11
    stops: tuple[str, ...] = DEFAULT_STOPS
    start_date: date = date(2017, 4, 5)
    days: int = 30
    demand: DemandModel = field(default_factory=DemandModel)
    noise: NoiseMix = field(default_factory=NoiseMix)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a nonnegative integer")
        if self.days < 1:
            raise ConfigError("days must be >= 1")
        if len(self.stops) < 2:
            raise ConfigError("need at least 2 stops so trips can span two stops")
        if len(set(self.stops)) != len(self.stops):
            raise ConfigError("stop names must be unique")
        if self.demand.stop_weights is not None and len(self.demand.stop_weights) != len(self.stops):
            raise ConfigError("stop_weights length must match the stop list")


def default_calendar() -> CampusCalendar:
    return CampusCalendar(semester_start=DEFAULT_SEMESTER_START)


@dataclass(frozen=True, slots=True)
class PipelineConfig:
    cleaning: CleaningConfig = field(default_factory=CleaningConfig)
    calendar: CampusCalendar = field(default_factory=default_calendar)
    split: SplitSpec = field(default_factory=SplitSpec)
    train: TrainConfig = field(default_factory=TrainConfig)
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)


def config_from_dict(data: dict) -> PipelineConfig:
    return from_dict(PipelineConfig, data, PipelineConfig())


def load_config(path: Union[str, os.PathLike, None]) -> PipelineConfig:
    if path is None:
        return PipelineConfig()
    return config_from_dict(load_json(path))


def write_config(cfg: PipelineConfig, dest: Union[str, os.PathLike]) -> None:
    write_json(dest, to_dict(cfg))
