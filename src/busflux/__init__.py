"""Passenger-flow estimation from Wi-Fi probe frames.

The pipeline: parse captured probe frames, clean them down to plausible
waiting passengers, aggregate dwell segments into hourly counts, join
weather, encode features, and fit seeded regression models that predict
hourly demand per bus stop. A synthetic scenario generator with planted
ground truth makes every stage verifiable end to end.
"""

__version__ = "0.1.0"

from . import aggregation, cleaning, config, features, frames, manifest, models, plots, synth, weather
from .aggregation import HourlyCount, MinuteCount, hourly_counts, minute_counts, segment_hourly_counts
from .cleaning import CleaningConfig, CleaningReport, Segment, clean
from .errors import (
    BusfluxError,
    ColumnMismatchError,
    ConfigError,
    ParseError,
    TrainingDivergedError,
)
from .features import CampusCalendar, FeatureCodec, FeatureMatrix, SplitSpec, build_rows, fit_transform
from .frames import DeviceId, FrameRecord, MacAddress, anonymize, is_randomized, parse_frame_csv
from .synth import GroundTruth, ScenarioConfig, generate, linear_scenario
from .weather import WeatherObservation, hourly_lookup, parse_weather

__all__ = [
    "BusfluxError",
    "CampusCalendar",
    "CleaningConfig",
    "CleaningReport",
    "ColumnMismatchError",
    "ConfigError",
    "DeviceId",
    "FeatureCodec",
    "FeatureMatrix",
    "FrameRecord",
    "GroundTruth",
    "HourlyCount",
    "MacAddress",
    "MinuteCount",
    "ParseError",
    "ScenarioConfig",
    "Segment",
    "SplitSpec",
    "TrainingDivergedError",
    "WeatherObservation",
    "aggregation",
    "anonymize",
    "build_rows",
    "clean",
    "cleaning",
    "config",
    "features",
    "fit_transform",
    "frames",
    "generate",
    "hourly_counts",
    "hourly_lookup",
    "is_randomized",
    "linear_scenario",
    "manifest",
    "minute_counts",
    "models",
    "parse_frame_csv",
    "parse_weather",
    "plots",
    "segment_hourly_counts",
    "synth",
    "weather",
    "__version__",
]
