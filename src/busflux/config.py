"""Pipeline configuration file: one JSON document, one section per stage.

Every section and key is optional and falls back to the stage defaults,
so a config file only needs to spell out what it changes. Unknown keys,
values of the wrong type and non-finite numbers are rejected with a
ConfigError naming the dotted key, so a misspelt key cannot silently leave
a default in place. The ``cleaning`` section serves both ``clean`` and
the noise that ``synth`` plants against it. Command-line flags
override file values through the same loader; the fully resolved config
is what run manifests snapshot.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from datetime import date
from typing import Union

from .cleaning import CleaningConfig
from .features import CampusCalendar, SplitSpec
from .models.config import TrainConfig
from .schema import from_dict, load_json, to_dict, write_json
from .synth import ScenarioConfig

DEFAULT_SEMESTER_START = date(2017, 1, 9)


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
