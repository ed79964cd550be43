"""Pipeline configuration files: defaults, overrides, and round trips."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from datetime import date, datetime, timedelta

import pytest

from busflux.cleaning import WINDOW_WHOLE_DATASET, CleaningConfig
from busflux.config import (
    DEFAULT_SEMESTER_START,
    PipelineConfig,
    config_from_dict,
    load_config,
    write_config,
)
from busflux.cli import main
from busflux.errors import ConfigError, ParseError
from busflux.features import SplitSpec
from busflux.frames import parse_frame_csv
from busflux.models.config import TrainConfig
from busflux.schema import from_dict, to_dict
from busflux.synth import DemandModel, NoiseMix, ScenarioConfig, read_truth_json

# The dict form of the default config as the hand-written converters
# produced it; run manifests and model files embed it, so it must not move.
DEFAULT_CLEANING_DICT = {
    "d_max_seconds": 1800,
    "d_min_seconds": 120,
    "gap_seconds": 300,
    "multi_stop_window": "per-day",
    "rssi_hi": -30,
    "rssi_lo": -80,
}
DEFAULT_TRAIN_DICT = {
    "batch_size": 32,
    "cart": {"max_depth": 8, "min_leaf": 5},
    "dnn_hidden": [64, 32, 16],
    "epochs": 100,
    "gbt": {"depth": 3, "n_trees": 100, "shrinkage": 0.1},
    "learning_rate": 0.001,
    "seed": 7,
    "wnn_hidden": [256],
}
DEFAULT_CONFIG_DICT = {
    "calendar": {"morning_end_hour": 12, "semester_start": "2017-01-09", "utc_offset_hours": -4},
    "cleaning": DEFAULT_CLEANING_DICT,
    "scenario": {
        "days": 30,
        "demand": {
            "base_rate": 2.0,
            "cold_multiplier": 0.7,
            "cold_threshold_c": 5.0,
            "hour_shape": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.4, 1.2, 1.8, 1.2, 0.7, 0.6,
                           0.8, 0.7, 0.6, 0.8, 1.3, 1.8, 1.4, 0.8, 0.5, 0.0, 0.0, 0.0],
            "rain_multiplier": 0.5,
            "stop_weights": None,
            "weekday_weights": [1.0, 1.0, 1.0, 1.0, 1.0, 0.6, 0.5],
        },
        "noise": {"long_dwell": 0.0, "out_of_rssi": 0.0, "randomized": 0.0,
                  "short_dwell": 0.0, "single_stop": 0.0},
        "seed": 11,
        "start_date": "2017-04-05",
        "stops": [f"stop-0{i}" for i in range(1, 8)],
    },
    "split": {"seed": 7, "test_fraction": 0.2, "val_fraction_of_train": 0.2},
    "train": DEFAULT_TRAIN_DICT,
}


def test_no_file_means_all_defaults():
    cfg = load_config(None)
    assert cfg == PipelineConfig()
    assert cfg.calendar.semester_start == DEFAULT_SEMESTER_START


def test_empty_document_means_all_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{}")
    assert load_config(path) == PipelineConfig()


def test_round_trip_preserves_every_section(tmp_path):
    cfg = PipelineConfig(
        cleaning=CleaningConfig(
            d_min=timedelta(seconds=90),
            gap=timedelta(minutes=7),
            rssi_lo=-75,
            multi_stop_window=WINDOW_WHOLE_DATASET,
        ),
        split=SplitSpec(seed=3, test_fraction=0.25),
        train=TrainConfig(epochs=12, learning_rate=0.05, dnn_hidden=(10, 5)),
        scenario=ScenarioConfig(
            seed=4,
            days=2,
            start_date=date(2017, 5, 1),
            noise=NoiseMix(randomized=0.2),
        ),
    )
    path = tmp_path / "cfg.json"
    write_config(cfg, path)
    assert load_config(path) == cfg


def test_partial_section_keeps_other_fields_at_defaults(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cleaning": {"rssi_lo": -70}}))
    cfg = load_config(path)
    assert cfg.cleaning.rssi_lo == -70
    assert cfg.cleaning.rssi_hi == CleaningConfig().rssi_hi
    assert cfg.train == TrainConfig()


def test_unknown_section_is_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cleanup": {}}))
    with pytest.raises(ConfigError):
        load_config(path)


def test_non_object_root_is_rejected():
    with pytest.raises(ConfigError):
        config_from_dict([1, 2, 3])


def test_invalid_json_raises_parse_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(path)


def test_section_values_are_validated(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"train": {"epochs": 0}}))
    with pytest.raises(ConfigError):
        load_config(path)


@pytest.mark.parametrize("section", ["split", "train", "scenario"])
def test_negative_seeds_are_rejected(tmp_path, section):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({section: {"seed": -1}}))
    with pytest.raises(ConfigError, match="seed must be a nonnegative integer"):
        load_config(path)


def test_scenario_inherits_pipeline_cleaning_when_unspecified(tmp_path):
    # synth plants its noise against the one cleaning section, so a band
    # narrowed from [-80, -30] to [-60, -30] gets out_of_rssi frames that
    # fall below -60 but not below the default band's -80 - 5.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"cleaning": {"rssi_lo": -60}}))
    frames, truth = tmp_path / "frames.csv", tmp_path / "truth.json"
    assert main(["synth", "--config", str(path), "--preset", "default", "--days", "1",
                 "--seed", "3", "--out-frames", str(frames), "--out-truth", str(truth),
                 "--out-weather", str(tmp_path / "weather.json")]) == 0
    parsed, _ = parse_frame_csv(frames)
    below = parsed.rssi[parsed.rssi < -60]
    assert below.size == read_truth_json(truth).noise_frames["out_of_rssi"] > 0
    assert below.min() >= -90 and below.max() > -85


def test_config_dict_is_json_complete():
    """Serializing and re-parsing the dict form is lossless for defaults."""
    cfg = PipelineConfig()
    data = json.loads(json.dumps(to_dict(cfg)))
    assert config_from_dict(data) == cfg


def test_default_dicts_are_pinned():
    # JSON text, not dict equality: 300 and 300.0 compare equal but dump apart.
    def dump(data):
        return json.dumps(data, sort_keys=True)

    assert dump(to_dict(PipelineConfig())) == dump(DEFAULT_CONFIG_DICT)
    assert dump(to_dict(TrainConfig())) == dump(DEFAULT_TRAIN_DICT)


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"cleaning": {"gap": 30}}, "cleaning.gap"),
        ({"scenario": {"noise": {"bogus": 1}}}, "scenario.noise.bogus"),
        ({"train": {"epochs": "ten"}}, "train.epochs"),
        ({"train": {"wnn_hidden": [16, "wide"]}}, "train.wnn_hidden[1]"),
        ({"scenario": {"start_date": "April"}}, "scenario.start_date"),
        ({"calendar": 3}, "calendar"),
        ({"cleaning": {"gap_seconds": 30}}, "cleaning"),
        ({"scenario": {"cleaning": {"rssi_lo": -70}}}, "scenario.cleaning"),
        ({"scenario": {"demand": {"stop_weights": 3}}}, "scenario.demand.stop_weights"),
        # One per DemandModel and TrainConfig range check; they name the section.
        ({"scenario": {"demand": {"base_rate": -0.5}}}, "scenario.demand"),
        ({"scenario": {"demand": {"hour_shape": [1.0] * 20}}}, "scenario.demand"),
        ({"scenario": {"demand": {"hour_shape": [0.0] * 23 + [1.0]}}}, "scenario.demand"),
        ({"scenario": {"demand": {"weekday_weights": [1, 1, 1, 1, 1, 1, -1]}}},
         "scenario.demand"),
        ({"train": {"epochs": 0}}, "train"),
        ({"train": {"batch_size": 0}}, "train"),
        ({"train": {"learning_rate": -0.1}}, "train"),
        ({"train": {"wnn_hidden": []}}, "train"),
        ({"train": {"dnn_hidden": [16, 0]}}, "train"),
    ],
)
def test_unknown_keys_and_bad_values_name_the_dotted_key(doc, key):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        config_from_dict(doc)


def test_stop_weights_load_from_a_list_or_null():
    weights = [2, 1.5, 1, 1, 0.5, 1, 1]
    cfg = config_from_dict({"scenario": {"demand": {"stop_weights": weights}}})
    assert cfg.scenario.demand.stop_weights == (2.0, 1.5, 1.0, 1.0, 0.5, 1.0, 1.0)
    assert all(type(w) is float for w in cfg.scenario.demand.stop_weights)
    # null replaces weights that the base holds, not only an absent default.
    assert from_dict(DemandModel, {"stop_weights": None}, cfg.scenario.demand).stop_weights is None


def test_float_fields_accept_integers():
    cfg = config_from_dict({"train": {"learning_rate": 1}, "split": {"test_fraction": 0.5}})
    assert cfg.train.learning_rate == 1.0
    assert isinstance(cfg.train.learning_rate, float)


@dataclass(frozen=True)
class Stamped:
    at: datetime
    digest: bytes


def test_datetime_and_bytes_leaves_round_trip():
    stamped = Stamped(datetime(2017, 4, 5, 8, 0, 1), bytes([0, 15, 160, 255]))
    assert to_dict(stamped) == {"at": "2017-04-05 08:00:01", "digest": "000fa0ff"}
    assert from_dict(Stamped, json.loads(json.dumps(to_dict(stamped)))) == stamped
    assert from_dict(Stamped, {"at": "2017-04-05 08:00:01", "digest": "000FA0FF"}) == stamped


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"at": "2017-04-05T08:00:01"}, "config key 'at' needs a timestamp"),
        ({"at": "2017-04-05 08:00:01.5"}, "config key 'at' needs a timestamp"),
        ({"at": "2017-13-05 08:00:01"}, "config key 'at' needs a timestamp"),
        ({"at": 1491379201}, "config key 'at' needs a timestamp"),
        ({"digest": "00 fa"}, "config key 'digest' needs an even number of hex digits"),
        ({"digest": " 00fa"}, "config key 'digest' needs an even number of hex digits"),
        ({"digest": "00f"}, "config key 'digest' needs an even number of hex digits"),
        ({"digest": "0x0f"}, "config key 'digest' needs an even number of hex digits"),
        ({"digest": [0, 15]}, "config key 'digest' needs an even number of hex digits"),
    ],
)
def test_bad_datetime_and_bytes_leaves_name_the_key(doc, message):
    base = Stamped(datetime(2017, 4, 5), b"")
    with pytest.raises(ConfigError, match=re.escape(message)):
        from_dict(Stamped, doc, base)


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"scenario": {"demand": {"base_rate": NaN}}}', "scenario.demand.base_rate"),
        ('{"train": {"learning_rate": Infinity}}', "train.learning_rate"),
        ('{"split": {"test_fraction": -Infinity}}', "split.test_fraction"),
        ('{"scenario": {"demand": {"hour_shape": [1, NaN]}}}', "scenario.demand.hour_shape[1]"),
        ('{"train": {"learning_rate": 1e309}}', "train.learning_rate"),
        ('{"split": {"test_fraction": -1e309}}', "split.test_fraction"),
    ],
)
def test_non_finite_numbers_are_rejected(tmp_path, text, key):
    # Python's json reads NaN and Infinity, which are not JSON, and reads a
    # number beyond a double's range as infinite: the file is refused where
    # it is read, and a dict holding them by the key.
    path = tmp_path / "cfg.json"
    path.write_text(text)
    with pytest.raises(ParseError, match=re.escape(f"{path}: not valid JSON: ")):
        load_config(path)
    with pytest.raises(ConfigError, match=re.escape(f"config key {key!r} needs a finite number")):
        config_from_dict(json.loads(text))


def test_written_file_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_config(PipelineConfig(), a)
    write_config(PipelineConfig(), b)
    assert a.read_bytes() == b.read_bytes()
