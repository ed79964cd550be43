"""End-to-end CLI runs: exit codes, manifests, and artifact wiring."""

from __future__ import annotations

import argparse
import gzip
import json
import re
import shutil
import subprocess
import sys
import warnings
import weakref
import xml.etree.ElementTree as ET

import conftest
import pytest

import busflux.cleaning
import busflux.cli
from busflux.aggregation import read_hourly_csv, read_minute_csv, write_hourly_csv, write_minute_csv
from busflux.cleaning import read_segment_csv, write_segment_csv
from busflux.cli import build_parser, main
from busflux.config import PipelineConfig
from busflux.errors import ParseError
from busflux.features import (
    load_matrix,
    read_joined_csv,
    read_matrix_meta,
    save_matrix,
    write_joined_csv,
)
from busflux.manifest import read_manifest, sha256_file
from busflux.models.store import load_model, read_history_csv, write_history_csv
from busflux.schema import from_dict
from busflux.synth import read_truth_json
from busflux.weather import CSV_HEADER, parse_weather


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """One tiny but complete pipeline run shared by the assertions below."""
    root = tmp_path_factory.mktemp("pipeline")
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": {"days": 2, "seed": 9},
                "train": {
                    "epochs": 3,
                    "batch_size": 32,
                    "wnn_hidden": [16],
                    "gbt": {"n_trees": 5},
                },
            }
        )
    )
    p = {
        "root": root,
        "cfg": cfg,
        "frames": root / "frames.csv",
        "weather": root / "weather.json",
        "truth": root / "truth.json",
        "segments": root / "segments.csv",
        "clean_report": root / "clean_report.json",
        "hourly": root / "hourly.csv",
        "minutes": root / "minutes.csv",
        "joined": root / "joined.csv",
        "train": root / "train.csv",
        "val": root / "val.csv",
        "test": root / "test.csv",
        "meta": root / "meta.json",
        "lr": root / "lr.json",
        "gbt": root / "gbt.json",
        "wnn": root / "wnn.json",
        "history": root / "history.csv",
        "eval_report": root / "eval_report.json",
        "importance": root / "importance.csv",
        "svg": root / "demand.svg",
    }
    steps = [
        ("synth", "--config", cfg, "--out-frames", p["frames"],
         "--out-weather", p["weather"], "--out-truth", p["truth"]),
        ("clean", "--config", cfg, "--frames", p["frames"],
         "--out-segments", p["segments"], "--out-report", p["clean_report"]),
        ("aggregate", "--segments", p["segments"], "--out-hourly", p["hourly"],
         "--out-minutes", p["minutes"]),
        ("join", "--hourly", p["hourly"], "--weather", p["weather"],
         "--out-joined", p["joined"]),
        ("featurize", "--joined", p["joined"], "--out-train", p["train"],
         "--out-val", p["val"], "--out-test", p["test"], "--out-meta", p["meta"]),
        ("train", "--config", cfg, "--model", "lr", "--train", p["train"],
         "--meta", p["meta"], "--out-model", p["lr"]),
        ("train", "--config", cfg, "--model", "gbt", "--train", p["train"],
         "--meta", p["meta"], "--out-model", p["gbt"]),
        ("train", "--config", cfg, "--model", "wnn", "--train", p["train"],
         "--val", p["val"], "--meta", p["meta"], "--out-model", p["wnn"],
         "--out-history", p["history"]),
        ("evaluate", "--test", p["test"], "--meta", p["meta"],
         "--model", p["lr"], "--model", p["gbt"], "--model", p["wnn"],
         "--out-report", p["eval_report"]),
        ("importance", "--model", p["gbt"], "--out", p["importance"]),
        ("plot", "--counts", p["hourly"], "--out", p["svg"]),
    ]
    for step in steps:
        assert run(*step) == 0, f"stage {step[0]} failed"
    return p


# ── happy path artifacts ─────────────────────────────────────────────────


def test_every_stage_leaves_its_artifacts(ws):
    for key in ("frames", "segments", "hourly", "joined", "train", "meta",
                "lr", "gbt", "wnn", "history", "eval_report", "importance", "svg"):
        assert ws[key].exists(), key


def test_manifests_default_to_first_output_plus_suffix(ws):
    assert (ws["root"] / "frames.csv.manifest.json").exists()
    assert (ws["root"] / "segments.csv.manifest.json").exists()
    assert (ws["root"] / "lr.json.manifest.json").exists()


def test_manifest_digests_match_the_files_on_disk(ws):
    m = read_manifest(ws["root"] / "segments.csv.manifest.json")
    assert m.stage == "clean"
    assert m.inputs["frames.csv"] == sha256_file(ws["frames"])
    assert m.outputs["segments.csv"] == sha256_file(ws["segments"])
    assert m.outputs["clean_report.json"] == sha256_file(ws["clean_report"])
    assert m.config["cleaning"]["rssi_lo"] == -80


def test_clean_report_has_parse_and_cleaning_sections(ws):
    report = json.loads(ws["clean_report"].read_text())
    assert report["parse"]["rows_bad"] == 0
    assert report["parse"]["rows_ok"] == report["parse"]["rows_total"]
    c = report["cleaning"]
    dropped = (c["dropped_randomized"] + c["dropped_rssi"] + c["dropped_single_stop"]
               + c["dropped_short"] + c["dropped_long"])
    assert c["input_frames"] == c["kept_frames"] + dropped


@pytest.mark.skipif(sys.version_info < (3, 11), reason="CPython 3.10 keeps a call's "
                    "arguments on the caller's stack until the call returns")
def test_clean_stage_hands_the_parsed_frames_over(ws, tmp_path, monkeypatch):
    # The parsed columns are the stage's largest input; once clean() has
    # taken the survivors, nothing may keep them alive through segmentation.
    parsed = []
    gone_at_segment = []
    parse, segment = busflux.cli.parse_frame_csv, busflux.cleaning.segment

    def watched_parse(source):
        frames, report = parse(source)
        parsed.append(weakref.ref(frames))
        return frames, report

    def checked_segment(frames, cfg):
        gone_at_segment.append(parsed[0]() is None)
        return segment(frames, cfg)

    monkeypatch.setattr(busflux.cli, "parse_frame_csv", watched_parse)
    monkeypatch.setattr(busflux.cleaning, "segment", checked_segment)
    assert run("clean", "--frames", ws["frames"], "--out-segments", tmp_path / "segments.csv",
               "--out-report", tmp_path / "clean.json") == 0
    assert gone_at_segment == [True]
    assert (tmp_path / "segments.csv").read_bytes() == ws["segments"].read_bytes()


def test_featurize_frees_the_joined_table_and_each_split_before_writing(ws, tmp_path,
                                                                         monkeypatch):
    # Each table is watched through its numeric block, which it alone owns.
    watched = []
    alive_at_save = []
    read, split = busflux.cli.read_joined_csv, busflux.cli.split_rows
    save = busflux.cli.save_matrix

    def watched_read(source):
        table = read(source)
        watched.append(weakref.ref(table.numeric_cells))
        return table

    def watched_split(rows, spec):
        parts = split(rows, spec)
        watched.extend(weakref.ref(part.numeric_cells) for part in parts)
        return parts

    def checked_save(matrix, dest):
        alive_at_save.append([ref() is not None for ref in watched])
        return save(matrix, dest)

    monkeypatch.setattr(busflux.cli, "read_joined_csv", watched_read)
    monkeypatch.setattr(busflux.cli, "split_rows", watched_split)
    monkeypatch.setattr(busflux.cli, "save_matrix", checked_save)
    out = {name: tmp_path / f"{name}.csv" for name in ("train", "val", "test")}
    assert run("featurize", "--joined", ws["joined"], "--out-train", out["train"],
               "--out-val", out["val"], "--out-test", out["test"],
               "--out-meta", tmp_path / "meta.json") == 0
    # Alive per write: [joined, train split, val split, test split].
    assert alive_at_save == [[False, False, True, True],
                             [False, False, False, True],
                             [False, False, False, False]]
    for name, path in out.items():
        assert path.read_bytes() == ws[name].read_bytes(), name


def test_evaluation_report_ranks_the_three_models(ws):
    report = json.loads(ws["eval_report"].read_text())
    names = {entry["name"] for entry in report["ranking"]}
    assert names == {"lr", "gbt", "wnn"}
    mses = [entry["mse"] for entry in report["ranking"]]
    assert mses == sorted(mses)
    assert len(report["improvements"]) == 3


def test_importance_csv_is_ranked_and_complete(ws):
    lines = ws["importance"].read_text().splitlines()
    assert lines[0] == "feature,importance"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True)
    assert sum(values) == pytest.approx(1.0)


def test_plot_writes_svg_and_companion_csv(ws):
    root = ET.fromstring(ws["svg"].read_text())
    assert root.tag.endswith("svg")
    csv_path = ws["svg"].with_suffix(".csv")
    assert csv_path.exists()
    assert csv_path.read_text().startswith("series,x,y\n")


def test_history_csv_spans_configured_epochs(ws):
    lines = ws["history"].read_text().splitlines()
    assert lines[0] == "epoch,train_mse,val_mse"
    assert len(lines) == 1 + 3  # header + epochs from the config file


# ── determinism ──────────────────────────────────────────────────────────


def test_same_seed_reproduces_synth_bytes(ws, tmp_path):
    out = {n: tmp_path / n for n in ("f.csv", "w.json", "t.json")}
    assert run("synth", "--config", ws["cfg"], "--out-frames", out["f.csv"],
               "--out-weather", out["w.json"], "--out-truth", out["t.json"]) == 0
    assert out["f.csv"].read_bytes() == ws["frames"].read_bytes()
    assert out["w.json"].read_bytes() == ws["weather"].read_bytes()
    assert out["t.json"].read_bytes() == ws["truth"].read_bytes()


def test_seed_flag_overrides_the_config(ws, tmp_path):
    assert run("synth", "--config", ws["cfg"], "--seed", "10",
               "--out-frames", tmp_path / "f.csv",
               "--out-weather", tmp_path / "w.json",
               "--out-truth", tmp_path / "t.json") == 0
    assert (tmp_path / "f.csv").read_bytes() != ws["frames"].read_bytes()
    m = read_manifest(tmp_path / "f.csv.manifest.json")
    assert m.seed == 10


def test_log_verbosity_does_not_change_outputs(ws, tmp_path, monkeypatch):
    monkeypatch.setenv("BUSFLUX_LOG", "DEBUG")
    assert run("synth", "--config", ws["cfg"], "--out-frames", tmp_path / "f.csv",
               "--out-weather", tmp_path / "w.json",
               "--out-truth", tmp_path / "t.json") == 0
    assert (tmp_path / "f.csv").read_bytes() == ws["frames"].read_bytes()
    assert (tmp_path / "w.json").read_bytes() == ws["weather"].read_bytes()


# Digests of the aggregate outputs for the criterion-8 scenario (2 days,
# seed 9), taken before aggregation moved to integer minute indices.
HOURLY_SHA256 = "e8a2445f150767e9b5d5aa7b6f12a153a26cd8ccc2313fabc9b0cc2f098e9921"
MINUTES_SHA256 = "161c0a9d7ff8774e582e469c92f5f821f319f27e42cd60aa6db7fcdb9929e261"


def test_aggregate_outputs_match_pinned_digests(ws, tmp_path):
    assert sha256_file(ws["hourly"]) == HOURLY_SHA256
    hourly, minutes = tmp_path / "hourly.csv", tmp_path / "minutes.csv"
    assert run("aggregate", "--segments", ws["segments"], "--out-minutes", minutes,
               "--out-hourly", hourly) == 0
    assert sha256_file(hourly) == HOURLY_SHA256
    assert sha256_file(minutes) == MINUTES_SHA256


# Digests of the pure-Python artifacts of the same scenario, taken before
# the table writers moved to busflux.schema. The matrices and the history
# hold numpy-computed floats whose bytes may vary by platform, so they are
# covered by the round trip below instead. The frames and truth digests
# were taken while the generator still built one record per frame.
PINNED_SHA256 = {
    "frames": "510ca2dbd11398a185355e96599730aa72d84e2474af7d74088f85b886dad92d",
    "truth": "bbb953793af1ce5a9b51521920c75f244037d394645c72045db6d5730b0cd96c",
    "segments": "2d4a88ac783013b1a4f7edebfdae07440d854c7d4c52eb50afb37186512d477c",
    "joined": "6055917338e3391cd7143a18de8472ca670515bf2884b730555add8591998eb3",
    "svg": "ea01ec5447caee4b41775524174b1026f7309a3492285b466134eab6d7feeaf5",
    "series": "6d562e07f60854bb1caa7c4d1b61627bce676bd99dc774d23f60cc5473dac59c",
}


@pytest.mark.parametrize("key", sorted(PINNED_SHA256))
def test_pure_python_artifacts_match_pinned_digests(ws, key):
    path = ws["svg"].with_suffix(".csv") if key == "series" else ws[key]
    assert sha256_file(path) == PINNED_SHA256[key]


def _matrix_reader(ws):
    return lambda path: load_matrix(path, read_matrix_meta(ws["meta"])[0])


TABLES = {
    "segments": (lambda ws: lambda path: conftest.segment_columns(read_segment_csv(path)),
                 write_segment_csv),
    "minutes": (lambda ws: read_minute_csv, write_minute_csv),
    "hourly": (lambda ws: read_hourly_csv, write_hourly_csv),
    "joined": (lambda ws: read_joined_csv, write_joined_csv),
    "train": (_matrix_reader, save_matrix),
    "val": (_matrix_reader, save_matrix),
    "test": (_matrix_reader, save_matrix),
    "history": (lambda ws: read_history_csv, write_history_csv),
}


@pytest.mark.parametrize("key", sorted(TABLES))
def test_tables_round_trip_byte_for_byte(ws, tmp_path, key):
    reader, write = TABLES[key]
    copy = tmp_path / ws[key].name
    write(reader(ws)(ws[key]), copy)
    assert copy.read_bytes() == ws[key].read_bytes()


CORRUPTIONS = {
    "wrong field count": lambda fields: fields[:-1],
    "bad cell": lambda fields: fields[:-1] + ["abc"],
    "non-finite": lambda fields: fields[:-1] + ["nan"],
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
@pytest.mark.parametrize("key", sorted(TABLES))
def test_malformed_table_row_raises_parse_error_naming_the_line(ws, tmp_path, key, corruption):
    lines = ws[key].read_text().splitlines(keepends=True)
    lines[2] = ",".join(CORRUPTIONS[corruption](lines[2].rstrip("\n").split(","))) + "\n"
    bad = tmp_path / ws[key].name
    bad.write_text("".join(lines))
    with pytest.raises(ParseError, match=re.escape(f"{bad}:3: ")):
        TABLES[key][0](ws)(bad)


def test_malformed_segment_csv_exits_2(ws, tmp_path):
    lines = ws["segments"].read_text().splitlines(keepends=True)
    bad = tmp_path / "segments.csv"
    bad.write_text("".join(lines[:2]) + lines[2].rsplit(",", 1)[0] + "\n")
    assert run("aggregate", "--segments", bad, "--out-hourly", tmp_path / "h.csv") == 2


def _edit_rows(src, dest, edit):
    """Copy the table ``src`` to ``dest`` with ``edit`` applied to the
    fields of every row below the header."""
    header, *rows = src.read_text().splitlines()
    dest.write_text("\n".join([header] + [",".join(edit(r.split(","))) for r in rows]) + "\n")


def test_a_device_cell_with_a_trailing_newline_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "segments.csv"
    _edit_rows(ws["segments"], bad, lambda f: [f[0], f'"{f[1]}\n"', *f[2:]])
    assert run("aggregate", "--segments", bad, "--out-hourly", tmp_path / "h.csv") == 2
    assert f"error: {bad}:3: not a 40-char hex digest" in capsys.readouterr().err


def test_segment_times_with_a_utc_offset_exit_2(ws, tmp_path, capsys):
    bad = tmp_path / "segments.csv"
    _edit_rows(ws["segments"], bad, lambda f: [*f[:2], f[2] + "+05:00", f[3] + "+05:00", *f[4:]])
    assert run("aggregate", "--segments", bad, "--out-hourly", tmp_path / "h.csv") == 2
    assert f"error: {bad}:2: bad timestamp" in capsys.readouterr().err


def test_hourly_times_with_a_utc_offset_exit_2(ws, tmp_path, capsys):
    bad = tmp_path / "hourly.csv"
    _edit_rows(ws["hourly"], bad, lambda f: [f[0], f[1] + "+00:00", *f[2:]])
    joined = tmp_path / "joined.csv"
    assert run("join", "--hourly", bad, "--weather", ws["weather"], "--out-joined", joined) == 2
    assert f"error: {bad}:2: bad timestamp" in capsys.readouterr().err
    assert not joined.exists()


JSON_ARTIFACTS = {  # reader, artifact path, a key the reader needs
    "meta": (read_matrix_meta, lambda ws: ws["meta"], "split"),
    "model": (load_model, lambda ws: ws["gbt"], "parameters"),
    "manifest": (read_manifest, lambda ws: ws["root"] / "segments.csv.manifest.json", "outputs"),
    "truth": (read_truth_json, lambda ws: ws["truth"], "hourly"),
}


@pytest.mark.parametrize("malformed", ["list payload", "missing key"])
@pytest.mark.parametrize("kind", sorted(JSON_ARTIFACTS))
def test_malformed_json_artifact_raises_parse_error_naming_the_file(ws, tmp_path, kind, malformed):
    reader, path, key = JSON_ARTIFACTS[kind]
    payload = json.loads(path(ws).read_text())
    if malformed == "list payload":
        payload = [payload]
    else:
        del payload[key]
    bad = tmp_path / f"{kind}.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match=re.escape(str(bad))):
        reader(bad)


def test_malformed_json_artifacts_exit_2(ws, tmp_path):
    listed = tmp_path / "list.json"
    listed.write_text("[1]")
    assert run("train", "--model", "lr", "--train", ws["train"], "--meta", listed,
               "--out-model", tmp_path / "m.json") == 2
    assert run("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", listed,
               "--out-report", tmp_path / "r.json") == 2
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps({"format_version": 2, "arch": "gbt"}))
    assert run("importance", "--model", bare, "--out", tmp_path / "i.csv") == 2
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**json.loads(ws["gbt"].read_text()), "format_version": 1}))
    assert run("importance", "--model", old, "--out", tmp_path / "i.csv") == 2


def test_stop_names_with_a_comma_survive_clean_aggregate_join(ws, tmp_path):
    stop = "Stop A,North"
    frames = tmp_path / "frames.csv"
    rows = ["bus_stop,timestamp_utc,mac,rssi_dbm"]
    for name, hour in ((stop, 8), ("stop-02", 9)):
        rows += [f'"{name}",2017-04-05 {hour:02d}:{m:02d}:00,00:B8:00:00:00:01,-60'
                 for m in range(6)]
    frames.write_text("\n".join(rows) + "\n")
    segments, hourly, joined = (tmp_path / n for n in ("s.csv", "h.csv", "j.csv"))
    assert run("clean", "--frames", frames, "--out-segments", segments,
               "--out-report", tmp_path / "r.json") == 0
    assert run("aggregate", "--segments", segments, "--out-hourly", hourly) == 0
    assert run("join", "--hourly", hourly, "--weather", ws["weather"],
               "--out-joined", joined) == 0
    assert stop in {s.stop for s in read_segment_csv(segments)}
    assert stop in {h.stop for h in read_hourly_csv(hourly)}
    assert stop in {s for s, _ in read_joined_csv(joined).keys}


def test_join_report_says_why_weather_rows_were_rejected(ws, tmp_path):
    # Was rows_total and rows_ok alone: no reason, and no absent field.
    names = CSV_HEADER.split(",")
    rows = [[str(getattr(o, name)) for name in names] for o in parse_weather(ws["weather"])[0]]
    rows[0].append("EXTRA")
    rows[1][names.index("humidity")] = "101.0"
    rows[2][names.index("humidity")] = "-3.0"
    rows[3][names.index("rain_1h")] = ""
    weather = tmp_path / "weather.csv"
    weather.write_text("\n".join([CSV_HEADER, *map(",".join, rows)]) + "\n")
    assert run("join", "--hourly", ws["hourly"], "--weather", weather,
               "--out-joined", tmp_path / "joined.csv", "--out-report", tmp_path / "join.json") == 0
    report = json.loads((tmp_path / "join.json").read_text())["weather"]
    assert (report["rows_total"], report["rows_ok"]) == (len(rows), len(rows) - 3)
    assert report["rejected_by_reason"] == {"20 fields, the header has 19": 1,
                                            "humidity out of [0,100]": 2}
    assert report["absent_defaults"] == {"rain_1h": 1}


def test_aggregate_window_flags_narrow_the_zero_fill(ws, tmp_path):
    hourly = tmp_path / "hourly.csv"
    assert run("aggregate", "--segments", ws["segments"], "--out-hourly", hourly,
               "--start", "2017-04-05T23:30", "--end", "2017-04-06 01:00") == 0
    full = ws["hourly"].read_text().splitlines()
    hours = [line.split(",")[1] for line in hourly.read_text().splitlines()[1:]]
    assert sorted(set(hours)) == ["2017-04-05 23:00:00", "2017-04-06 00:00:00",
                                  "2017-04-06 01:00:00"]
    assert set(hourly.read_text().splitlines()) <= set(full)


def test_aggregate_rejects_a_utc_offset(ws, tmp_path):
    with pytest.raises(SystemExit) as exc:
        run("aggregate", "--segments", ws["segments"], "--out-hourly", tmp_path / "h.csv",
            "--start", "2017-04-05T23:00+00:00")
    assert exc.value.code == 2


# ── config flags and manifests ───────────────────────────────────────────

# Every override flag: (stage, flag) -> its config key, and a value that
# differs from both the default and the fixture's config file.
OVERRIDES = {
    ("synth", "--seed"): ("scenario.seed", "4"),
    ("synth", "--days"): ("scenario.days", "1"),
    ("featurize", "--seed"): ("split.seed", "5"),
    ("train", "--seed"): ("train.seed", "2"),
    ("train", "--epochs"): ("train.epochs", "2"),
    ("train", "--batch-size"): ("train.batch_size", "16"),
    ("train", "--learning-rate"): ("train.learning_rate", "0.01"),
}


def _override_actions():
    """(stage, flag, action) for every option whose dest is a dotted config key."""
    (subs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [(stage, action.option_strings[0], action)
            for stage, sub in subs.choices.items()
            for action in sub._actions if "." in action.dest]


def test_every_dotted_flag_dest_resolves_through_the_config_loader():
    found = _override_actions()
    assert {(stage, flag): action.dest for stage, flag, action in found} == {
        k: key for k, (key, _) in OVERRIDES.items()}
    for stage, flag, action in found:
        section, key = action.dest.split(".")
        value = action.type(OVERRIDES[stage, flag][1])
        cfg = from_dict(PipelineConfig, {section: {key: value}}, PipelineConfig())
        assert getattr(getattr(cfg, section), key) == value


def _stage_argv(ws, stage, out):
    if stage == "synth":
        return ["synth", "--out-frames", out / "frames.csv",
                "--out-weather", out / "weather.json", "--out-truth", out / "truth.json"]
    if stage == "featurize":
        return ["featurize", "--joined", ws["joined"], "--out-train", out / "train.csv",
                "--out-val", out / "val.csv", "--out-test", out / "test.csv",
                "--out-meta", out / "meta.json"]
    return ["train", "--model", "wnn", "--train", ws["train"], "--val", ws["val"],
            "--meta", ws["meta"], "--out-model", out / "wnn.json",
            "--out-history", out / "history.csv"]


@pytest.mark.parametrize("stage, flag", sorted(OVERRIDES))
def test_a_flag_equals_the_same_value_in_the_config_file(ws, tmp_path, stage, flag):
    key, text = OVERRIDES[stage, flag]
    section, name = key.split(".")
    (action,) = [a for s, f, a in _override_actions() if (s, f) == (stage, flag)]
    doc = json.loads(ws["cfg"].read_text())
    doc.setdefault(section, {})[name] = action.type(text)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    by_flag, by_file = tmp_path / "flag", tmp_path / "file"
    for out, extra in ((by_flag, ["--config", ws["cfg"], flag, text]), (by_file, ["--config", cfg])):
        out.mkdir()
        assert run(*_stage_argv(ws, stage, out), *extra) == 0
    files = sorted(p.name for p in by_flag.iterdir())
    assert files == sorted(p.name for p in by_file.iterdir())
    for file in files:
        if file.endswith(".manifest.json"):
            a, b = read_manifest(by_flag / file), read_manifest(by_file / file)
            assert (a.config, a.seed, a.outputs) == (b.config, b.seed, b.outputs)
            assert a.config[section][name] == action.type(text)
        else:
            assert (by_flag / file).read_bytes() == (by_file / file).read_bytes(), file


# Each stage's manifest in the fixture run: stage, seed, timings keys.
STAGE_MANIFESTS = {
    "frames.csv": ("synth", 9, {"generate"}),
    "segments.csv": ("clean", None, {"parse", "clean"}),
    "minutes.csv": ("aggregate", None, {"aggregate"}),
    "joined.csv": ("join", None, {"join"}),
    "train.csv": ("featurize", 7, {"featurize"}),
    "lr.json": ("train", 7, {"train"}),
    "gbt.json": ("train", 7, {"train"}),
    "wnn.json": ("train", 7, {"train"}),
    "eval_report.json": ("evaluate", None, {"evaluate"}),
    "importance.csv": ("importance", None, set()),
    "demand.svg": ("plot", None, set()),
}


@pytest.mark.parametrize("first_output", sorted(STAGE_MANIFESTS))
def test_stage_manifests_pin_stage_seed_and_timing_keys(ws, first_output):
    m = read_manifest(ws["root"] / f"{first_output}.manifest.json")
    assert (m.stage, m.seed, set(m.timings)) == STAGE_MANIFESTS[first_output]
    assert all(seconds >= 0 for seconds in m.timings.values())
    assert first_output in m.outputs


def test_linear_training_records_no_history_file(ws, tmp_path):
    assert run("train", "--model", "lr", "--train", ws["train"], "--meta", ws["meta"],
               "--out-model", tmp_path / "lr.json", "--out-history", tmp_path / "h.csv") == 0
    assert not (tmp_path / "h.csv").exists()
    assert set(read_manifest(tmp_path / "lr.json.manifest.json").outputs) == {"lr.json"}


def test_non_finite_config_values_exit_2(ws, tmp_path, capsys):
    # NaN is not JSON: the file cannot be read, as a file with a syntax
    # error cannot (it exited 1 naming the key when the reader took NaN).
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"scenario": {"days": 1, "demand": {"base_rate": NaN}}}')
    assert run("synth", "--config", cfg, "--out-frames", tmp_path / "f.csv",
               "--out-weather", tmp_path / "w.json", "--out-truth", tmp_path / "t.json") == 2
    assert capsys.readouterr().err == f"error: {cfg}: not valid JSON: NaN is not a JSON number\n"
    assert not (tmp_path / "f.csv").exists()


def test_non_finite_flag_values_exit_1(ws, tmp_path, capsys):
    assert run("train", "--model", "lr", "--train", ws["train"], "--meta", ws["meta"],
               "--learning-rate", "nan", "--out-model", tmp_path / "m.json") == 1
    assert "config key 'train.learning_rate' needs a finite number" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("stage", [
    ("featurize", "--out-train", "train.csv", "--out-val", "val.csv", "--out-test", "test.csv",
     "--out-meta", "meta.json"),
    ("train", "--model", "lr", "--out-model", "m.json"),
    ("train", "--model", "wnn", "--out-model", "m.json"),
], ids=["featurize", "train-lr", "train-wnn"])
def test_negative_seed_flags_exit_1(ws, tmp_path, capsys, stage):
    inputs = {"featurize": ("--joined", ws["joined"]),
              "train": ("--train", ws["train"], "--val", ws["val"], "--meta", ws["meta"])}
    outputs = [tmp_path / a if a.endswith((".csv", ".json")) else a for a in stage[1:]]
    assert run(stage[0], *inputs[stage[0]], "--seed", "-1", *outputs) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# ── exit codes ───────────────────────────────────────────────────────────


def test_missing_input_exits_2(tmp_path):
    assert run("clean", "--frames", tmp_path / "absent.csv",
               "--out-segments", tmp_path / "s.csv",
               "--out-report", tmp_path / "r.json") == 2


def test_an_unparseable_input_prints_one_error_line_naming_it(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n")
    result = subprocess.run(
        [sys.executable, "-m", "busflux.cli", "clean", "--frames", str(bad),
         "--out-segments", str(tmp_path / "s.csv"), "--out-report", str(tmp_path / "r.json")],
        env=conftest.child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 2
    assert result.stderr.splitlines() == [
        f"error: {bad}: frame CSV must start with header "
        "'bus_stop,timestamp_utc,mac,rssi_dbm', got 'a,b'"]


def test_invalid_config_json_exits_2(ws, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{broken")
    assert run("aggregate", "--config", cfg, "--segments", ws["segments"],
               "--out-hourly", tmp_path / "h.csv") == 2


def test_domain_errors_exit_1(ws, tmp_path):
    # importance needs a boosted model
    assert run("importance", "--model", ws["lr"], "--out", tmp_path / "i.csv") == 1
    # neural training needs a validation matrix
    assert run("train", "--model", "wnn", "--train", ws["train"],
               "--meta", ws["meta"], "--out-model", tmp_path / "m.json") == 1
    # bad config value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train": {"epochs": 0}}))
    assert run("train", "--config", cfg, "--model", "lr", "--train", ws["train"],
               "--meta", ws["meta"], "--out-model", tmp_path / "m.json") == 1


def _header_only(src, dest):
    dest.write_text(src.read_text().splitlines(keepends=True)[0])
    return dest


@pytest.mark.parametrize("model", ["lr", "cart", "gbt"])
def test_training_on_a_matrix_with_no_rows_exits_1(ws, tmp_path, capsys, model):
    empty = _header_only(ws["train"], tmp_path / "train.csv")
    assert run("train", "--model", model, "--train", empty, "--meta", ws["meta"],
               "--out-model", tmp_path / "m.json") == 1
    assert f"error: {empty}: the matrix has no rows" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_an_empty_validation_matrix_exits_1_naming_the_split_key(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"split": {"val_fraction_of_train": 0}}))
    out = {k: tmp_path / f"{k}.csv" for k in ("train", "val", "test")}
    assert run("featurize", "--config", cfg, "--joined", ws["joined"],
               "--out-train", out["train"], "--out-val", out["val"], "--out-test", out["test"],
               "--out-meta", tmp_path / "meta.json") == 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("train", "--model", "dnn", "--epochs", "1", "--train", out["train"],
                   "--val", out["val"], "--meta", tmp_path / "meta.json",
                   "--out-model", tmp_path / "m.json") == 1
    err = capsys.readouterr().err
    assert f"error: {out['val']}: the matrix has no rows" in err
    assert "split.val_fraction_of_train" in err


def test_evaluating_on_a_matrix_with_no_rows_exits_1(ws, tmp_path, capsys):
    empty = _header_only(ws["test"], tmp_path / "test.csv")
    assert run("evaluate", "--test", empty, "--meta", ws["meta"], "--model", ws["lr"],
               "--out-report", tmp_path / "eval.json") == 1
    assert f"error: {empty}: the matrix has no rows" in capsys.readouterr().err
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("doc", [
    {"cleaning": {"gap": 30}},
    {"scenario": {"noise": {"bogus": 1}}},
    {"train": {"epochs": "ten"}},
])
def test_unknown_or_malformed_config_keys_exit_1(ws, tmp_path, doc):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    assert run("aggregate", "--config", cfg, "--segments", ws["segments"],
               "--out-hourly", tmp_path / "h.csv") == 1


def test_duplicate_model_stems_exit_1(ws, tmp_path):
    other = tmp_path / "lr.json"
    shutil.copy(ws["lr"], other)
    assert run("evaluate", "--test", ws["test"], "--meta", ws["meta"],
               "--model", ws["lr"], "--model", other,
               "--out-report", tmp_path / "r.json") == 1


def test_plot_rejects_files_with_the_wrong_schema(ws, tmp_path):
    # an hourly-counts file is not a training history
    assert run("plot", "--history", ws["hourly"], "--out", tmp_path / "p.svg") == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("plot", "--mse-report", bad, "--out", tmp_path / "p.svg") == 1
    # a non-numeric count is reported, not raised as a traceback
    counts = tmp_path / "counts.csv"
    counts.write_text(ws["hourly"].read_text().replace(",0.0\n", ",zero\n", 1))
    assert run("plot", "--counts", counts, "--out", tmp_path / "p.svg") == 1


def _edited_json(src, dest, edit):
    payload = json.loads(src.read_text())
    edit(payload)
    dest.write_text(json.dumps(payload))
    return dest


def test_evaluating_a_model_one_input_short_exits_2(ws, tmp_path, capsys):
    # Was a numpy matmul traceback inside evaluate.
    lr = _edited_json(ws["lr"], tmp_path / "lr.json", lambda m: m["parameters"]["theta"].pop())
    assert run("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", lr,
               "--out-report", tmp_path / "eval.json") == 2
    err = capsys.readouterr().err
    assert f"error: {lr}: columns has" in err
    assert "Traceback" not in err
    assert not (tmp_path / "eval.json").exists()


def test_importance_of_a_model_three_inputs_short_exits_2(ws, tmp_path, capsys):
    # Was exit 0 with three features silently left out of the CSV.
    gbt = _edited_json(ws["gbt"], tmp_path / "gbt.json",
                       lambda m: m["parameters"]["importance"].__delitem__(slice(-3, None)))
    assert run("importance", "--model", gbt, "--out", tmp_path / "i.csv") == 2
    assert f"error: {gbt}: " in capsys.readouterr().err
    assert not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_model_file_holding_a_non_finite_number_exits_2(ws, tmp_path, capsys, token):
    # Was exit 0 for NaN: the model ranked first with "mse": NaN in eval.json.
    lr = _edited_json(ws["lr"], tmp_path / "lr.json",
                      lambda m: m["parameters"]["theta"].__setitem__(0, float(token)))
    assert token in lr.read_text()
    assert run("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", lr,
               "--model", ws["gbt"], "--out-report", tmp_path / "eval.json") == 2
    assert capsys.readouterr().err == f"error: {lr}: not valid JSON: {token} is not a JSON number\n"
    assert not (tmp_path / "eval.json").exists()


def test_a_model_whose_predictions_overflow_is_not_ranked(ws, tmp_path, capsys):
    # Finite parameters, infinite predictions: was ranked with "mse": Infinity.
    def overflow(m):
        m["parameters"]["theta"] = [1e308] * len(m["parameters"]["theta"])
        m["parameters"]["bias"] = 1e308

    lr = _edited_json(ws["lr"], tmp_path / "huge.json", overflow)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", ws["gbt"],
                   "--model", lr, "--out-report", tmp_path / "eval.json") == 1
    assert capsys.readouterr().err == (
        "error: model 'huge': its test predictions are not all finite\n")
    assert not (tmp_path / "eval.json").exists()


def test_a_tree_array_beyond_int64_exits_2(ws, tmp_path, capsys):
    # Was an OverflowError traceback from RegressionTree.from_dict, exit 1.
    gbt = _edited_json(ws["gbt"], tmp_path / "gbt.json",
                       lambda m: m["parameters"]["trees"][0]["feature"].__setitem__(0, 10**30))
    assert run("importance", "--model", gbt, "--out", tmp_path / "i.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {gbt}: malformed artifact: OverflowError: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "i.csv").exists()


@pytest.mark.parametrize("edit", [
    lambda c: c.__setitem__("name", 5),
    lambda c: c.__setitem__("kind", "ordinal"),
], ids=["number-name", "unknown-kind"])
def test_a_codec_column_of_the_wrong_form_exits_2(ws, tmp_path, capsys, edit):
    # A number as the name was a TypeError traceback from read_table's
    # header message, exit 1.
    meta = _edited_json(ws["meta"], tmp_path / "meta.json",
                        lambda m: edit(m["codec"]["columns"][0]))
    assert run("evaluate", "--test", ws["test"], "--meta", meta, "--model", ws["lr"],
               "--out-report", tmp_path / "eval.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {meta}: malformed artifact: TypeError: a column needs ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "eval.json").exists()


@pytest.mark.parametrize("table, column, bad, reason", [
    ("hourly", 2, "-1.0", "negative count '-1.0'"),
    ("hourly", 0, "", "empty name"),
    ("segments", 4, "-1", "negative count '-1'"),
    ("segments", 0, "", "empty name"),
])
def test_a_count_table_row_out_of_range_exits_2_naming_the_line(ws, tmp_path, capsys,
                                                                table, column, bad, reason):
    # A count of -1 in hourly.csv was joined with exit 0, and the negative
    # target reached joined.csv.
    lines = ws[table].read_text().splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split(",")
    cells[column] = bad
    lines[2] = ",".join(cells) + "\n"
    path = tmp_path / f"{table}.csv"
    path.write_text("".join(lines))
    out = tmp_path / "out.csv"
    argv = {"hourly": ["join", "--hourly", path, "--weather", ws["weather"], "--out-joined", out],
            "segments": ["aggregate", "--segments", path, "--out-hourly", out]}[table]
    assert run(*argv) == 2
    assert capsys.readouterr().err == f"error: {path}:3: {reason}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("evaluate", "--meta"), ("train", "--meta"), ("importance", "--model"),
])
def test_a_json_input_that_is_not_json_exits_2_naming_the_file(ws, tmp_path, capsys,
                                                                command, flag):
    # Was "error: invalid JSON: Expecting value: …", which named no file.
    bad = tmp_path / "not.json"
    bad.write_text("feature,importance\n")
    argv = {
        "evaluate": ["--test", ws["test"], "--meta", ws["meta"], "--model", ws["lr"],
                     "--out-report", tmp_path / "out.json"],
        "train": ["--model", "lr", "--train", ws["train"], "--meta", ws["meta"],
                  "--out-model", tmp_path / "out.json"],
        "importance": ["--model", ws["gbt"], "--out", tmp_path / "out.json"],
    }[command]
    argv[argv.index(flag) + 1] = bad
    assert run(command, *argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: not valid JSON: ")
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag", ["--history", "--mse-report"])
def test_plotting_an_empty_artifact_exits_1(ws, tmp_path, capsys, flag):
    if flag == "--history":
        source = _header_only(ws["history"], tmp_path / "history.csv")
    else:
        source = tmp_path / "eval.json"
        source.write_text(json.dumps({"ranking": [], "improvements": {}}))
    assert run("plot", flag, source, "--out", tmp_path / "p.svg") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown input schema in {source}: ")
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("flag, text, reason", [
    ("--mse-report", "{not json", "not valid JSON: "),
    ("--history", "epoch,loss\n1,0.5\n", "header must be "),
    ("--mse-report", "[1]", "list indices must be integers"),
    ("--mse-report", '{"ranking": [{"name": "lr", "mse": "low"}], "improvements": {}}',
     "could not convert string to float"),
])
def test_plot_names_an_input_without_its_artifact_once(tmp_path, capsys, flag, text, reason):
    # Was "unknown input schema in x.json: x.json: not valid JSON: …", and a
    # traceback for a JSON document that is not a report object.
    source = tmp_path / "input.json"
    source.write_text(text)
    assert run("plot", flag, source, "--out", tmp_path / "p.svg") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown input schema")
    assert err.count(str(source)) == 1
    assert reason in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "p.svg").exists()


@pytest.mark.parametrize("argv, flags, target", [
    # plot's series CSV defaults to the SVG path with .csv: here, its input.
    (["plot", "--counts", "{tmp}/hourly.csv", "--out", "{tmp}/hourly.svg"],
     ("--out-csv", "--counts"), "hourly.csv"),
    (["clean", "--frames", "{tmp}/frames.csv", "--out-segments", "{tmp}/frames.csv",
      "--out-report", "{tmp}/clean.json"], ("--out-segments", "--frames"), "frames.csv"),
    (["clean", "--frames", "{tmp}/frames.csv", "--out-segments", "{tmp}/segments.csv",
      "--out-report", "{tmp}/./segments.csv"], ("--out-report", "--out-segments"),
     "segments.csv"),
], ids=["plot-default-csv", "clean-input", "clean-outputs"])
def test_a_stage_refuses_to_write_over_its_input_or_another_output(ws, tmp_path, capsys, argv,
                                                                  flags, target):
    for key in ("hourly", "frames"):
        shutil.copy(ws[key], tmp_path / ws[key].name)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run(*(a.format(tmp=tmp_path) for a in argv)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flags[0]} and {flags[1]} both name ")
    assert target in err and len(err.splitlines()) == 1
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_aggregate_with_a_reversed_range_exits_1_naming_both_ends(ws, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    assert run("aggregate", "--segments", ws["segments"], "--out-hourly", out / "hourly.csv",
               "--start", "2017-04-06 01:00", "--end", "2017-04-05 23:30") == 1
    err = capsys.readouterr().err
    assert "--start 2017-04-06 01:00:00 is later than --end 2017-04-05 23:30:00" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("corrupt", ["cut short", "bad deflate block", "not utf-8"])
def test_undecodable_frames_exit_2_naming_the_file(ws, tmp_path, capsys, corrupt):
    # Were an EOFError, a zlib.error and a UnicodeDecodeError traceback, exit 1.
    data = ws["frames"].read_bytes()
    packed = gzip.compress(data, mtime=0)
    frames = tmp_path / "frames.csv.gz"
    frames.write_bytes({
        "cut short": packed[: len(packed) // 2],
        "bad deflate block": packed[:10] + b"\xff" + packed[11:],
        "not utf-8": data + b"\xff",
    }[corrupt])
    out = tmp_path / "out"
    out.mkdir()
    assert run("clean", "--frames", frames, "--out-segments", out / "segments.csv",
               "--out-report", out / "clean.json") == 2
    err = capsys.readouterr().err
    assert f"error: {frames}: cannot decode: " in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("key", ["segments", "weather", "lr", "cfg"])
def test_an_input_that_is_not_utf8_exits_2_naming_the_file(ws, tmp_path, capsys, key):
    # Were a UnicodeDecodeError traceback, exit 1.
    source = tmp_path / ws[key].name
    source.write_bytes(ws[key].read_bytes() + b"\xff")
    out = tmp_path / "out"
    out.mkdir()
    argv = {
        "segments": ("aggregate", "--segments", source, "--out-hourly", out / "hourly.csv"),
        "weather": ("join", "--hourly", ws["hourly"], "--weather", source,
                    "--out-joined", out / "joined.csv"),
        "lr": ("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", source,
               "--out-report", out / "eval.json"),
        "cfg": ("aggregate", "--config", source, "--segments", ws["segments"],
                "--out-hourly", out / "hourly.csv"),
    }[key]
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert f"error: {source}: cannot decode: " in err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("flag, value", [("--start", "2030-01-01 00:00"),
                                         ("--end", "2000-01-01 00:00")])
def test_aggregate_with_one_end_beyond_the_data_exits_1_naming_the_span(ws, tmp_path, capsys,
                                                                       flag, value):
    # Was exit 0 with a header-only hourly.csv.
    hours = read_hourly_csv(ws["hourly"])
    first, last = hours[0].hour, hours[-1].hour
    out = tmp_path / "out"
    out.mkdir()
    assert run("aggregate", "--segments", ws["segments"], "--out-hourly", out / "hourly.csv",
               flag, value) == 1
    start, end = (f"{value}:00", last) if flag == "--start" else (first, f"{value}:00")
    err = capsys.readouterr().err
    assert f"error: the range {start} to {end} holds no hour" in err
    assert f"the segments, which span {first} to {last}" in err
    assert list(out.iterdir()) == []


def test_an_mlp_file_naming_two_archs_exits_2(ws, tmp_path, capsys):
    # Was loaded as a dnn model.
    wnn = _edited_json(ws["wnn"], tmp_path / "wnn.json",
                       lambda m: m["parameters"].__setitem__("arch", "dnn"))
    assert run("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", wnn,
               "--out-report", tmp_path / "eval.json") == 2
    assert f"error: {wnn}: arch 'wnn', but parameters.arch 'dnn'" in capsys.readouterr().err


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("busflux ")


# Prints the numpy submodules loaded, and whether numpy's own code has run:
# a lazily bound numpy is not a plain module until its first attribute
# access runs it, and reading its type does not.
NUMPY_STATE = ("import types\n"
               "np = sys.modules.get('numpy')\n"
               "print(sorted(m for m in sys.modules if m.startswith('numpy.')),\n"
               "      np is not None and type(np) is types.ModuleType)\n")
# Prints, as JSON, the busflux modules whose code has run: as for numpy, a
# module bound lazily sits in sys.modules before it runs.
BUSFLUX_RAN = ("import json, types\n"
               "print(json.dumps(sorted(name for name, m in sys.modules.items()\n"
               "                        if name.partition('.')[0] == 'busflux'\n"
               "                        and type(m) is types.ModuleType)))\n")
# What every CLI process runs, `--version` included.
STARTUP_MODULES = {"busflux", "busflux.cli", "busflux.config", "busflux.errors", "busflux.lazy",
                   "busflux.manifest", "busflux.models", "busflux.models.config",
                   "busflux.schema"}


@pytest.mark.parametrize("module", [
    "busflux", "busflux.schema", "busflux.weather", "busflux.manifest", "busflux.aggregation",
    "busflux.plots", "busflux.cli", "busflux.config", "busflux.cleaning", "busflux.frames",
    "busflux.features", "busflux.synth", "busflux.models.linear", "busflux.models.mlp",
    "busflux.models.tree", "busflux.models.boosting", "busflux.models.metrics",
    "busflux.models.store",
])
def test_importing_the_package_loads_no_numpy(module):
    """Nor does reading a config, or the CLI's import, run any stage module."""
    code = f"import sys, {module}\n" + NUMPY_STATE + BUSFLUX_RAN
    result = subprocess.run([sys.executable, "-c", code], env=conftest.child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    numpy_state, ran = result.stdout.splitlines()
    assert numpy_state == "[] False"
    if module in ("busflux.config", "busflux.cli"):
        assert set(json.loads(ran)) <= STARTUP_MODULES


@pytest.mark.parametrize("argv, runs_numpy, stage_modules", [
    (["--version"], False, set()),
    (["aggregate", "--segments", "{segments}", "--out-hourly", "{out}/hourly.csv"], False,
     {"cleaning", "frames", "aggregation"}),
    (["join", "--hourly", "{hourly}", "--weather", "{weather}",
      "--out-joined", "{out}/joined.csv"], False, {"aggregation", "weather", "features"}),
    (["plot", "--counts", "{hourly}", "--out", "{out}/counts.svg"], False,
     {"plots", "aggregation"}),
    (["clean", "--frames", "{frames}", "--out-segments", "{out}/segments.csv",
      "--out-report", "{out}/clean.json"], True, {"frames", "cleaning"}),
    (["featurize", "--joined", "{joined}", "--out-train", "{out}/train.csv",
      "--out-val", "{out}/val.csv", "--out-test", "{out}/test.csv",
      "--out-meta", "{out}/meta.json"], True, {"features", "aggregation", "weather"}),
    (["train", "--model", "lr", "--train", "{train}", "--meta", "{meta}",
      "--out-model", "{out}/lr.json"], True,
     {"features", "aggregation", "weather", "models.store", "models.linear", "models.mlp",
      "models.tree", "models.boosting"}),
], ids=["version", "aggregate", "join", "plot-counts", "clean", "featurize", "train-lr"])
def test_only_the_array_stages_run_numpy(ws, tmp_path, argv, runs_numpy, stage_modules):
    """Up to joined.csv the pipeline needs no numpy, and a stage that needs
    none does not run it. Each stage runs the start-up modules and those
    its handler calls, and no other busflux module: `plot --counts` no
    `cleaning`, `clean` no `aggregation`, and none of them `synth`. The
    handler calls each library function directly, not through its
    stand-in. Each stage runs in a fresh interpreter."""
    argv = [a.format(out=tmp_path, **ws) for a in argv]
    # Also counts the calls made through a stand-in, whose frame would hold
    # the call's arguments: all stand-ins share one code object.
    code = ("import sys\n"
            "from busflux.cli import main\n"
            "from busflux.lazy import lazy_function\n"
            "stand_in, calls = lazy_function('json', 'dumps').__code__, []\n"
            "sys.setprofile(lambda frame, event, arg: event == 'call'\n"
            "               and frame.f_code is stand_in and calls.append(1))\n"
            "try:\n"
            "    code = main(sys.argv[1:])\n"
            "except SystemExit as exc:\n"
            "    code = exc.code\n"
            "sys.setprofile(None)\n"
            "print(code, len(calls))\n" + NUMPY_STATE + BUSFLUX_RAN)
    result = subprocess.run([sys.executable, "-c", code, *argv], env=conftest.child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    status, state, ran = result.stdout.splitlines()[-3:]
    assert status == "0 0"
    if runs_numpy:
        assert state.endswith("] True") and state != "[] True"
    else:
        assert state == "[] False"
    assert set(json.loads(ran)) == STARTUP_MODULES | {f"busflux.{m}" for m in stage_modules}


def test_importing_the_cli_loads_no_network_modules():
    """Nor OpenSSL's ``_hashlib``, which only numpy 1.x would load, and the
    import does not run numpy. A ``None`` entry marks a module as absent,
    so it does not count as loaded."""
    modules = ["xml.sax", "urllib.request", "http.client", "_hashlib"]
    code = ("import sys, busflux.cli; "
            f"print(sorted(m for m in {modules!r} if sys.modules.get(m) is not None))")
    result = subprocess.run([sys.executable, "-c", code], env=conftest.child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_no_cli_stage_loads_openssl(ws, tmp_path):
    """busflux hashes with the built-ins, and the stages that draw random
    numbers (synth, featurize, the nets) keep numpy.random, through secrets
    and hmac, from loading OpenSSL's ``_hashlib``. On Linux no stage may map
    ``libcrypto`` either. The drawing stages run last: their absent-module
    marker would keep a later stage from loading ``_hashlib`` at all."""
    if conftest.numpy_loads_openssl():
        pytest.skip("this numpy imports numpy.random, and with it OpenSSL, in `import numpy`")
    train = ("--train", ws["train"], "--meta", ws["meta"])
    steps = [
        ("clean", "--frames", ws["frames"], "--out-segments", tmp_path / "segments.csv",
         "--out-report", tmp_path / "clean.json"),
        ("aggregate", "--segments", ws["segments"], "--out-hourly", tmp_path / "hourly.csv"),
        ("join", "--hourly", ws["hourly"], "--weather", ws["weather"],
         "--out-joined", tmp_path / "joined.csv"),
        ("plot", "--counts", ws["hourly"], "--out", tmp_path / "counts.svg"),
        *(("train", "--model", model, "--config", ws["cfg"], *train,
           "--out-model", tmp_path / f"{model}.json") for model in ("lr", "cart", "gbt")),
        ("evaluate", "--test", ws["test"], "--meta", ws["meta"], "--model", ws["lr"],
         "--model", ws["gbt"], "--out-report", tmp_path / "eval.json"),
        ("importance", "--model", ws["gbt"], "--out", tmp_path / "importance.csv"),
        ("synth", "--config", ws["cfg"], "--out-frames", tmp_path / "frames.csv",
         "--out-weather", tmp_path / "weather.json", "--out-truth", tmp_path / "truth.json"),
        ("featurize", "--joined", ws["joined"], "--out-train", tmp_path / "train.csv",
         "--out-val", tmp_path / "val.csv", "--out-test", tmp_path / "test.csv",
         "--out-meta", tmp_path / "meta.json"),
        *(("train", "--model", model, "--config", ws["cfg"], *train, "--val", ws["val"],
           "--out-model", tmp_path / f"{model}.json") for model in ("wnn", "dnn")),
    ]
    code = ("import json, os, sys\n"
            "from busflux.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "    maps = '/proc/self/maps'\n"
            "    mapped = os.path.exists(maps) and 'libcrypto' in open(maps).read()\n"
            "    print(' '.join(argv[:3]), sys.modules.get('_hashlib') is not None, mapped)\n")
    argvs = json.dumps([[str(a) for a in step] for step in steps])
    result = subprocess.run([sys.executable, "-c", code, argvs], env=conftest.child_env(),
                            capture_output=True, text=True, timeout=120, check=True)
    loaded = result.stdout.splitlines()
    assert len(loaded) == len(steps)
    assert [line for line in loaded if "True" in line.split()[-2:]] == []


def test_the_drawing_stages_mark_openssl_absent_before_numpy_runs(ws, tmp_path):
    """So that a numpy that imports numpy.random, and with it OpenSSL, in
    ``import numpy`` (the 1.x line) loads no OpenSSL in these stages either."""
    steps = [
        ("synth", "--config", ws["cfg"], "--out-frames", tmp_path / "frames.csv",
         "--out-weather", tmp_path / "weather.json", "--out-truth", tmp_path / "truth.json"),
        ("featurize", "--joined", ws["joined"], "--out-train", tmp_path / "train.csv",
         "--out-val", tmp_path / "val.csv", "--out-test", tmp_path / "test.csv",
         "--out-meta", tmp_path / "meta.json"),
        *(("train", "--model", model, "--epochs", "1", "--train", ws["train"], "--val", ws["val"],
           "--meta", ws["meta"], "--out-model", tmp_path / f"{model}.json")
          for model in ("wnn", "dnn")),
    ]
    code = ("import sys, types\n"
            "import busflux.cli as cli\n"
            "mark, ran = cli._keep_openssl_out, []\n"
            "def marked():\n"
            "    ran.append(type(sys.modules.get('numpy')) is types.ModuleType)\n"
            "    mark()\n"
            "cli._keep_openssl_out = marked\n"
            "assert cli.main(sys.argv[1:]) == 0\n"
            "print(ran)\n")
    for step in steps:
        result = subprocess.run([sys.executable, "-c", code, *map(str, step)],
                                env=conftest.child_env(), capture_output=True, text=True,
                                timeout=120, check=True)
        assert result.stdout.strip() == "[False]", step[:3]


def test_without_the_built_in_hashes_the_drawing_stages_keep_openssl(ws, tmp_path):
    """An interpreter built without ``_sha1`` and ``_sha2``/``_sha256``:
    busflux hashes through hashlib, which loads OpenSSL's ``_hashlib``, and
    the drawing stages' absent-module marker must leave that module in
    place. featurize and a net then write the same bytes as with the
    built-in hashes."""
    def steps(out):
        return [["featurize", "--joined", str(ws["joined"]), "--out-train", str(out / "train.csv"),
                 "--out-val", str(out / "val.csv"), "--out-test", str(out / "test.csv"),
                 "--out-meta", str(out / "meta.json")],
                ["train", "--model", "dnn", "--epochs", "1", "--train", str(out / "train.csv"),
                 "--val", str(out / "val.csv"), "--meta", str(out / "meta.json"),
                 "--out-model", str(out / "dnn.json"), "--out-history", str(out / "dnn.csv")]]

    built_in, openssl = tmp_path / "built-in", tmp_path / "openssl"
    built_in.mkdir()
    openssl.mkdir()
    for argv in steps(built_in):
        assert main(argv) == 0
    code = ("import json, sys\n"
            "for name in ('_sha1', '_sha2', '_sha256'):\n"
            "    sys.modules[name] = None\n"
            "from busflux.cli import main\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    assert main(argv) == 0, argv\n"
            "print(sys.modules.get('_hashlib') is not None)\n")
    result = subprocess.run([sys.executable, "-c", code, json.dumps(steps(openssl))],
                            env=conftest.child_env(), capture_output=True, text=True,
                            timeout=120, check=True)
    assert result.stdout.split() == ["True"]
    # Manifests record wall times, so only the stage outputs compare.
    outputs = ["train.csv", "val.csv", "test.csv", "meta.json", "dnn.json", "dnn.csv"]
    assert [sha256_file(openssl / name) for name in outputs] == [
        sha256_file(built_in / name) for name in outputs]
