"""End-to-end CLI runs: exit codes, manifests, and artifact wiring."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET

import conftest
import pytest

from busflux.aggregation import read_hourly_csv, read_minute_csv, write_hourly_csv, write_minute_csv
from busflux.cleaning import read_segment_csv, write_segment_csv
from busflux.cli import main
from busflux.errors import ParseError
from busflux.features import (
    load_matrix,
    read_joined_csv,
    read_matrix_meta,
    save_matrix,
    write_joined_csv,
)
from busflux.manifest import read_manifest, sha256_file
from busflux.models import load_model, read_history_csv, write_history_csv
from busflux.synth import read_truth_json


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
# covered by the round trip below instead.
PINNED_SHA256 = {
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
    "segments": (lambda ws: read_segment_csv, write_segment_csv),
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
    assert stop in {r.stop for r in read_joined_csv(joined)}


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


# ── exit codes ───────────────────────────────────────────────────────────


def test_missing_input_exits_2(tmp_path):
    assert run("clean", "--frames", tmp_path / "absent.csv",
               "--out-segments", tmp_path / "s.csv",
               "--out-report", tmp_path / "r.json") == 2


def test_unparseable_input_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("not,a,frame,header\n1,2,3,4\n")
    assert run("clean", "--frames", bad,
               "--out-segments", tmp_path / "s.csv",
               "--out-report", tmp_path / "r.json") == 2


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


def test_no_command_prints_help_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("busflux ")


def test_importing_the_package_loads_no_numpy():
    code = "import sys, busflux; print(sorted(m for m in sys.modules if m.startswith('numpy')))"
    result = subprocess.run([sys.executable, "-c", code], env=conftest.child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_loads_no_network_modules():
    code = ("import sys, busflux.cli; "
            "print(sorted(m for m in ('xml.sax', 'urllib.request', 'http.client') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", code], env=conftest.child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    assert result.stdout.strip() == "[]"
