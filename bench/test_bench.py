"""Tests for the benchmark's own code.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
from busflux.cli import main as cli_main  # noqa: E402
from busflux.frames import sorted_frames, write_frame_csv  # noqa: E402
from busflux.synth import default_scenario, generate  # noqa: E402
from busflux.weather import write_weather_json  # noqa: E402
from workloads import STAGES, WORKLOADS, stage_argv, stage_outputs  # noqa: E402

# The criterion-8 scenario: two days, seed 9, small models.
CRITERION_8_CONFIG = {
    "scenario": {"days": 2, "seed": 9},
    "train": {"epochs": 4, "batch_size": 32, "wnn_hidden": [16], "gbt": {"n_trees": 5}},
}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_shim_leaves_every_output_unchanged(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CRITERION_8_CONFIG))
    subprocess.run(
        [sys.executable, "-c", run.LAUNCH, "synth", "--config", str(cfg),
         "--out-frames", "frames.csv", "--out-weather", "weather.json", "--out-truth", "truth.json"],
        cwd=tmp_path, env=run.child_env(), check=True)
    digests = {}
    for mode in ("plain", "traced"):
        out = tmp_path / mode
        out.mkdir()
        for stage in STAGES:
            argv = stage_argv(stage, str(tmp_path / "frames.csv"), str(tmp_path / "weather.json"))
            argv += ["--config", str(cfg)]
            if mode == "plain":
                cmd = [sys.executable, "-c", run.LAUNCH, *argv]
            else:
                cmd = [sys.executable, str(BENCH / "shim.py"), stage, str(out / f"{stage}.spans"),
                       *argv]
            subprocess.run(cmd, cwd=out, env=run.child_env(), check=True)
        digests[mode] = {f: _sha(out / f) for s in STAGES for f in stage_outputs(stage_argv(s, "", ""))}
    assert len(digests["plain"]) >= 15
    assert digests["traced"] == digests["plain"]

    spans = json.loads((tmp_path / "traced" / "train-wnn.spans").read_text())
    assert spans["summary"]["mlp.loss_and_grads"]["calls"] > 0
    assert spans["summary"]["mlp.mlp_forward"]["calls"] == 2 * 4  # train + val pass per epoch
    assert spans["spans"][0]["name"] == "train-wnn"
    clean = json.loads((tmp_path / "traced" / "clean.spans").read_text())
    assert clean["counts"]["frames.rows_ok"] > 0
    for entry in clean["summary"].values():
        assert 0.0 <= entry["self_s"] <= entry["s"] + 1e-9


def _ingest(tmp_path: Path, monkeypatch, anonymized: bool) -> tuple[Path, Path]:
    """Generate a noisy two-day input and run clean + aggregate on it in-process."""
    frames, weather, truth = generate(default_scenario(seed=4, days=2))
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    name = "frames.csv.gz" if anonymized else "frames.csv"
    write_frame_csv(sorted_frames(frames), inputs / name, anonymize_output=anonymized)
    write_weather_json(weather, inputs / "weather.json")
    (inputs / "expect.json").write_text(json.dumps(gen.expectations(frames, truth, anonymized)))
    monkeypatch.chdir(out)
    for stage in ("clean", "aggregate"):
        assert cli_main(stage_argv(stage, str(inputs / name), str(inputs / "weather.json"))) == 0
    return inputs, out


def test_own_hourly_arithmetic_matches_the_planted_truth():
    _, _, truth = generate(default_scenario(seed=4, days=2))
    want = [[h.stop, h.hour.strftime("%Y-%m-%d %H:%M:%S"), h.count] for h in truth.hourly]
    assert gen.hourly_from_dwells([(d.stop, d.start, d.end) for d in truth.dwells]) == want


@pytest.mark.parametrize("anonymized", [False, True])
def test_oracle_accepts_correct_output_and_counts_a_corrupted_hourly_csv(tmp_path, monkeypatch,
                                                                        anonymized):
    inputs, out = _ingest(tmp_path, monkeypatch, anonymized)
    assert oracle.check_run(str(out), str(inputs), ["clean", "aggregate"]) == \
        {"clean": [], "aggregate": []}

    hourly = out / "hourly.csv"
    lines = hourly.read_text().splitlines()
    stop, hour, count = lines[-1].split(",")
    lines[-1] = f"{stop},{hour},{float(count) + 1 / 60}"
    hourly.write_text("\n".join(lines) + "\n")
    failures = oracle.check_run(str(out), str(inputs), ["clean", "aggregate"])
    assert failures["clean"] == [] and len(failures["aggregate"]) == 1
    assert run.failed_stages([], failures, {}, {}) == {"aggregate"}


def test_oracle_counts_a_wrong_kept_set_and_a_missing_output(tmp_path, monkeypatch):
    inputs, out = _ingest(tmp_path, monkeypatch, anonymized=False)
    expect = json.loads((inputs / "expect.json").read_text())
    expect["devices"] = expect["devices"][1:]
    expect["cleaning"]["dropped_rssi"] += 1
    (inputs / "expect.json").write_text(json.dumps(expect))
    (out / "hourly.csv").unlink()
    failures = oracle.check_run(str(out), str(inputs), ["clean", "aggregate"])
    assert len(failures["clean"]) == 2
    assert failures["aggregate"][0].startswith("unreadable output")


def test_nonzero_exit_and_changed_digest_count_as_failures():
    ok = run.Invocation("clean", 1.0, 1.0, 50.0, 0)
    crashed = run.Invocation("aggregate", 1.0, 1.0, 50.0, 2)
    reference = {"clean": {"segments.csv": "a"}}
    assert run.failed_stages([ok, crashed], {}, reference, reference) == {"aggregate"}
    assert run.failed_stages([ok], {}, {"clean": {"segments.csv": "b"}}, reference) == {"clean"}


def test_eval_check_needs_all_five_models_with_finite_mse(tmp_path):
    ranking = [{"name": m, "mse": 0.1 * (i + 1), "mae": 0.1} for i, m in enumerate(run.MODELS)]
    (tmp_path / "eval.json").write_text(json.dumps({"ranking": ranking}))
    assert oracle.check_eval(str(tmp_path)) == []
    (tmp_path / "eval.json").write_text(json.dumps({"ranking": ranking[:4]}))
    assert oracle.check_eval(str(tmp_path))
    ranking[0]["mse"] = float("nan")
    (tmp_path / "eval.json").write_text(json.dumps({"ranking": ranking}))
    assert oracle.check_eval(str(tmp_path))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert spec["paths"] == ["bench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


def test_runner_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "default-30d", "--seed",
                           "1", "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
