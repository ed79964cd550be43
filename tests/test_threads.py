"""BLAS threads: the CLI's one-thread default, and outputs that do not
depend on the thread count."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import conftest
import pytest

from busflux.cli import main as cli_main
from busflux.config import PipelineConfig

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

LAUNCH = "import sys; from busflux.cli import main; sys.exit(main())"

# Imports the module named by argv[1], then prints OMP_NUM_THREADS and the
# thread count of the OpenBLAS that numpy loaded (null without OpenBLAS).
PROBE = """
import ctypes, importlib, json, os, sys
importlib.import_module(sys.argv[1])
import numpy

def openblas_threads():
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None

print(json.dumps({"omp": os.environ.get("OMP_NUM_THREADS"), "threads": openblas_threads()}))
"""


@pytest.mark.parametrize(
    "module, env, omp, threads",
    [
        ("busflux.cli", {}, "1", 1),
        ("busflux.cli", {"OPENBLAS_NUM_THREADS": "2"}, "1", 2),
        ("busflux.cli", {"OMP_NUM_THREADS": "3"}, "3", None),
        # Library callers keep their own BLAS policy.
        ("busflux.cleaning", {}, None, None),
    ],
    ids=["cli-default", "cli-openblas-2", "cli-omp-3", "library-unpinned"],
)
def test_blas_thread_default(module, env, omp, threads):
    base = {k: v for k, v in conftest.child_env().items() if k not in THREAD_VARS}
    result = subprocess.run([sys.executable, "-c", PROBE, module], env={**base, **env},
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    got = json.loads(result.stdout)
    assert got["omp"] == omp
    if threads is None:
        return
    if got["threads"] is None:
        pytest.skip("numpy loaded no OpenBLAS")
    if threads > (os.cpu_count() or 1):
        pytest.skip(f"OpenBLAS caps its threads at the {os.cpu_count()} CPUs")
    assert got["threads"] == threads


def test_outputs_are_identical_at_one_and_two_blas_threads(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": {"days": 6, "seed": 5}}))
    p = {name: tmp_path / name for name in (
        "frames.csv", "weather.json", "truth.json", "segments.csv", "report.json",
        "hourly.csv", "joined.csv")}
    for step in (
        ("synth", "--config", cfg, "--out-frames", p["frames.csv"],
         "--out-weather", p["weather.json"], "--out-truth", p["truth.json"]),
        ("clean", "--config", cfg, "--frames", p["frames.csv"],
         "--out-segments", p["segments.csv"], "--out-report", p["report.json"]),
        ("aggregate", "--segments", p["segments.csv"], "--out-hourly", p["hourly.csv"]),
        ("join", "--hourly", p["hourly.csv"], "--weather", p["weather.json"],
         "--out-joined", p["joined.csv"]),
    ):
        assert cli_main([str(a) for a in step]) == 0, f"stage {step[0]} failed"

    models = ("lr", "wnn", "dnn", "cart", "gbt")
    compared = ("train.csv", "val.csv", "test.csv", *(f"{m}.json" for m in models),
                "wnn_history.csv", "dnn_history.csv", "eval.json", "importance.csv")
    outputs = []
    for threads in ("1", "2"):
        d = tmp_path / f"threads_{threads}"
        d.mkdir()
        matrices = ("--train", d / "train.csv", "--val", d / "val.csv", "--meta", d / "meta.json")
        steps = [("featurize", "--joined", p["joined.csv"], "--out-train", d / "train.csv",
                  "--out-val", d / "val.csv", "--out-test", d / "test.csv",
                  "--out-meta", d / "meta.json")]
        for m in models:
            history = ("--out-history", d / f"{m}_history.csv") if m in ("wnn", "dnn") else ()
            steps.append(("train", "--model", m, *matrices, "--out-model", d / f"{m}.json",
                          *history))
        steps.append(("evaluate", "--test", d / "test.csv", "--meta", d / "meta.json",
                      *(a for m in models for a in ("--model", d / f"{m}.json")),
                      "--out-report", d / "eval.json"))
        steps.append(("importance", "--model", d / "gbt.json", "--out", d / "importance.csv"))
        # Both variables are set: importing busflux.cli above set
        # OMP_NUM_THREADS in this process, and children inherit it.
        env = conftest.child_env(OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        for step in steps:
            result = subprocess.run([sys.executable, "-c", LAUNCH, *map(str, step)], env=env,
                                    capture_output=True, text=True, timeout=300)
            assert result.returncode == 0, f"{step[0]} at {threads} threads: {result.stderr}"
        outputs.append({name: (d / name).read_bytes() for name in compared})

    for name in compared:
        assert outputs[0][name] == outputs[1][name], name
    lr = json.loads(outputs[0]["lr.json"])
    assert 0 < lr["parameters"]["rank"] < len(lr["columns"]) + 1
    # The WNN's batch product is large enough for OpenBLAS to split it
    # across threads (m * n * k >= 262,144), as are its full-data passes.
    train = PipelineConfig().train
    assert train.batch_size * len(lr["columns"]) * train.wnn_hidden[0] >= 262_144
