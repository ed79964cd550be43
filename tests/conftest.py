"""Shared builders for compact, readable test data."""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from datetime import date, datetime, timedelta
from pathlib import Path

import numpy as np
import pytest

import busflux
from busflux.cleaning import Segment, SegmentColumns
from busflux.frames import FrameRecord, anonymize, parse_mac
from busflux.schema import epoch_seconds

T0 = datetime(2017, 4, 5, 8, 0, 0)

# One verdict line per verification gate, printed after the run so the
# summary survives output capturing.
verification_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if verification_lines:
        terminalreporter.section("verification gates")
        for line in verification_lines:
            terminalreporter.write_line(line)


def child_env(**overrides: str) -> dict[str, str]:
    """Environment for a child Python process that imports this busflux."""
    src = str(Path(busflux.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, **overrides, "PYTHONPATH": path}


@functools.cache
def numpy_loads_openssl() -> bool:
    """Whether ``import numpy`` alone loads OpenSSL's ``_hashlib``. numpy
    2.4 imports numpy.random on first use; the 1.x line imports it with
    numpy itself, and numpy.random imports secrets, hmac and so
    ``_hashlib``. Where it does, a stage that runs numpy without drawing
    random numbers loads OpenSSL, and the test of every stage skips."""
    code = "import sys, numpy; print('_hashlib' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    return result.stdout.strip() == "True"


def mac(text: str) -> int:
    return parse_mac(text)


def frame(
    stop: str = "stop-01",
    at: datetime = T0,
    mac_text: str = "00:B8:00:00:00:01",
    rssi: int = -60,
) -> FrameRecord:
    m = mac(mac_text)
    return FrameRecord(stop=stop, at=at, device=anonymize(m), rssi=rssi, mac=m)


def burst(
    stop: str,
    mac_text: str,
    start: datetime,
    duration_s: int,
    step_s: int = 60,
    rssi: int = -60,
) -> list[FrameRecord]:
    """Frames every step_s seconds from start through start+duration_s
    inclusive, so the resulting segment spans exactly duration_s."""
    out = []
    t = 0
    while t < duration_s:
        out.append(frame(stop=stop, at=start + timedelta(seconds=t), mac_text=mac_text, rssi=rssi))
        t += step_s
    out.append(frame(stop=stop, at=start + timedelta(seconds=duration_s), mac_text=mac_text, rssi=rssi))
    return out


def digest_rows(digests) -> np.ndarray:
    """20-byte digests as the rows of a (k, 20) uint8 array."""
    return np.frombuffer(b"".join(digests), dtype=np.uint8).reshape(-1, 20)


def segment_columns(segments: list[Segment]) -> SegmentColumns:
    """The segments as SegmentColumns, in their order. A segment's RSSI sum
    is its mean times its frame count, rounded: whole-dBm frames give an
    integer sum, whose quotient by the count is the mean again."""
    stops = tuple(dict.fromkeys(s.stop for s in segments))
    devices = tuple(dict.fromkeys(s.device for s in segments))
    return SegmentColumns(
        stops=stops,
        digests=digest_rows(device.digest for device in devices),
        stop=np.array([stops.index(s.stop) for s in segments], dtype=np.int32),
        device=np.array([devices.index(s.device) for s in segments], dtype=np.int32),
        start=np.array([epoch_seconds(s.start) for s in segments], dtype=np.int64),
        end=np.array([epoch_seconds(s.end) for s in segments], dtype=np.int64),
        frame_count=np.array([s.frame_count for s in segments], dtype=np.int64),
        rssi_sum=np.array([round(s.mean_rssi * s.frame_count) for s in segments],
                          dtype=np.int64),
    )


@pytest.fixture
def semester_start() -> date:
    return date(2017, 1, 9)


def run(*argv):
    """``busflux`` with ``argv``, in process; the exit code."""
    from busflux.cli import main

    return main([str(a) for a in argv])


@pytest.fixture(scope="session")
def ws(tmp_path_factory):
    """One tiny but complete pipeline run, made once per session and only
    read by the tests: a test that edits a file edits a copy."""
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
        "cart": root / "cart.json",
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
        ("train", "--config", cfg, "--model", "cart", "--train", p["train"],
         "--meta", p["meta"], "--out-model", p["cart"]),
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


def with_leaf(src: Path, dest: Path, path: tuple, value) -> Path:
    """A copy at ``dest`` of the JSON file ``src`` whose value at ``path``, a
    tuple of keys and indices, is ``value``, or ``value(old)`` when
    ``value`` is callable."""
    payload = json.loads(src.read_text())
    *parents, last = path
    node = payload
    for step in parents:
        node = node[step]
    node[last] = value(node[last]) if callable(value) else value
    dest.write_text(json.dumps(payload))
    return dest
