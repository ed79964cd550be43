"""Shared builders for compact, readable test data."""

from __future__ import annotations

import functools
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
