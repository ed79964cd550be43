"""Noise removal: randomized MACs, single-stop devices, RSSI gate, dwell segments.

Stage order inside clean() is randomized -> single-stop -> RSSI -> segmentation
-> duration, and it decides the kept set, not only the report attribution:
single-stop counts the stops a device was seen at before the RSSI gate, so
frames the gate then drops can still make a device multi-stop and keep its
in-range frames at another stop. Every input frame is accounted to exactly
one counter.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Sequence, Union

from .errors import ConfigError
from .frames import DeviceId, FrameRecord, format_timestamp, is_randomized
from .schema import read_table, real, write_table

SEGMENT_HEADER = ("bus_stop", "device", "start_utc", "end_utc", "frame_count", "mean_rssi")
_SEGMENT_TYPES = (str, DeviceId.from_hex, datetime.fromisoformat, datetime.fromisoformat, int, real)

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
class Segment:
    """A contiguous dwell of one device at one stop."""

    stop: str
    device: DeviceId
    start: datetime
    end: datetime
    frame_count: int
    mean_rssi: float

    @property
    def duration(self) -> timedelta:
        return self.end - self.start

    def sort_key(self):
        return (self.stop, self.start, self.device.digest)


@dataclass(slots=True)
class CleaningReport:
    """Frame accounting across stages; attribution goes to the first stage
    that drops a frame, so the counters always sum back to the input."""

    input_frames: int = 0
    dropped_randomized: int = 0
    dropped_rssi: int = 0
    dropped_single_stop: int = 0
    dropped_short: int = 0
    dropped_long: int = 0
    kept_frames: int = 0
    randomized_filter_applied: bool = True

    def check(self) -> None:
        dropped = (
            self.dropped_randomized
            + self.dropped_rssi
            + self.dropped_single_stop
            + self.dropped_short
            + self.dropped_long
        )
        if self.input_frames != self.kept_frames + dropped:
            raise AssertionError(
                f"cleaning accounting broken: {self.input_frames} != "
                f"{self.kept_frames} kept + {dropped} dropped"
            )


def filter_rssi(frames: Sequence[FrameRecord], cfg: CleaningConfig) -> list[FrameRecord]:
    """Keep frames with rssi_lo <= rssi <= rssi_hi (inclusive), order preserved."""
    lo, hi = cfg.rssi_lo, cfg.rssi_hi
    return [f for f in frames if lo <= f.rssi <= hi]


def filter_randomized(frames: Sequence[FrameRecord]) -> tuple[list[FrameRecord], bool]:
    """Drop frames from randomized (locally administered or group) MACs.

    Needs the raw address bits, so digest-only frames pass through
    untouched; the returned flag says whether the filter could run at all
    (False when no frame carried a raw MAC).
    """
    applied = any(f.mac is not None for f in frames)
    if not applied:
        return list(frames), False
    return [f for f in frames if f.mac is None or not is_randomized(f.mac)], True


def _window_key(frame: FrameRecord, window: str):
    if window == WINDOW_PER_DAY:
        return (frame.device.digest, frame.at.date())
    return frame.device.digest


def filter_single_stop(
    frames: Sequence[FrameRecord], cfg: CleaningConfig
) -> list[FrameRecord]:
    """Keep a device's frames only where it was seen at >= 2 distinct stops
    within the window (per UTC calendar day by default).

    Devices parked at one stop (building PCs, passers-by that probed once)
    never ride the bus; a rider's phone shows up at both trip ends.
    """
    stops_seen: dict[object, set[str]] = {}
    for f in frames:
        stops_seen.setdefault(_window_key(f, cfg.multi_stop_window), set()).add(f.stop)
    return [
        f
        for f in frames
        if len(stops_seen[_window_key(f, cfg.multi_stop_window)]) >= 2
    ]


def segment(frames: Sequence[FrameRecord], cfg: CleaningConfig) -> list[Segment]:
    """Split each (stop, device) frame series into gap-bounded segments.

    Consecutive frames within ``gap`` of each other share a segment; a
    larger hole starts a new one. Every frame lands in exactly one segment.
    Output is sorted by (stop, start, device) so it is independent of input
    order and of any upstream partitioning.
    """
    ordered = sorted(frames, key=FrameRecord.sort_key)
    gap = cfg.gap
    segments: list[Segment] = []

    run: list[FrameRecord] = []

    def flush():
        if run:
            segments.append(
                Segment(
                    stop=run[0].stop,
                    device=run[0].device,
                    start=run[0].at,
                    end=run[-1].at,
                    frame_count=len(run),
                    mean_rssi=sum(f.rssi for f in run) / len(run),
                )
            )

    for f in ordered:
        if run and (
            f.stop != run[-1].stop
            or f.device.digest != run[-1].device.digest
            or f.at - run[-1].at > gap
        ):
            flush()
            run = []
        run.append(f)
    flush()

    segments.sort(key=Segment.sort_key)
    return segments


def filter_duration(
    segments_in: Sequence[Segment], cfg: CleaningConfig
) -> tuple[list[Segment], int, int]:
    """Keep segments with d_min <= duration <= d_max.

    Returns (kept, frames_dropped_short, frames_dropped_long); passers-by
    produce the short ones, parked devices the long ones.
    """
    kept: list[Segment] = []
    short_frames = 0
    long_frames = 0
    for s in segments_in:
        d = s.duration
        if d < cfg.d_min:
            short_frames += s.frame_count
        elif d > cfg.d_max:
            long_frames += s.frame_count
        else:
            kept.append(s)
    return kept, short_frames, long_frames


def clean(
    frames: Sequence[FrameRecord], cfg: CleaningConfig | None = None
) -> tuple[list[Segment], CleaningReport]:
    """Run the full pipeline and account every frame once."""
    cfg = cfg or CleaningConfig()
    report = CleaningReport(input_frames=len(frames))

    after_rand, applied = filter_randomized(frames)
    report.randomized_filter_applied = applied
    report.dropped_randomized = len(frames) - len(after_rand)

    after_multi = filter_single_stop(after_rand, cfg)
    report.dropped_single_stop = len(after_rand) - len(after_multi)

    after_rssi = filter_rssi(after_multi, cfg)
    report.dropped_rssi = len(after_multi) - len(after_rssi)

    segments_all = segment(after_rssi, cfg)
    kept, short_frames, long_frames = filter_duration(segments_all, cfg)
    report.dropped_short = short_frames
    report.dropped_long = long_frames
    report.kept_frames = sum(s.frame_count for s in kept)

    report.check()
    return kept, report


def kept_frames(
    frames: Sequence[FrameRecord], segments_kept: Sequence[Segment]
) -> list[FrameRecord]:
    """Recover the member frames of kept segments (for idempotence checks)."""
    spans: dict[tuple[str, bytes], list[tuple[datetime, datetime]]] = {}
    for s in segments_kept:
        spans.setdefault((s.stop, s.device.digest), []).append((s.start, s.end))
    out = []
    for f in frames:
        for start, end in spans.get((f.stop, f.device.digest), ()):
            if start <= f.at <= end:
                out.append(f)
                break
    return out


def write_segment_csv(segments_out: Iterable[Segment], dest: Union[str, os.PathLike]) -> None:
    write_table(
        dest,
        SEGMENT_HEADER,
        (
            (s.stop, s.device.hex, format_timestamp(s.start), format_timestamp(s.end),
             s.frame_count, s.mean_rssi)
            for s in segments_out
        ),
    )


def read_segment_csv(source: Union[str, os.PathLike]) -> list[Segment]:
    return [Segment(*row) for row in read_table(source, SEGMENT_HEADER, _SEGMENT_TYPES)]
