"""Noise removal: randomized MACs, single-stop devices, RSSI gate, dwell segments.

Stage order inside clean() is randomized -> single-stop -> RSSI -> segmentation
-> duration, and it decides the kept set, not only the report attribution:
single-stop counts the stops a device was seen at before the RSSI gate, so
frames the gate then drops can still make a device multi-stop and keep its
in-range frames at another stop. Every input frame is accounted to exactly
one counter.

The stages work on FrameColumns and are array steps: the randomized filter
is a mask through the device table; single-stop sorts frames on (digest,
UTC day or nothing, stop) and keeps a window whose first and last stops
differ; the RSSI gate is a mask; segmentation is one sort on (stop-name
rank, digest rank, time), with a segment break wherever the stop or the
digest changes or consecutive times lie more than ``gap`` apart, and
per-segment sums by ``reduceat``; the duration filter is a mask over
SegmentColumns. Only the kept segments become Segment objects. A device
is its digest throughout, so a device seen both as a raw MAC and as a
digest is one device.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from itertools import compress
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import ConfigError
from .frames import (
    DeviceId,
    FrameColumns,
    FrameRecord,
    format_timestamp,
    parse_timestamp,
    utc_datetime,
)
from .schema import read_table, real, write_table

SEGMENT_HEADER = ("bus_stop", "device", "start_utc", "end_utc", "frame_count", "mean_rssi")
_SEGMENT_TYPES = (str, DeviceId.from_hex, parse_timestamp, parse_timestamp, int, real)

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


def filter_randomized(frames: FrameColumns) -> tuple[FrameColumns, bool]:
    """Drop frames from randomized (locally administered or group) MACs.

    Needs the raw address bits, so digest-only frames pass through
    untouched; the returned flag says whether the filter could run at all
    (False when no frame carried a raw MAC).
    """
    present = np.bincount(frames.device, minlength=len(frames.devices)) > 0
    if all(mac is None for mac in compress(frames.macs, present)):
        return frames, False
    return frames.take(~frames.randomized[frames.device]), True


def _digest_ranks(frames: FrameColumns) -> np.ndarray:
    """Per device-table entry, the rank of its digest; equal digests share one."""
    digests = [device.digest for device in frames.devices]
    rank = {digest: i for i, digest in enumerate(sorted(set(digests)))}
    return np.array([rank[digest] for digest in digests], dtype=np.int32)


def _stop_ranks(frames: FrameColumns) -> np.ndarray:
    """Per stop-table entry, the rank of its name."""
    order = sorted(range(len(frames.stops)), key=frames.stops.__getitem__)
    ranks = np.empty(len(order), dtype=np.int32)
    ranks[order] = np.arange(len(order))
    return ranks


def _runs(split: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last row of each run in n sorted rows; ``split[i]`` is
    True where row i + 1 starts a new run."""
    some = [n > 0]
    return (np.flatnonzero(np.concatenate((some, split))),
            np.flatnonzero(np.concatenate((split, some))))


def _changes(column: np.ndarray) -> np.ndarray:
    return column[1:] != column[:-1]


def filter_single_stop(frames: FrameColumns, cfg: CleaningConfig) -> FrameColumns:
    """Keep a device's frames only where it was seen at >= 2 distinct stops
    within the window (per UTC calendar day by default).

    Devices parked at one stop (building PCs, passers-by that probed once)
    never ride the bus; a rider's phone shows up at both trip ends.
    """
    device = _digest_ranks(frames)[frames.device]
    day = frames.t // 86400 if cfg.multi_stop_window == WINDOW_PER_DAY else np.zeros_like(frames.t)
    order = np.lexsort((frames.stop, day, device))
    device, day, stop = device[order], day[order], frames.stop[order]
    starts, ends = _runs(_changes(device) | _changes(day), len(order))
    # Sorted by stop inside a window, its first and last stops differ
    # exactly when it holds two or more.
    keep = np.empty(len(order), dtype=bool)
    keep[order] = np.repeat(stop[starts] != stop[ends], ends - starts + 1)
    return frames.take(keep)


def filter_rssi(frames: FrameColumns, cfg: CleaningConfig) -> FrameColumns:
    """Keep frames with rssi_lo <= rssi <= rssi_hi (inclusive), order preserved."""
    return frames.take((frames.rssi >= cfg.rssi_lo) & (frames.rssi <= cfg.rssi_hi))


@dataclass(frozen=True, eq=False)
class SegmentColumns:
    """Segments as parallel arrays, sorted by (stop, start, device).

    ``stop`` and ``device`` index the stop and device tables of the frames
    they came from; ``start`` and ``end`` are UTC epoch seconds, and
    ``rssi_sum`` over ``frame_count`` is the mean RSSI. Iterating yields
    Segments.
    """

    stops: tuple[str, ...]
    devices: tuple[DeviceId, ...]
    stop: np.ndarray
    device: np.ndarray
    start: np.ndarray
    end: np.ndarray
    frame_count: np.ndarray
    rssi_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self) -> Iterator[Segment]:
        stops, devices = self.stops, self.devices
        for s, d, start, end, count, rssi_sum in zip(
            *(column.tolist() for column in (self.stop, self.device, self.start, self.end,
                                             self.frame_count, self.rssi_sum))
        ):
            yield Segment(stops[s], devices[d], utc_datetime(start), utc_datetime(end), count,
                          rssi_sum / count)

    def take(self, rows: np.ndarray) -> "SegmentColumns":
        """The segments at ``rows`` (a boolean mask or indices), sharing the tables."""
        return replace(self, stop=self.stop[rows], device=self.device[rows],
                       start=self.start[rows], end=self.end[rows],
                       frame_count=self.frame_count[rows], rssi_sum=self.rssi_sum[rows])


def _whole_seconds(span: timedelta) -> int:
    """``span`` in whole seconds, rounded down."""
    return span // timedelta(seconds=1)


def segment(frames: FrameColumns, cfg: CleaningConfig) -> SegmentColumns:
    """Split each (stop, device) frame series into gap-bounded segments.

    Consecutive frames within ``gap`` of each other share a segment; a
    larger hole starts a new one. Every frame lands in exactly one segment.
    Output is sorted by (stop, start, device) so it is independent of input
    order and of any upstream partitioning.
    """
    stop = _stop_ranks(frames)[frames.stop]
    device = _digest_ranks(frames)[frames.device]
    order = np.lexsort((frames.t, device, stop))
    stop, device, t = stop[order], device[order], frames.t[order]
    # Times are whole seconds, so "more than gap apart" is "more than the
    # gap's whole seconds apart".
    split = _changes(stop) | _changes(device) | (np.diff(t) > _whole_seconds(cfg.gap))
    starts, ends = _runs(split, len(t))
    rssi_sum = (np.add.reduceat(frames.rssi[order], starts, dtype=np.int64) if len(t)
                else np.zeros(0, dtype=np.int64))
    by_key = np.lexsort((device[starts], t[starts], stop[starts]))
    starts, ends, rssi_sum = starts[by_key], ends[by_key], rssi_sum[by_key]
    return SegmentColumns(
        stops=frames.stops,
        devices=frames.devices,
        stop=frames.stop[order[starts]],
        device=frames.device[order[starts]],
        start=t[starts],
        end=t[ends],
        frame_count=ends - starts + 1,
        rssi_sum=rssi_sum,
    )


def filter_duration(
    segments_in: SegmentColumns, cfg: CleaningConfig
) -> tuple[SegmentColumns, int, int]:
    """Keep segments with d_min <= duration <= d_max.

    Returns (kept, frames_dropped_short, frames_dropped_long); passers-by
    produce the short ones, parked devices the long ones.
    """
    duration = segments_in.end - segments_in.start
    # Whole-second durations: below d_min means below its seconds rounded
    # up, above d_max means above its seconds rounded down.
    short = duration < -_whole_seconds(-cfg.d_min)
    long_ = duration > _whole_seconds(cfg.d_max)
    return (
        segments_in.take(~(short | long_)),
        int(segments_in.frame_count[short].sum()),
        int(segments_in.frame_count[long_].sum()),
    )


def clean(
    frames: FrameColumns | Sequence[FrameRecord], cfg: CleaningConfig | None = None
) -> tuple[list[Segment], CleaningReport]:
    """Run the full pipeline and account every frame once.

    A record sequence is converted to columns first; only the kept
    segments become Segment objects.
    """
    cfg = cfg or CleaningConfig()
    if not isinstance(frames, FrameColumns):
        frames = FrameColumns.from_records(frames)
    n = len(frames)
    report = CleaningReport(input_frames=n)

    # Each stage's input is released as soon as the next one exists.
    frames, applied = filter_randomized(frames)
    report.randomized_filter_applied = applied
    report.dropped_randomized, n = n - len(frames), len(frames)

    frames = filter_single_stop(frames, cfg)
    report.dropped_single_stop, n = n - len(frames), len(frames)

    frames = filter_rssi(frames, cfg)
    report.dropped_rssi = n - len(frames)

    segments_all = segment(frames, cfg)
    del frames
    kept, short_frames, long_frames = filter_duration(segments_all, cfg)
    report.dropped_short = short_frames
    report.dropped_long = long_frames
    report.kept_frames = int(kept.frame_count.sum())

    report.check()
    return list(kept), report


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
