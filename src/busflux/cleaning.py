"""Noise removal: randomized MACs, single-stop devices, RSSI gate, dwell segments.

Stage order inside clean() is randomized -> single-stop -> RSSI -> segmentation
-> duration, and it decides the kept set, not only the report attribution:
single-stop counts the stops a device was seen at before the RSSI gate, so
frames the gate then drops can still make a device multi-stop and keep its
in-range frames at another stop. Every input frame is accounted to exactly
one counter.

The stages work on FrameColumns and are array steps. The three frame
filters return masks, each ANDed into the one before, and clean() takes
the survivors once. The randomized filter is a mask through the device
table's MAC integers. Digest ranks come from one sort of the table's
20-byte digest rows. Single-stop packs each frame's (digest rank, UTC day or nothing,
stop) into one integer key, sorts the distinct keys of the frames still
in play, and keeps a frame when its (digest, window) key recurs there, that
is, comes with two or more stops. The RSSI gate is a mask. Segmentation
packs (stop-name rank, digest rank, time) into one key and sorts it once
with a stable argsort, which orders the frames as lexsort on the three
columns would; the key leaves room for a gap between series, so a segment
breaks wherever consecutive keys lie more than ``gap`` apart, and
per-segment sums come by ``reduceat``. Keys are int32 unless their range
needs int64; beyond int64, single-stop numbers the (digest, window) keys
present and segmentation sorts the three columns. The duration filter is a
mask over SegmentColumns, which carry the frames' digest rows, and
write_segment_csv formats the kept ones from their arrays, each device's
hex from a slice of the digests' bytes; iterating SegmentColumns yields
Segment objects. A device is
its digest throughout, so a device seen both as a raw MAC and as a digest
is one device.

clean() and segment() keep only the columns they still need: a caller
that hands its frames over, as cli.cmd_clean does, holds no reference to
them during the call, and the parsed columns are freed once the survivors
are taken, each survivor column once the sort key holds it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from typing import Iterator, Union

# CleaningConfig and its window names live in config; they stay importable
# from here.
from .config import WINDOW_PER_DAY, WINDOW_WHOLE_DATASET, CleaningConfig
from .errors import ConfigError
from .frames import (
    _BLOCK,
    DeviceId,
    FrameColumns,
    _digest_ranks,
    _stop_ranks,
    device_ids,
    format_epoch_seconds,
)
from .lazy import numpy as np
from .schema import (nonempty, nonnegative_int, parse_timestamp, read_table, real, utc_datetime,
                     whole_seconds, write_table)

SEGMENT_HEADER = ("bus_stop", "device", "start_utc", "end_utc", "frame_count", "mean_rssi")
_SEGMENT_TYPES = (nonempty, DeviceId.from_hex, parse_timestamp, parse_timestamp, nonnegative_int,
                  real)

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


def filter_randomized(frames: FrameColumns) -> tuple[np.ndarray, bool]:
    """The mask of frames not from randomized (locally administered or
    group) MACs.

    Needs the raw address bits, so digest-only frames are all kept; the
    returned flag says whether the filter could run at all (False when no
    frame carried a raw MAC).
    """
    if (frames.used_macs() < 0).all():
        return np.ones(len(frames), dtype=bool), False
    return ~frames.randomized[frames.device], True


def _key_dtype(top: int) -> type | None:
    """The narrower of int32 and int64 that holds every integer in
    [0, top], so also each factor of a key below ``top``; None when
    neither does."""
    for dtype in (np.int32, np.int64):
        if top <= np.iinfo(dtype).max:
            return dtype
    return None


def _runs(split: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """First and last row of each run in n sorted rows; ``split[i]`` is
    True where row i + 1 starts a new run."""
    some = [n > 0]
    return (np.flatnonzero(np.concatenate((some, split))),
            np.flatnonzero(np.concatenate((split, some))))


def _changes(column: np.ndarray) -> np.ndarray:
    return column[1:] != column[:-1]


def filter_single_stop(frames: FrameColumns, cfg: CleaningConfig, keep: np.ndarray) -> np.ndarray:
    """The mask of frames whose device was seen at >= 2 distinct stops
    within the window (per UTC calendar day by default).

    Devices parked at one stop (building PCs, passers-by that probed once)
    never ride the bus; a rider's phone shows up at both trip ends. Only
    the frames in the mask ``keep``, the randomized filter's survivors in
    clean(), count a stop or can be kept.
    """
    n = len(frames)
    if not keep.any():
        return np.zeros(n, dtype=bool)
    ranks = _digest_ranks(frames)
    n_devices, n_stops = int(ranks.max()) + 1, len(frames.stops)
    per_day = cfg.multi_stop_window == WINDOW_PER_DAY
    first_day = int(frames.t.min()) // 86400
    n_windows = int(frames.t.max()) // 86400 - first_day + 1 if per_day else 1
    # Each frame's (window, device) key, then its (window, device, stop)
    # key, in int32 unless the key range needs int64. The window-device
    # range is below 2**53, since days since the epoch stay below 2**22.
    span = n_windows * n_devices
    dtype = _key_dtype(span * n_stops)
    key = np.zeros(n, dtype=dtype or np.int64)
    if per_day:
        np.floor_divide(frames.t, 86400, out=key, casting="same_kind")
        key -= first_day
        key *= n_devices
    key += ranks[frames.device]
    if dtype is None:
        # Number the window-device keys present instead: fewer than 2**31.
        key = np.unique(key, return_inverse=True)[1]
    key *= n_stops
    key += frames.stop
    # The distinct keys of the frames in play, sorted: a window-device key
    # that recurs among them was seen at two or more stops.
    pairs = key[keep]
    pairs.sort()
    pairs = pairs[np.concatenate(([True], _changes(pairs)))] // n_stops
    multi = pairs[1:][~_changes(pairs)]
    if not len(multi):
        return np.zeros(n, dtype=bool)
    key //= n_stops
    # Looked up a block of frames at a time, since searchsorted's index is
    # an int64 per frame.
    kept, last = np.empty(n, dtype=bool), len(multi) - 1
    for at in range(0, n, _BLOCK):
        block = key[at:at + _BLOCK]
        kept[at:at + _BLOCK] = multi[np.minimum(np.searchsorted(multi, block), last)] == block
    kept &= keep
    return kept


def filter_rssi(frames: FrameColumns, cfg: CleaningConfig) -> np.ndarray:
    """The mask of frames with rssi_lo <= rssi <= rssi_hi (inclusive)."""
    return (frames.rssi >= cfg.rssi_lo) & (frames.rssi <= cfg.rssi_hi)


@dataclass(frozen=True, eq=False)
class SegmentColumns:
    """Segments as parallel arrays, sorted by (stop, start, device).

    ``stop`` indexes the stop names of the frames they came from, and
    ``device`` the rows of their (k, 20) uint8 ``digests``; ``start`` and
    ``end`` are UTC epoch seconds, and ``rssi_sum`` over ``frame_count``
    is the mean RSSI. Iterating yields Segments.
    """

    stops: tuple[str, ...]
    digests: np.ndarray
    stop: np.ndarray
    device: np.ndarray
    start: np.ndarray
    end: np.ndarray
    frame_count: np.ndarray
    rssi_sum: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    def __iter__(self) -> Iterator[Segment]:
        stops, devices = self.stops, device_ids(self.digests)
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

    def rows(self) -> Iterator[tuple]:
        """The SEGMENT_HEADER cells of each segment, formatted from the
        arrays a block of segments at a time."""
        stops, digests = self.stops, self.digests.tobytes()
        for at in range(0, len(self), _BLOCK):
            block = slice(at, at + _BLOCK)
            yield from zip(
                map(stops.__getitem__, self.stop[block].tolist()),
                (digests[20 * d:20 * d + 20].hex() for d in self.device[block].tolist()),
                format_epoch_seconds(self.start[block]),
                format_epoch_seconds(self.end[block]),
                self.frame_count[block].tolist(),
                (self.rssi_sum[block] / self.frame_count[block]).tolist(),
            )


def segment(frames: FrameColumns, cfg: CleaningConfig) -> SegmentColumns:
    """Split each (stop, device) frame series into gap-bounded segments.

    Consecutive frames within ``gap`` of each other share a segment; a
    larger hole starts a new one. Every frame lands in exactly one segment.
    Output is sorted by (stop, start, device) so it is independent of input
    order and of any upstream partitioning.
    """
    stops, digests, n = frames.stops, frames.digests, len(frames)
    stop_rank, digest_rank = _stop_ranks(frames), _digest_ranks(frames)
    n_devices = int(digest_rank.max(initial=-1)) + 1
    # Times are whole seconds, so "more than gap apart" is "more than the
    # gap's whole seconds apart".
    gap = whole_seconds(cfg.gap)
    t0 = int(frames.t.min()) if n else 0
    # Time offsets, then a gap's worth of room, so that the keys of two
    # (stop, device) series always lie more than the gap apart.
    span = (int(frames.t.max()) - t0 + 1 if n else 0) + gap
    dtype = _key_dtype(max(len(stops) * n_devices, 1) * span)
    stop, device, t, rssi = frames.stop, frames.device, frames.t, frames.rssi
    # The caller may have handed its frames over, as clean() does: then
    # each column is freed as soon as it is no longer needed.
    del frames
    if dtype is None:
        # No integer holds the key: sort on the three columns.
        order = np.lexsort((t, digest_rank[device], stop_rank[stop]))
        stop, device = stop_rank[stop[order]], digest_rank[device[order]]
        t, rssi = t[order], rssi[order]
        del order
        starts, ends = _runs(_changes(stop) | _changes(device) | (np.diff(t) > gap), n)
        seg_stop, seg_device, start, end = stop[starts], device[starts], t[starts], t[ends]
    else:
        # One (stop rank, digest rank, time) key per frame; its stable
        # order is lexsort's on the three columns.
        key = stop_rank.astype(dtype)[stop]
        del stop
        key *= n_devices
        key += digest_rank[device]
        del device
        key *= span
        key += np.subtract(t, t0, out=np.empty(n, dtype=dtype), casting="same_kind")
        del t
        order = np.argsort(key, kind="stable")
        rssi, key = rssi[order], key[order]
        del order
        starts, ends = _runs(np.diff(key) > gap, n)
        series, start = np.divmod(key[starts], span)
        seg_stop, seg_device = np.divmod(series, n_devices)
        start, end = start.astype(np.int64) + t0, (key[ends] % span).astype(np.int64) + t0
        del key, series
    rssi_sum = (np.add.reduceat(rssi, starts, dtype=np.int64) if n
                else np.zeros(0, dtype=np.int64))
    del rssi
    # Back from ranks to table entries; a digest may own two entries, one
    # per form it came in, and either names the same device.
    stop_entry = np.argsort(stop_rank).astype(np.int32)
    device_entry = np.empty(n_devices, dtype=np.int32)
    device_entry[digest_rank] = np.arange(len(digest_rank), dtype=np.int32)
    by_key = np.lexsort((seg_device, start, seg_stop))
    return SegmentColumns(
        stops=stops,
        digests=digests,
        stop=stop_entry[seg_stop[by_key]],
        device=device_entry[seg_device[by_key]],
        start=start[by_key],
        end=end[by_key],
        frame_count=(ends - starts + 1)[by_key],
        rssi_sum=rssi_sum[by_key],
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
    short = duration < -whole_seconds(-cfg.d_min)
    long_ = duration > whole_seconds(cfg.d_max)
    return (
        segments_in.take(~(short | long_)),
        int(segments_in.frame_count[short].sum()),
        int(segments_in.frame_count[long_].sum()),
    )


def clean(
    frames: FrameColumns, cfg: CleaningConfig | None = None
) -> tuple[SegmentColumns, CleaningReport]:
    """Run the full pipeline and account every frame once; returns the
    kept segments."""
    cfg = cfg or CleaningConfig()
    report = CleaningReport(input_frames=len(frames))

    # The filters return masks, each ANDed into the last, so a frame is
    # counted against the first that drops it.
    keep, report.randomized_filter_applied = filter_randomized(frames)
    n_after_randomized = int(np.count_nonzero(keep))
    report.dropped_randomized = report.input_frames - n_after_randomized
    keep = filter_single_stop(frames, cfg, keep)
    n_after_single_stop = int(np.count_nonzero(keep))
    report.dropped_single_stop = n_after_randomized - n_after_single_stop
    keep &= filter_rssi(frames, cfg)
    report.dropped_rssi = n_after_single_stop - int(np.count_nonzero(keep))

    # The survivors are taken once, a column at a time: when the caller
    # handed its frames over, as cli.cmd_clean does, each input column is
    # freed as soon as its survivors exist.
    for column in ("stop", "t", "device", "rssi"):
        frames = replace(frames, **{column: getattr(frames, column)[keep]})
    del keep
    # Handed over to segment() the same way, so that it can free each
    # column once its sort key holds it.
    survivors = [frames]
    del frames
    segments_all = segment(survivors.pop(), cfg)
    kept, report.dropped_short, report.dropped_long = filter_duration(segments_all, cfg)
    report.kept_frames = int(kept.frame_count.sum())

    report.check()
    return kept, report


def write_segment_csv(segments_out: SegmentColumns, dest: Union[str, os.PathLike]) -> None:
    """Write segments as CSV from their arrays, with no Segment or datetime
    per segment."""
    write_table(dest, SEGMENT_HEADER, segments_out.rows())


def read_segment_csv(source: Union[str, os.PathLike]) -> list[Segment]:
    return [Segment(*row) for row in read_table(source, SEGMENT_HEADER, _SEGMENT_TYPES)]
