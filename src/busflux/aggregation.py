"""Turn kept dwell segments into the hourly target, on integer minute indices.

A minute counts a device when its segment overlaps any part of that minute:
a segment covers every minute index (minutes since the Unix epoch) in
[floor(start/60), floor(end/60)]. The hourly value is the mean of the 60
minute-counts with absent minutes contributing zero, which keeps the target
in persons units.

All counting is integer arithmetic on minute indices: each segment's minute
span is folded straight into per-(stop, hour) totals of covered
device-minutes, and only the zero-filled hourly rows build ``datetime``
objects. Per-minute ``MinuteCount`` rows are built only on request
(``minute_counts``, and the CLI's ``--out-minutes``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from datetime import datetime
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence, Union

from .schema import (EPOCH, format_timestamp, nonempty, nonnegative_int, nonnegative_real,
                     parse_timestamp, read_table, utc_datetime, whole_seconds, write_table)

if TYPE_CHECKING:
    from .cleaning import Segment

MINUTE_HEADER = ("bus_stop", "timestamp_utc", "count")
HOURLY_HEADER = ("bus_stop", "hour_utc", "count")

# (stop, first minute index, last minute index) covered by one device
_MinuteSpan = tuple[str, int, int]


@dataclass(frozen=True, slots=True)
class MinuteCount:
    stop: str
    minute: datetime
    count: int


@dataclass(frozen=True, slots=True)
class HourlyCount:
    stop: str
    hour: datetime
    count: float


# Floored: the CLI's --start and --end may carry a fraction of a second.
def _minute_index(at: datetime) -> int:
    return whole_seconds(at - EPOCH) // 60


def _hour_index(at: datetime) -> int:
    return whole_seconds(at - EPOCH) // 3600


def _segment_spans(segments: Iterable[Segment]) -> Iterator[_MinuteSpan]:
    """The coverage rule: one device over [floor(start/60), floor(end/60)].

    Segments of one device at the same stop are more than the gap apart,
    and ``CleaningConfig`` keeps the gap at 60 s or more, so they never
    share a minute: a minute's count is a count of distinct devices.
    """
    for s in segments:
        yield s.stop, _minute_index(s.start), _minute_index(s.end)


def _hour_totals(spans: Iterable[_MinuteSpan]) -> dict[tuple[str, int], int]:
    """The hour fold: covered device-minutes per (stop, hour index).

    Each span adds one for every minute index in [first, last], split
    across the hours it touches by overlap length.
    """
    totals: dict[tuple[str, int], int] = {}
    for stop, first, last in spans:
        for hour in range(first // 60, last // 60 + 1):
            covered = min(last, hour * 60 + 59) - max(first, hour * 60) + 1
            key = (stop, hour)
            totals[key] = totals.get(key, 0) + covered
    return totals


def _hourly_rows(
    totals: dict[tuple[str, int], int],
    start: datetime | None,
    end: datetime | None,
    stops: Iterable[str] | None,
) -> list[HourlyCount]:
    """Zero-filled hourly rows, hour-major then stop, from hour totals."""
    if not totals and (start is None or end is None or stops is None):
        return []
    stop_set = sorted(set(stops)) if stops is not None else sorted({stop for stop, _ in totals})
    lo = _hour_index(start) if start is not None else min(hour for _, hour in totals)
    hi = _hour_index(end) if end is not None else max(hour for _, hour in totals)
    out: list[HourlyCount] = []
    for hour in range(lo, hi + 1):
        at = utc_datetime(hour * 3600)
        for stop in stop_set:
            out.append(HourlyCount(stop=stop, hour=at, count=totals.get((stop, hour), 0) / 60.0))
    return out


def hourly_counts(
    segments: Iterable[Segment],
    *,
    start: datetime | None = None,
    end: datetime | None = None,
    stops: Iterable[str] | None = None,
) -> list[HourlyCount]:
    """Mean of the 60 minute-counts per (stop, hour), zeros included.

    Hours with no activity emit explicit 0.0 rows inside [start, end] so
    the models see quiet hours; the range defaults to the span of the
    input, and the stop set to the stops present in it. No per-minute rows
    are built.
    """
    return _hourly_rows(_hour_totals(_segment_spans(segments)), start, end, stops)


def minute_counts(segments: Sequence[Segment]) -> list[MinuteCount]:
    """Distinct devices with an active segment per (stop, minute).

    Only minutes with count > 0 are emitted, sorted by (stop, minute).
    """
    counts: dict[tuple[str, int], int] = {}
    for stop, first, last in _segment_spans(segments):
        for m in range(first, last + 1):
            key = (stop, m)
            counts[key] = counts.get(key, 0) + 1
    return [
        MinuteCount(stop=stop, minute=utc_datetime(m * 60), count=n)
        for (stop, m), n in sorted(counts.items())
    ]


def write_minute_csv(minutes: Iterable[MinuteCount], dest: Union[str, os.PathLike]) -> None:
    write_table(
        dest, MINUTE_HEADER, ((m.stop, format_timestamp(m.minute), m.count) for m in minutes)
    )


def read_minute_csv(source: Union[str, os.PathLike]) -> list[MinuteCount]:
    return [
        MinuteCount(*row)
        for row in read_table(source, MINUTE_HEADER, (nonempty, parse_timestamp, nonnegative_int))
    ]


def write_hourly_csv(hours: Iterable[HourlyCount], dest: Union[str, os.PathLike]) -> None:
    write_table(dest, HOURLY_HEADER, ((h.stop, format_timestamp(h.hour), h.count) for h in hours))


def read_hourly_csv(source: Union[str, os.PathLike]) -> list[HourlyCount]:
    return [
        HourlyCount(*row)
        for row in read_table(source, HOURLY_HEADER, (nonempty, parse_timestamp, nonnegative_real))
    ]
