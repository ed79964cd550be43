"""Minute/hourly aggregation: coverage semantics, zero-fill, ordering."""

from __future__ import annotations

from collections import Counter
from datetime import datetime, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busflux.aggregation import (
    HourlyCount,
    hourly_counts,
    minute_counts,
    read_hourly_csv,
    read_minute_csv,
    write_hourly_csv,
    write_minute_csv,
)
from busflux.cleaning import Segment
from busflux.errors import ParseError
from busflux.frames import anonymize

T0 = datetime(2017, 4, 5, 8, 0, 0)


def seg(stop: str, start: datetime, end: datetime, idx: int = 1) -> Segment:
    device = anonymize(idx)
    return Segment(stop=stop, device=device, start=start, end=end, frame_count=2, mean_rssi=-60.0)


# ── Minute coverage ──────────────────────────────────────────────────────────


def test_segment_covers_every_touched_minute():
    # 08:00:30 .. 08:03:10 touches minutes 08:00 through 08:03.
    s = seg("stop-01", T0 + timedelta(seconds=30), T0 + timedelta(seconds=190))
    minutes = minute_counts([s])
    assert [(m.minute, m.count) for m in minutes] == [
        (T0, 1),
        (T0 + timedelta(minutes=1), 1),
        (T0 + timedelta(minutes=2), 1),
        (T0 + timedelta(minutes=3), 1),
    ]


def test_minute_boundary_end_is_counted_in_that_minute():
    s = seg("stop-01", T0, T0 + timedelta(minutes=2))  # ends exactly at 08:02:00
    minutes = minute_counts([s])
    assert len(minutes) == 3  # 08:00, 08:01, 08:02


def test_minute_counts_sum_overlapping_devices():
    a = seg("stop-01", T0, T0 + timedelta(minutes=3), idx=1)
    b = seg("stop-01", T0 + timedelta(minutes=2), T0 + timedelta(minutes=4), idx=2)
    minutes = minute_counts([a, b])
    by_minute = {m.minute: m.count for m in minutes}
    assert by_minute[T0 + timedelta(minutes=1)] == 1
    assert by_minute[T0 + timedelta(minutes=2)] == 2
    assert by_minute[T0 + timedelta(minutes=3)] == 2
    assert by_minute[T0 + timedelta(minutes=4)] == 1


def test_minute_counts_keep_stops_separate():
    a = seg("stop-01", T0, T0 + timedelta(minutes=1), idx=1)
    b = seg("stop-02", T0, T0 + timedelta(minutes=1), idx=2)
    minutes = minute_counts([a, b])
    assert len(minutes) == 4
    assert all(m.count == 1 for m in minutes)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["stop-01", "stop-02"]),
            st.integers(min_value=0, max_value=6 * 3600),
            st.integers(min_value=0, max_value=1800),
        ),
        min_size=1,
        max_size=25,
    )
)
def test_minute_count_equals_covering_segments(spans):
    segments = [
        seg(stop, T0 + timedelta(seconds=a), T0 + timedelta(seconds=a + d), idx=i)
        for i, (stop, a, d) in enumerate(spans)
    ]
    minutes = minute_counts(segments)
    # Oracle: a segment covers minute m iff floor(start) <= m <= floor(end).
    for m in minutes:
        covering = sum(
            1
            for s in segments
            if s.stop == m.stop
            and s.start.replace(second=0) <= m.minute <= s.end.replace(second=0)
        )
        assert m.count == covering
    # and no covered minute is missing
    listed = {(m.stop, m.minute) for m in minutes}
    for s in segments:
        t = s.start.replace(second=0)
        while t <= s.end.replace(second=0):
            assert (s.stop, t) in listed
            t += timedelta(minutes=1)


# ── Hourly aggregation ───────────────────────────────────────────────────────


def test_hourly_is_minute_sum_over_sixty():
    # 45 covered minutes in one hour -> 45/60 device-hours
    s = seg("stop-01", T0, T0 + timedelta(minutes=44))
    hours = hourly_counts([s])
    assert hours == [HourlyCount("stop-01", T0, 45 / 60.0)]


def test_hourly_zero_fills_global_range_for_all_stops():
    early = seg("stop-01", T0, T0 + timedelta(minutes=5), idx=1)
    late = seg("stop-02", T0 + timedelta(hours=2), T0 + timedelta(hours=2, minutes=5), idx=2)
    hours = hourly_counts([early, late])
    # 3 hours x 2 stops, hour-major then stop ordering
    assert [(h.stop, h.hour) for h in hours] == [
        ("stop-01", T0),
        ("stop-02", T0),
        ("stop-01", T0 + timedelta(hours=1)),
        ("stop-02", T0 + timedelta(hours=1)),
        ("stop-01", T0 + timedelta(hours=2)),
        ("stop-02", T0 + timedelta(hours=2)),
    ]
    assert [h.count for h in hours] == [0.1, 0.0, 0.0, 0.0, 0.0, 0.1]


def test_hourly_explicit_range_extends_zero_fill():
    s = seg("stop-01", T0, T0 + timedelta(minutes=5))
    hours = hourly_counts(
        [s],
        start=T0 - timedelta(hours=1),
        end=T0 + timedelta(hours=1),
    )
    assert [(h.hour, h.count) for h in hours] == [
        (T0 - timedelta(hours=1), 0.0),
        (T0, 0.1),
        (T0 + timedelta(hours=1), 0.0),
    ]


def test_hourly_explicit_stops_add_all_zero_series():
    s = seg("stop-01", T0, T0 + timedelta(minutes=5))
    hours = hourly_counts([s], stops=["stop-01", "stop-03"])
    assert {h.stop for h in hours} == {"stop-01", "stop-03"}
    assert all(h.count == 0.0 for h in hours if h.stop == "stop-03")


def test_hourly_of_nothing_is_empty():
    assert hourly_counts([]) == []


def test_hour_total_equals_minute_total_over_sixty():
    segments = [
        seg("stop-01", T0 + timedelta(minutes=7 * i), T0 + timedelta(minutes=7 * i + 3), idx=i)
        for i in range(10)
    ]
    minutes = minute_counts(segments)
    hours = hourly_counts(segments)
    assert sum(h.count for h in hours) * 60 == pytest.approx(sum(m.count for m in minutes))


def hour_of(t: datetime) -> datetime:
    return t.replace(minute=0, second=0, microsecond=0)


def brute_force_hours(segments, start=None, end=None, stops=None) -> list[HourlyCount]:
    """Walk every covered minute as a datetime and zero-fill hour by hour."""
    per_hour: Counter = Counter()
    for s in segments:
        t = s.start.replace(second=0, microsecond=0)
        while t <= s.end:
            per_hour[(s.stop, hour_of(t))] += 1
            t += timedelta(minutes=1)
    if not per_hour and (start is None or end is None or stops is None):
        return []
    stop_set = sorted(set(stops) if stops is not None else {stop for stop, _ in per_hour})
    hour = hour_of(start) if start is not None else min(h for _, h in per_hour)
    last = hour_of(end) if end is not None else max(h for _, h in per_hour)
    out = []
    while hour <= last:
        out.extend(HourlyCount(stop, hour, per_hour[(stop, hour)] / 60.0) for stop in stop_set)
        hour += timedelta(hours=1)
    return out


# Late evening start, so spans and windows cross hour and midnight boundaries.
LATE = datetime(2017, 4, 5, 21, 40, 0)
STOPS = ["stop-01", "stop-02", "stop-03"]
window_offsets = st.none() | st.integers(min_value=-2 * 3600, max_value=8 * 3600)


@settings(max_examples=150, deadline=None)
@given(
    spans=st.lists(
        st.tuples(
            st.sampled_from(STOPS),
            st.integers(min_value=0, max_value=5 * 3600),
            st.integers(min_value=0, max_value=3 * 3600),
        ),
        max_size=30,
    ),
    start=window_offsets,
    end=window_offsets,
    stops=st.none() | st.lists(st.sampled_from(STOPS + ["stop-09"]), max_size=4),
)
def test_hourly_counts_equal_brute_force_minutes(spans, start, end, stops):
    segments = [
        seg(stop, LATE + timedelta(seconds=a), LATE + timedelta(seconds=a + d), idx=i)
        for i, (stop, a, d) in enumerate(spans)
    ]
    window = dict(
        start=None if start is None else LATE + timedelta(seconds=start),
        end=None if end is None else LATE + timedelta(seconds=end),
        stops=stops,
    )
    expected = brute_force_hours(segments, **window)
    assert hourly_counts(segments, **window) == expected


@settings(max_examples=100, deadline=None)
@given(
    spans=st.lists(
        st.tuples(
            st.sampled_from(STOPS),
            st.integers(min_value=0, max_value=5 * 3600),
            st.integers(min_value=0, max_value=3 * 3600),
        ),
        max_size=30,
    ),
    start=st.integers(min_value=-2 * 3600, max_value=3 * 3600),
    hours=st.integers(min_value=0, max_value=8),
    groups=st.lists(st.integers(min_value=0, max_value=2), min_size=4, max_size=4),
)
def test_hourly_counts_are_additive_over_disjoint_stop_sets(spans, start, hours, groups):
    segments = [
        seg(stop, LATE + timedelta(seconds=a), LATE + timedelta(seconds=a + d), idx=i)
        for i, (stop, a, d) in enumerate(spans)
    ]
    stops = STOPS + ["stop-09"]
    lo = LATE + timedelta(seconds=start)
    window = dict(start=lo, end=lo + timedelta(hours=hours))
    merged = []
    for group in set(groups):
        subset = [stop for stop, g in zip(stops, groups) if g == group]
        part = [s for s in segments if s.stop in subset]
        merged += hourly_counts(part, stops=subset, **window)
    merged.sort(key=lambda h: (h.hour, h.stop))
    assert hourly_counts(segments, stops=stops, **window) == merged


# ── CSV round-trips ──────────────────────────────────────────────────────────


def test_minute_csv_round_trip(tmp_path):
    minutes = minute_counts([seg("stop-01", T0, T0 + timedelta(minutes=3))])
    path = tmp_path / "minutes.csv"
    write_minute_csv(minutes, path)
    assert read_minute_csv(path) == minutes


def test_hourly_csv_round_trip_preserves_exact_reals(tmp_path):
    hours = hourly_counts([seg("stop-01", T0, T0 + timedelta(minutes=44))])
    path = tmp_path / "hourly.csv"
    write_hourly_csv(hours, path)
    back = read_hourly_csv(path)
    assert back == hours
    assert back[0].count == 45 / 60.0  # bit-equal, not approximately


def test_hourly_csv_rejects_unknown_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x,y\n1,2\n")
    with pytest.raises(ParseError):
        read_hourly_csv(path)
