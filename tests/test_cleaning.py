"""Cleaning pipeline: filter semantics, stage attribution, segmentation."""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from dataclasses import replace
from datetime import datetime, timedelta
from itertools import accumulate, compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busflux import cleaning
from busflux.cleaning import (
    WINDOW_PER_DAY,
    WINDOW_WHOLE_DATASET,
    CleaningConfig,
    CleaningReport,
    Segment,
    SegmentColumns,
    clean,
    filter_duration,
    filter_randomized,
    filter_rssi,
    filter_single_stop,
    read_segment_csv,
    segment,
    write_segment_csv,
)
from busflux.errors import ConfigError
from busflux.frames import (
    DeviceId,
    FrameColumns,
    FrameRecord,
    anonymize,
    format_mac,
    is_randomized,
    parse_frame_csv,
    write_frame_csv,
)
from busflux.schema import from_dict, to_dict
from busflux.synth import default_scenario, generate
from conftest import T0, burst, digest_rows, frame, mac, segment_columns

CFG = CleaningConfig()
cols = FrameColumns.from_records


def cleaned(frames, cfg=CFG):
    """clean() of frames, as columns or as a record list, with its segments
    as a list of Segments, for comparisons."""
    if not isinstance(frames, FrameColumns):
        frames = cols(frames)
    segments, report = clean(frames, cfg)
    return list(segments), report


def kept_by(step, frames, *args):
    """The records that a mask-returning filter step keeps."""
    columns = cols(frames)
    return list(compress(columns, step(columns, *args)))


def single_stop(columns, cfg):
    """filter_single_stop with every frame in play."""
    return filter_single_stop(columns, cfg, np.ones(len(columns), dtype=bool))


def kept_frames(frames, segments_kept):
    """The member frames of kept segments, in input order."""
    spans = {}
    for s in segments_kept:
        spans.setdefault((s.stop, s.device.digest), []).append((s.start, s.end))
    return [
        f
        for f in frames
        if any(start <= f.at <= end for start, end in spans.get((f.stop, f.device.digest), ()))
    ]


def two_stop_day(mac_text: str = "00:B8:00:00:00:01", duration_s: int = 300):
    """A device that dwells at two stops on the same day — the signal shape
    that survives every filter."""
    return burst("stop-01", mac_text, T0, duration_s) + burst(
        "stop-02", mac_text, T0 + timedelta(hours=1), duration_s
    )


# ── Individual filters ───────────────────────────────────────────────────────


def test_rssi_gate_is_inclusive_at_both_ends():
    frames = [frame(rssi=r) for r in (-81, -80, -79, -31, -30, -29, 0)]
    assert [f.rssi for f in kept_by(filter_rssi, frames, CFG)] == [-80, -79, -31, -30]


def test_randomized_filter_drops_local_and_group_bits():
    frames = [
        frame(mac_text="00:B8:00:00:00:01"),
        frame(mac_text="02:00:00:00:00:02"),  # locally administered
        frame(mac_text="01:00:00:00:00:03"),  # group
        frame(mac_text="03:00:00:00:00:04"),  # both bits
    ]
    columns = cols(frames)
    keep, applied = filter_randomized(columns)
    assert applied
    assert [format_mac(f.mac)[:2] for f in compress(columns, keep)] == ["00"]


def test_randomized_filter_passes_through_digest_only_input(tmp_path):
    path = tmp_path / "anon.csv"
    write_frame_csv(cols([frame(mac_text="02:00:00:00:00:01")]), path, anonymize_output=True)
    anon, _ = parse_frame_csv(path)
    keep, applied = filter_randomized(anon)
    assert not applied
    assert keep.all()  # bits are unrecoverable from the digest


def test_single_stop_filter_needs_two_stops_within_a_day():
    same_day = two_stop_day()
    assert kept_by(single_stop, same_day, CFG) == same_day

    one_stop = burst("stop-01", "00:B8:00:00:00:09", T0, 300)
    assert kept_by(single_stop, one_stop, CFG) == []


def test_single_stop_window_split_across_days():
    # Two stops, but on different calendar days: dropped per-day, kept
    # under the whole-dataset window.
    frames = burst("stop-01", "00:B8:00:00:00:01", T0, 300) + burst(
        "stop-02", "00:B8:00:00:00:01", T0 + timedelta(days=1), 300
    )
    assert kept_by(single_stop, frames, CFG) == []
    whole = CleaningConfig(multi_stop_window=WINDOW_WHOLE_DATASET)
    assert kept_by(single_stop, frames, whole) == frames


def test_duration_filter_is_inclusive_at_both_ends():
    stamps = {
        "at_min": 120,
        "below": 119,
        "at_max": 1800,
        "above": 1801,
    }
    n = len(stamps)
    segs = SegmentColumns(
        stops=("s",),
        digests=digest_rows([frame().device.digest]),
        stop=np.zeros(n, dtype=np.int32),
        device=np.zeros(n, dtype=np.int32),
        start=np.zeros(n, dtype=np.int64),
        end=np.array(list(stamps.values()), dtype=np.int64),
        frame_count=np.full(n, 2),
        rssi_sum=np.full(n, -120),
    )
    kept, short, long_ = filter_duration(segs, CFG)
    assert [int(s.duration.total_seconds()) for s in kept] == [120, 1800]
    assert short == 2 and long_ == 2


# ── Segmentation ─────────────────────────────────────────────────────────────


def test_gap_splits_only_beyond_threshold():
    mac_text = "00:B8:00:00:00:01"
    frames = [
        frame(at=T0, mac_text=mac_text),
        frame(at=T0 + timedelta(seconds=300), mac_text=mac_text),  # exactly gap
        frame(at=T0 + timedelta(seconds=601), mac_text=mac_text),  # gap + 1s
    ]
    segs = list(segment(cols(frames), CFG))
    assert len(segs) == 2
    assert segs[0].frame_count == 2 and segs[1].frame_count == 1
    assert segs[0].end == T0 + timedelta(seconds=300)


def test_segment_is_per_stop_and_per_device():
    frames = [
        frame(stop="stop-01", mac_text="00:B8:00:00:00:01"),
        frame(stop="stop-02", mac_text="00:B8:00:00:00:01"),
        frame(stop="stop-01", mac_text="00:B8:00:00:00:02"),
    ]
    assert len(segment(cols(frames), CFG)) == 3


def test_segment_output_is_input_order_independent():
    frames = two_stop_day()
    assert list(segment(cols(frames), CFG)) == list(segment(cols(frames[::-1]), CFG))


def test_segment_stats():
    frames = [
        frame(at=T0, rssi=-50),
        frame(at=T0 + timedelta(seconds=60), rssi=-70),
    ]
    (s,) = segment(cols(frames), CFG)
    assert s.frame_count == 2
    assert s.mean_rssi == -60.0
    assert s.duration == timedelta(seconds=60)


# ── Full pipeline ────────────────────────────────────────────────────────────


def test_clean_keeps_the_signal_shape():
    segments, report = clean(cols(two_stop_day()))
    assert len(segments) == 2
    assert report.kept_frames == report.input_frames
    assert {s.stop for s in segments} == {"stop-01", "stop-02"}


def test_clean_attributes_each_frame_to_first_dropping_stage():
    signal = two_stop_day()
    randomized = burst("stop-01", "02:00:00:00:00:11", T0, 300) + burst(
        "stop-02", "02:00:00:00:00:11", T0 + timedelta(hours=1), 300
    )
    parked = burst("stop-01", "00:B8:00:00:00:12", T0, 300)
    out_of_band = [replace(f, rssi=-90) for f in two_stop_day("00:B8:00:00:00:13")]
    passerby = burst("stop-01", "00:B8:00:00:00:14", T0, 30, step_s=10) + burst(
        "stop-02", "00:B8:00:00:00:14", T0 + timedelta(hours=1), 30, step_s=10
    )

    frames = signal + randomized + parked + out_of_band + passerby
    segments, report = clean(cols(frames))

    assert report.dropped_randomized == len(randomized)
    assert report.dropped_single_stop == len(parked)
    assert report.dropped_rssi == len(out_of_band)
    assert report.dropped_short == len(passerby)
    assert report.kept_frames == len(signal)
    assert {s.device for s in segments} == {signal[0].device}


def test_clean_is_idempotent_on_its_own_output():
    frames = two_stop_day() + burst("stop-01", "02:00:00:00:00:11", T0, 300)
    segments, _ = cleaned(frames)
    survivors = kept_frames(frames, segments)
    again, report = cleaned(survivors)
    assert again == segments
    assert report.kept_frames == report.input_frames


def test_clean_empty_input():
    segments, report = clean(cols([]))
    assert list(segments) == []
    assert report.input_frames == report.kept_frames == 0
    report.check()


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["stop-01", "stop-02", "stop-03"]),
            st.integers(min_value=0, max_value=3 * 86400 - 1),
            st.integers(min_value=0, max_value=30),
            st.integers(min_value=-110, max_value=-20),
        ),
        max_size=80,
    )
)
def test_accounting_invariant_holds_for_arbitrary_input(rows):
    frames = [
        frame(
            stop=stop,
            at=T0 + timedelta(seconds=sec),
            mac_text=f"{'02' if dev % 3 == 0 else '00'}:B8:00:00:00:{dev:02X}",
            rssi=rssi,
        )
        for stop, sec, dev, rssi in rows
    ]
    segments, report = clean(cols(frames))
    report.check()  # input == kept + sum(dropped)
    assert report.input_frames == len(frames)
    assert report.kept_frames == sum(s.frame_count for s in segments)
    for s in segments:
        assert CFG.d_min <= s.duration <= CFG.d_max


# ── Metamorphic relations ────────────────────────────────────────────────────

STOPS = ("stop-01", "stop-02", "stop-03")

# (stop, start in seconds after T0, device number, minutes, rssi) per burst of
# one frame a minute; every third device is randomized. Durations straddle
# d_min and d_max and rssi straddles rssi_lo, so every counter is exercised.
BURSTS = st.lists(
    st.tuples(
        st.sampled_from(STOPS),
        st.integers(min_value=0, max_value=2 * 86400 - 1),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=-90, max_value=-40),
    ),
    max_size=12,
)


def frames_of(bursts):
    return [
        f
        for stop, sec, dev, minutes, rssi in bursts
        for f in burst(
            stop,
            f"{'02' if dev % 3 == 0 else '00'}:B8:00:00:00:{dev:02X}",
            T0 + timedelta(seconds=sec),
            minutes * 60,
            rssi=rssi,
        )
    ]


@settings(max_examples=50, deadline=None)
@given(BURSTS, st.randoms(use_true_random=False))
def test_clean_ignores_input_order(bursts, rnd):
    frames = frames_of(bursts)
    shuffled = list(frames)
    rnd.shuffle(shuffled)
    assert cleaned(shuffled) == cleaned(frames)


@settings(max_examples=50, deadline=None)
@given(BURSTS, st.integers(min_value=-400, max_value=400))
def test_clean_commutes_with_whole_day_time_shifts(bursts, days):
    shift = timedelta(days=days)
    frames = frames_of(bursts)
    segments, report = cleaned(frames)
    moved, moved_report = cleaned([replace(f, at=f.at + shift) for f in frames])
    assert moved == [replace(s, start=s.start + shift, end=s.end + shift) for s in segments]
    assert moved_report == report


@settings(max_examples=50, deadline=None)
@given(BURSTS, st.lists(st.text(min_size=1), min_size=3, max_size=3, unique=True))
def test_clean_commutes_with_order_preserving_stop_renaming(bursts, names):
    rename = dict(zip(STOPS, sorted(names)))
    frames = frames_of(bursts)
    segments, report = cleaned(frames)
    renamed, renamed_report = cleaned([replace(f, stop=rename[f.stop]) for f in frames])
    assert renamed == [replace(s, stop=rename[s.stop]) for s in segments]
    assert renamed_report == report


# ── Columnar clean against the record-based reference ───────────────────────


def reference_clean(frames, cfg=CFG):
    """The record-at-a-time clean that the array steps replaced: stage by
    stage over FrameRecords, with datetimes and a sorted Python run scan."""
    report = CleaningReport(input_frames=len(frames))

    applied = any(f.mac is not None for f in frames)
    after_rand = [f for f in frames if f.mac is None or not is_randomized(f.mac)] if applied \
        else list(frames)
    report.randomized_filter_applied = applied
    report.dropped_randomized = len(frames) - len(after_rand)

    def window(f):
        if cfg.multi_stop_window == WINDOW_PER_DAY:
            return (f.device.digest, f.at.date())
        return f.device.digest

    stops_seen = {}
    for f in after_rand:
        stops_seen.setdefault(window(f), set()).add(f.stop)
    after_multi = [f for f in after_rand if len(stops_seen[window(f)]) >= 2]
    report.dropped_single_stop = len(after_rand) - len(after_multi)

    after_rssi = [f for f in after_multi if cfg.rssi_lo <= f.rssi <= cfg.rssi_hi]
    report.dropped_rssi = len(after_multi) - len(after_rssi)

    runs = []
    for f in sorted(after_rssi, key=lambda f: (f.stop, f.device.digest, f.at)):
        if not runs or (f.stop, f.device.digest) != (runs[-1][-1].stop, runs[-1][-1].device.digest) \
                or f.at - runs[-1][-1].at > cfg.gap:
            runs.append([])
        runs[-1].append(f)
    segments = sorted(
        (Segment(run[0].stop, run[0].device, run[0].at, run[-1].at, len(run),
                 sum(f.rssi for f in run) / len(run)) for run in runs),
        key=lambda s: (s.stop, s.start, s.device.digest),
    )

    kept = []
    for s in segments:
        if s.duration < cfg.d_min:
            report.dropped_short += s.frame_count
        elif s.duration > cfg.d_max:
            report.dropped_long += s.frame_count
        else:
            kept.append(s)
    report.kept_frames = sum(s.frame_count for s in kept)
    report.check()
    return kept, report


# First-seen order differs from sort order, and "Stop" sorts before "stop".
EDGE_STOPS = ("stop-b", "stop-a", "Stop-c")
# Duplicate times (0), short steps, and gap - 1, gap and gap + 1 s.
EDGE_STEPS = (0, 1, 60, 299, 300, 301)
# d_min, d_max and one second past each.
EDGE_DWELLS = (119, 120, 1800, 1801)
# rssi_lo and rssi_hi, one past each and one inside each.
EDGE_RSSI = (-81, -80, -79, -60, -31, -30, -29)
# Ten minutes before a UTC midnight, so that bursts cross it.
NEAR_MIDNIGHT = T0.replace(hour=23, minute=50)


@st.composite
def edge_frames(draw):
    """Shuffled bursts of frames that sit on every boundary the stages test.

    A burst is either a dwell walked in 60 s steps that spans exactly one
    of EDGE_DWELLS, or a run of EDGE_STEPS. Device 0 has a randomized MAC,
    and a burst may come in digest form, so one device can appear both ways.
    """
    frames = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        dev = draw(st.integers(min_value=0, max_value=4))
        m = mac(f"{'02' if dev == 0 else '00'}:B8:00:00:00:{dev:02X}")
        start = NEAR_MIDNIGHT + timedelta(days=draw(st.integers(min_value=0, max_value=1)),
                                          seconds=draw(st.integers(min_value=0, max_value=1200)))
        if draw(st.booleans()):
            dwell = draw(st.sampled_from(EDGE_DWELLS))
            offsets = [*range(0, dwell, 60), dwell]
        else:
            offsets = list(accumulate(draw(st.lists(st.sampled_from(EDGE_STEPS), max_size=6)),
                                      initial=0))
        stop = draw(st.sampled_from(EDGE_STOPS))
        digest_form = draw(st.booleans())
        for offset in offsets:
            frames.append(FrameRecord(stop, start + timedelta(seconds=offset), anonymize(m),
                                      draw(st.sampled_from(EDGE_RSSI)),
                                      None if digest_form else m))
    return draw(st.permutations(frames))


@settings(max_examples=300, deadline=None)
@given(edge_frames(), st.sampled_from([WINDOW_PER_DAY, WINDOW_WHOLE_DATASET]))
def test_columnar_clean_equals_the_reference(frames, window):
    cfg = CleaningConfig(multi_stop_window=window)
    assert cleaned(frames, cfg) == reference_clean(frames, cfg)


def test_columnar_clean_equals_the_reference_on_the_default_scenario():
    frames, _, _ = generate(replace(default_scenario(seed=5), days=3))
    assert len(frames) > 5_000
    for window in (WINDOW_PER_DAY, WINDOW_WHOLE_DATASET):
        cfg = CleaningConfig(multi_stop_window=window)
        assert cleaned(frames, cfg) == reference_clean(frames, cfg)


def test_whole_second_frames_meet_fractional_bounds_like_the_reference():
    frames = two_stop_day(duration_s=300) + burst("stop-01", "00:B8:00:00:00:02", T0, 150) \
        + burst("stop-02", "00:B8:00:00:00:02", T0 + timedelta(hours=1), 300, step_s=150)
    for cfg in (
        CleaningConfig(d_min=timedelta(seconds=150.5), d_max=timedelta(seconds=299.5)),
        CleaningConfig(d_min=timedelta(seconds=149.5), d_max=timedelta(seconds=300.5),
                       gap=timedelta(seconds=149.5)),
        CleaningConfig(gap=timedelta(seconds=150.5)),
    ):
        assert cleaned(frames, cfg) == reference_clean(frames, cfg)


# ── Sort keys past int32 and past int64 ─────────────────────────────────────


def test_key_dtype_widens_at_each_integer_limit():
    assert cleaning._key_dtype(2**31 - 1) is np.int32
    assert cleaning._key_dtype(2**31) is np.int64
    assert cleaning._key_dtype(2**63 - 1) is np.int64
    assert cleaning._key_dtype(2**63) is None


@pytest.fixture
def key_dtypes(monkeypatch):
    """The key dtypes that filter_single_stop and segment choose, in call order."""
    chosen = []
    choose = cleaning._key_dtype

    def recorded(span):
        chosen.append(choose(span))
        return chosen[-1]

    monkeypatch.setattr(cleaning, "_key_dtype", recorded)
    return chosen


def digest(i: int) -> DeviceId:
    return DeviceId(hashlib.sha1(i.to_bytes(4, "big")).digest())


# The first and the last day that a frame file can name.
FIRST_DAY, LAST_DAY = datetime(1, 1, 1, 12), datetime(9999, 12, 31, 12)


def at_fraction(x: float) -> datetime:
    """The noon a fraction ``x`` of the way from FIRST_DAY to LAST_DAY."""
    return FIRST_DAY + timedelta(days=round(x * (LAST_DAY - FIRST_DAY).days))


def decades_of_frames():
    """2,000 digests at 5 stops, from the year 1 to the year 9999.

    Device i rides from stop i % 5 to the next on one day and dwells 4
    minutes at each; every third one also pings its first stop twice in
    one second, every seventh stays at one stop, and every eleventh is out
    of RSSI range at its second stop. Devices 0-49 come as raw MACs, and
    the randomized ones among them are dropped.
    """
    frames = []
    for i in range(2000):
        start = at_fraction(i / 1999)
        first, second = f"stop-{i % 5}", f"stop-{(i + 1) % 5}"
        if i % 7 == 0:
            second = first
        m = mac(f"{2 * (i % 2):02X}:B8:00:00:{i // 256:02X}:{i % 256:02X}") if i < 50 else None
        device = anonymize(m) if m else digest(i)
        rssi = -85 if i % 11 == 0 else -60
        frames += [FrameRecord(first, start + timedelta(seconds=s), device, -50 - s % 7, m)
                   for s in (0, 0, 120, 240)[i % 3 != 0:]]
        frames += [FrameRecord(second, start + timedelta(hours=1, seconds=s), device, rssi, m)
                   for s in (0, 120, 240)]
    return frames


@pytest.mark.parametrize("window, dtypes", [(WINDOW_PER_DAY, [np.int64, np.int64]),
                                            (WINDOW_WHOLE_DATASET, [np.int32, np.int64])])
def test_keys_past_int32_over_ten_thousand_years(key_dtypes, window, dtypes):
    frames = decades_of_frames()
    cfg = CleaningConfig(multi_stop_window=window)
    segments, report = cleaned(frames, cfg)
    assert key_dtypes == dtypes
    assert (segments, report) == reference_clean(frames, cfg)
    assert report.dropped_randomized and report.dropped_single_stop and report.dropped_rssi
    years = sorted({s.start.year for s in segments})
    assert years[0] < 20 and years[-1] == 9999


def test_keys_past_int64_with_tens_of_thousands_of_digests_and_stops(key_dtypes):
    # 46,341 digests at as many stops: digests times stops passes 2**31,
    # and times ten thousand years of seconds it passes 2**63, so the
    # segment sort falls back to sorting three columns.
    n = 46_341
    stops = tuple(f"s{i:05d}" for i in range(n))
    rows = np.arange(n)
    at = np.array([(at_fraction(i / (n - 1)) - datetime(1970, 1, 1)) // timedelta(seconds=1)
                   for i in range(0, n, 97)], dtype=np.int64).repeat(97)[:n]
    columns = FrameColumns(
        stops=stops,
        digests=digest_rows(digest(i).digest for i in range(n)),
        macs=np.full(n, -1),
        stop=np.concatenate((rows, rows, (rows + 1) % n)).astype(np.int32),
        t=np.concatenate((at, at + 150, at + 3600)),
        device=np.concatenate((rows, rows, rows)).astype(np.int32),
        rssi=np.full(3 * n, -60, dtype=np.int16),
    )
    frames = list(columns)
    for window in (WINDOW_PER_DAY, WINDOW_WHOLE_DATASET):
        key_dtypes.clear()
        cfg = CleaningConfig(multi_stop_window=window)
        segments, report = cleaned(columns, cfg)
        assert key_dtypes == [np.int64, None]
        assert (segments, report) == reference_clean(frames, cfg)
        assert report.kept_frames == 2 * n and report.dropped_short == n


@settings(max_examples=100, deadline=None)
@given(edge_frames(), st.sampled_from([WINDOW_PER_DAY, WINDOW_WHOLE_DATASET]))
def test_clean_equals_the_reference_when_no_integer_holds_a_key(frames, window):
    cfg = CleaningConfig(multi_stop_window=window)
    real = cleaning._key_dtype
    cleaning._key_dtype = lambda span: None
    try:
        got = cleaned(frames, cfg)
    finally:
        cleaning._key_dtype = real
    assert got == reference_clean(frames, cfg)


DROP_ALL = {
    "empty": [],
    "randomized": two_stop_day("02:00:00:00:00:01"),
    "single stop": burst("stop-01", "00:B8:00:00:00:01", T0, 300),
    "rssi": [replace(f, rssi=-90) for f in two_stop_day()],
    "short": [replace(f, at=T0) for f in two_stop_day()],
}


@pytest.mark.parametrize("window", [WINDOW_PER_DAY, WINDOW_WHOLE_DATASET])
@pytest.mark.parametrize("case", sorted(DROP_ALL))
def test_input_that_every_frame_leaves_cleans_like_the_reference(case, window):
    cfg = CleaningConfig(multi_stop_window=window)
    segments, report = cleaned(DROP_ALL[case], cfg)
    assert segments == [] and report.kept_frames == 0
    assert (segments, report) == reference_clean(DROP_ALL[case], cfg)


def test_clean_peak_traced_memory_stays_under_its_bound():
    # numpy reports its buffers to tracemalloc. On these 15,701 frames
    # clean() peaked at 0.88 MB when it took the survivors of each filter
    # and sorted on three columns, and at 0.34 MB with one take of the
    # masked survivors and packed sort keys.
    frames, _, _ = generate(replace(default_scenario(seed=13), days=4))
    held = [frames]
    assert len(held[0]) == 15_701
    del frames
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        segments, report = clean(held.pop())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.kept_frames > 0 and len(segments) > 0
    assert peak - before < 550_000


# ── Config validation and serialization ──────────────────────────────────────


def test_config_rejects_inverted_bounds():
    with pytest.raises(ConfigError):
        CleaningConfig(d_min=timedelta(minutes=30), d_max=timedelta(minutes=2))
    with pytest.raises(ConfigError):
        CleaningConfig(rssi_lo=-30, rssi_hi=-80)
    with pytest.raises(ConfigError):
        CleaningConfig(gap=timedelta(0))
    with pytest.raises(ConfigError):
        CleaningConfig(multi_stop_window="fortnightly")


def test_config_rejects_sub_minute_gap():
    # Below 60 s one device's two segments could share a minute and be
    # counted twice in it.
    with pytest.raises(ConfigError):
        CleaningConfig(gap=timedelta(seconds=30))
    assert CleaningConfig(gap=timedelta(seconds=60)).gap == timedelta(seconds=60)


def test_report_json_round_trip():
    _, report = clean(cols(two_stop_day()))
    back = from_dict(type(report), json.loads(json.dumps(to_dict(report))), type(report)())
    assert back == report


def test_segment_csv_round_trip(tmp_path):
    segments, _ = clean(cols(two_stop_day()))
    path = tmp_path / "segments.csv"
    write_segment_csv(segments, path)
    assert read_segment_csv(path) == list(segments)


def test_segment_csv_quotes_stop_names_and_round_trips_byte_for_byte(tmp_path):
    frames = [replace(f, stop=f'{f.stop}, "north"', rssi=-61 + i % 4)
              for i, f in enumerate(two_stop_day())]
    segments, _ = clean(cols(frames))
    write_segment_csv(segments, tmp_path / "columns.csv")
    back = read_segment_csv(tmp_path / "columns.csv")
    assert back == list(segments)
    write_segment_csv(segment_columns(back), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "columns.csv").read_bytes()


def test_digests_with_nul_bytes_at_either_end_pass_every_stage_unchanged(tmp_path):
    # numpy's S20 items drop trailing NULs, so no step may read a digest
    # row back through one.
    digests = [b"\0" * 3 + bytes(range(1, 15)) + b"\0" * 3, b"\0" + b"\xab" * 19,
               b"\xcd" * 19 + b"\0", bytes(20)]
    frames = [FrameRecord(stop, T0 + timedelta(seconds=i + hour * 3600 + s), DeviceId(d), -60)
              for i, d in enumerate(digests)
              for hour, stop in enumerate(("stop-01", "stop-02"))
              for s in range(0, 301, 60)]
    path = tmp_path / "frames.csv"
    write_frame_csv(cols(frames), path)
    text = path.read_text()
    assert text.startswith("#anonymized=true\n") and all(d.hex() in text for d in digests)
    back, _ = parse_frame_csv(path)
    assert list(back) == frames
    segments, report = clean(back)
    assert report.kept_frames == len(frames) and len(segments) == 2 * len(digests)
    write_segment_csv(segments, tmp_path / "segments.csv")
    devices = [s.device.digest for s in read_segment_csv(tmp_path / "segments.csv")]
    assert devices == [s.device.digest for s in segments] == digests * 2


def test_segment_csv_rejects_unknown_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(Exception):
        read_segment_csv(path)
