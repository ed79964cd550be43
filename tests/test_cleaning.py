"""Cleaning pipeline: filter semantics, stage attribution, segmentation."""

from __future__ import annotations

import json
from dataclasses import replace
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from busflux.cleaning import (
    WINDOW_WHOLE_DATASET,
    CleaningConfig,
    Segment,
    clean,
    filter_duration,
    filter_randomized,
    filter_rssi,
    filter_single_stop,
    kept_frames,
    read_segment_csv,
    segment,
    write_segment_csv,
)
from busflux.errors import ConfigError
from busflux.frames import parse_frame_csv, write_frame_csv
from busflux.schema import from_dict, to_dict
from conftest import T0, burst, frame

CFG = CleaningConfig()


def two_stop_day(mac_text: str = "00:B8:00:00:00:01", duration_s: int = 300):
    """A device that dwells at two stops on the same day — the signal shape
    that survives every filter."""
    return burst("stop-01", mac_text, T0, duration_s) + burst(
        "stop-02", mac_text, T0 + timedelta(hours=1), duration_s
    )


# ── Individual filters ───────────────────────────────────────────────────────


def test_rssi_gate_is_inclusive_at_both_ends():
    frames = [frame(rssi=r) for r in (-81, -80, -79, -31, -30, -29, 0)]
    kept = filter_rssi(frames, CFG)
    assert [f.rssi for f in kept] == [-80, -79, -31, -30]


def test_randomized_filter_drops_local_and_group_bits():
    frames = [
        frame(mac_text="00:B8:00:00:00:01"),
        frame(mac_text="02:00:00:00:00:02"),  # locally administered
        frame(mac_text="01:00:00:00:00:03"),  # group
        frame(mac_text="03:00:00:00:00:04"),  # both bits
    ]
    kept, applied = filter_randomized(frames)
    assert applied
    assert [f.mac.canonical()[:2] for f in kept] == ["00"]


def test_randomized_filter_passes_through_digest_only_input(tmp_path):
    path = tmp_path / "anon.csv"
    write_frame_csv([frame(mac_text="02:00:00:00:00:01")], path, anonymize_output=True)
    anon, _ = parse_frame_csv(path)
    kept, applied = filter_randomized(anon)
    assert not applied
    assert kept == anon  # bits are unrecoverable from the digest


def test_single_stop_filter_needs_two_stops_within_a_day():
    same_day = two_stop_day()
    assert filter_single_stop(same_day, CFG) == same_day

    one_stop = burst("stop-01", "00:B8:00:00:00:09", T0, 300)
    assert filter_single_stop(one_stop, CFG) == []


def test_single_stop_window_split_across_days():
    # Two stops, but on different calendar days: dropped per-day, kept
    # under the whole-dataset window.
    frames = burst("stop-01", "00:B8:00:00:00:01", T0, 300) + burst(
        "stop-02", "00:B8:00:00:00:01", T0 + timedelta(days=1), 300
    )
    assert filter_single_stop(frames, CFG) == []
    whole = CleaningConfig(multi_stop_window=WINDOW_WHOLE_DATASET)
    assert filter_single_stop(frames, whole) == frames


def test_duration_filter_is_inclusive_at_both_ends():
    stamps = {
        "at_min": 120,
        "below": 119,
        "at_max": 1800,
        "above": 1801,
    }
    segs = [
        Segment("s", frame().device, T0, T0 + timedelta(seconds=v), 2, -60.0)
        for v in stamps.values()
    ]
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
    segs = segment(frames, CFG)
    assert len(segs) == 2
    assert segs[0].frame_count == 2 and segs[1].frame_count == 1
    assert segs[0].end == T0 + timedelta(seconds=300)


def test_segment_is_per_stop_and_per_device():
    frames = [
        frame(stop="stop-01", mac_text="00:B8:00:00:00:01"),
        frame(stop="stop-02", mac_text="00:B8:00:00:00:01"),
        frame(stop="stop-01", mac_text="00:B8:00:00:00:02"),
    ]
    assert len(segment(frames, CFG)) == 3


def test_segment_output_is_input_order_independent():
    frames = two_stop_day()
    assert segment(frames, CFG) == segment(list(reversed(frames)), CFG)


def test_segment_stats():
    frames = [
        frame(at=T0, rssi=-50),
        frame(at=T0 + timedelta(seconds=60), rssi=-70),
    ]
    (s,) = segment(frames, CFG)
    assert s.frame_count == 2
    assert s.mean_rssi == -60.0
    assert s.duration == timedelta(seconds=60)


# ── Full pipeline ────────────────────────────────────────────────────────────


def test_clean_keeps_the_signal_shape():
    segments, report = clean(two_stop_day())
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
    segments, report = clean(frames)

    assert report.dropped_randomized == len(randomized)
    assert report.dropped_single_stop == len(parked)
    assert report.dropped_rssi == len(out_of_band)
    assert report.dropped_short == len(passerby)
    assert report.kept_frames == len(signal)
    assert {s.device for s in segments} == {signal[0].device}


def test_clean_is_idempotent_on_its_own_output():
    frames = two_stop_day() + burst("stop-01", "02:00:00:00:00:11", T0, 300)
    segments, _ = clean(frames)
    survivors = kept_frames(frames, segments)
    again, report = clean(survivors)
    assert again == segments
    assert report.kept_frames == report.input_frames


def test_clean_empty_input():
    segments, report = clean([])
    assert segments == []
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
    segments, report = clean(frames)
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
    assert clean(shuffled) == clean(frames)


@settings(max_examples=50, deadline=None)
@given(BURSTS, st.integers(min_value=-400, max_value=400))
def test_clean_commutes_with_whole_day_time_shifts(bursts, days):
    shift = timedelta(days=days)
    frames = frames_of(bursts)
    segments, report = clean(frames)
    moved, moved_report = clean([replace(f, at=f.at + shift) for f in frames])
    assert moved == [replace(s, start=s.start + shift, end=s.end + shift) for s in segments]
    assert moved_report == report


@settings(max_examples=50, deadline=None)
@given(BURSTS, st.lists(st.text(min_size=1), min_size=3, max_size=3, unique=True))
def test_clean_commutes_with_order_preserving_stop_renaming(bursts, names):
    rename = dict(zip(STOPS, sorted(names)))
    frames = frames_of(bursts)
    segments, report = clean(frames)
    renamed, renamed_report = clean([replace(f, stop=rename[f.stop]) for f in frames])
    assert renamed == [replace(s, stop=rename[s.stop]) for s in segments]
    assert renamed_report == report


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
    _, report = clean(two_stop_day())
    back = from_dict(type(report), json.loads(json.dumps(to_dict(report))), type(report)())
    assert back == report


def test_segment_csv_round_trip(tmp_path):
    segments, _ = clean(two_stop_day())
    path = tmp_path / "segments.csv"
    write_segment_csv(segments, path)
    assert read_segment_csv(path) == segments


def test_segment_csv_rejects_unknown_header(tmp_path):
    path = tmp_path / "other.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(Exception):
        read_segment_csv(path)
