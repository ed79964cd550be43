"""Synthetic scenarios: planted truth must survive the pipeline exactly."""

from __future__ import annotations

import tracemalloc
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from busflux.aggregation import hourly_counts
from busflux.cleaning import clean
from busflux.errors import ConfigError
from busflux.frames import is_randomized
from busflux.models.linear import lr_fit
from busflux.schema import epoch_seconds
from busflux.synth import (
    NOISE_CLASSES,
    DemandModel,
    LinearScenarioConfig,
    NoiseMix,
    ScenarioConfig,
    default_scenario,
    generate,
    linear_scenario,
    noise_free_scenario,
    nonlinear_scenario,
    _truth_hourly,
    read_truth_json,
    write_truth_json,
)


def tiny(days=3, **kw):
    """Small but realistic scenario for fast tests."""
    cfg = noise_free_scenario(seed=11, days=days)
    return replace(cfg, **kw) if kw else cfg


# ── noise-free recovery: the planted truth is the pipeline's fixed point ──


def test_noise_free_cleaning_recovers_planted_dwells_exactly():
    frames, _, truth = generate(tiny())
    segments, report = clean(frames)
    report.check()
    assert report.kept_frames == len(frames)
    got = {(s.stop, s.device, s.start, s.end) for s in segments}
    want = {(d.stop, d.device, d.start, d.end) for d in truth.dwells}
    assert got == want


def test_noise_free_hourly_counts_match_planted_truth_bit_for_bit():
    frames, _, truth = generate(tiny())
    segments, _ = clean(frames)
    hourly = hourly_counts(segments)
    assert [(h.stop, h.hour, h.count) for h in hourly] == [
        (h.stop, h.hour, h.count) for h in truth.hourly
    ]


def test_truth_accounting_matches_emitted_frames():
    frames, _, truth = generate(tiny(noise=NoiseMix(randomized=0.2, short_dwell=0.2)))
    assert truth.signal_frames + sum(truth.noise_frames.values()) == len(frames)
    assert truth.signal_devices == len({d.device for d in truth.dwells})


# ── each noise class is dropped by exactly one stage ─────────────────────


def one_class(name, fraction=0.3):
    return tiny(days=2, noise=NoiseMix(**{name: fraction}))


COUNTER_OF = {
    "randomized": "dropped_randomized",
    "single_stop": "dropped_single_stop",
    "out_of_rssi": "dropped_rssi",
    "short_dwell": "dropped_short",
    "long_dwell": "dropped_long",
}


@pytest.mark.parametrize("name", NOISE_CLASSES)
def test_noise_class_lands_in_its_own_counter(name):
    frames, _, truth = generate(one_class(name))
    assert truth.noise_devices[name] > 0, "scenario too small to plant the class"
    _, report = clean(frames)
    report.check()
    assert getattr(report, COUNTER_OF[name]) == truth.noise_frames[name]
    assert report.kept_frames == truth.signal_frames
    for other, counter in COUNTER_OF.items():
        if other != name:
            assert getattr(report, counter) == 0


def test_generate_holds_nothing_per_device_beyond_what_it_returns():
    # Was a dict keyed by each device's MAC text, ≈135 traced bytes per
    # device until build(), though every trip draws a new device and no
    # lookup ever found one. Short dwells keep the frame arrays small
    # against the device count, and plant no truth to aggregate.
    cfg = tiny(days=4, noise=NoiseMix(short_dwell=1.0))
    generate(cfg)
    tracemalloc.start()
    try:
        frames, weather, truth = generate(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(frames.macs) > 500
    assert peak - kept < 30_000


def test_truth_hourly_holds_nothing_per_minute():
    # Was a dict entry per (stop, minute) of every dwell before the hour
    # sums: 1.84 MB traced beyond the result here, and 20 MB at 60 days.
    _, _, truth = generate(tiny(days=4))
    tracemalloc.start()
    try:
        hourly = _truth_hourly(truth.dwells)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(truth.dwells) > 1000
    assert peak - kept < 200_000

    # The per-minute count it replaced, as the reference.
    minutes: dict[tuple[str, int], int] = {}
    for d in truth.dwells:
        for m in range(epoch_seconds(d.start) // 60, epoch_seconds(d.end) // 60 + 1):
            minutes[d.stop, m] = minutes.get((d.stop, m), 0) + 1
    hours: dict[tuple[str, int], int] = {}
    for (stop, m), n in minutes.items():
        hours[stop, m // 60] = hours.get((stop, m // 60), 0) + n
    assert {(h.stop, epoch_seconds(h.hour) // 3600): h.count for h in hourly if h.count} == {
        key: n / 60.0 for key, n in hours.items()}


def test_all_randomized_population_cleans_to_nothing():
    frames, _, truth = generate(tiny(days=1, noise=NoiseMix(randomized=1.0)))
    assert frames, "empty scenario"
    assert all(is_randomized(f.mac) for f in frames)
    segments, report = clean(frames)
    assert list(segments) == []
    assert report.dropped_randomized == len(frames)
    assert truth.signal_frames == 0


def test_default_scenario_plants_every_noise_class():
    frames, weather, truth = generate(replace(default_scenario(), days=2))
    assert truth.signal_frames + sum(truth.noise_frames.values()) == len(frames)
    for name in NOISE_CLASSES:
        assert truth.noise_devices[name] > 0
    assert len(weather) == 2 * 24


# ── determinism and per-day substreams ───────────────────────────────────


def test_generation_is_deterministic():
    a = generate(tiny(days=2, noise=NoiseMix(randomized=0.1)))
    b = generate(tiny(days=2, noise=NoiseMix(randomized=0.1)))
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2].dwells == b[2].dwells


def test_shorter_run_is_a_prefix_of_a_longer_one():
    short_frames, short_weather, _ = generate(tiny(days=3))
    long_frames, long_weather, _ = generate(tiny(days=6))
    assert list(long_frames)[: len(short_frames)] == list(short_frames)
    assert long_weather[: len(short_weather)] == short_weather


def test_seed_changes_the_population():
    a, _, _ = generate(tiny(days=1))
    b, _, _ = generate(replace(tiny(days=1), seed=12))
    assert a != b


def test_demand_rate_scales_device_totals():
    base = tiny(days=2)
    _, _, t1 = generate(base)
    _, _, t2 = generate(replace(base, demand=DemandModel(base_rate=2 * base.demand.base_rate)))
    ratio = t2.signal_devices / t1.signal_devices
    assert 1.8 < ratio < 2.2


# ── scenario validation ──────────────────────────────────────────────────


def test_scenario_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(days=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(seed=-1)
    with pytest.raises(ConfigError):
        ScenarioConfig(stops=("only-one",))
    with pytest.raises(ConfigError):
        ScenarioConfig(stops=("a", "a"))
    with pytest.raises(ConfigError):
        NoiseMix(randomized=1.1)
    with pytest.raises(ConfigError):
        NoiseMix(randomized=0.6, short_dwell=0.6)
    with pytest.raises(ConfigError):
        ScenarioConfig(demand=DemandModel(stop_weights=(1.0, 2.0)))


def test_nonlinear_scenario_still_recovers_cleanly():
    frames, _, truth = generate(replace(nonlinear_scenario(), days=2))
    segments, report = clean(frames)
    report.check()
    assert report.kept_frames == len(frames)
    assert len(segments) == len(truth.dwells)


# ── the linear oracle dataset ────────────────────────────────────────────


def test_linear_scenario_target_is_exactly_linear():
    theta = (1.5, -2.0, 0.0, 3.25)
    m = linear_scenario(LinearScenarioConfig(theta=theta, n=50, bias=0.75))
    assert np.array_equal(m.target, m.rows @ np.array(theta) + 0.75)


def test_linear_scenario_coefficients_are_recoverable():
    theta = tuple(float(v) for v in np.linspace(-3, 3, 10))
    m = linear_scenario(LinearScenarioConfig(theta=theta, n=200))
    model = lr_fit(m)
    assert np.max(np.abs(model.theta - np.array(theta))) < 1e-9


def test_linear_scenario_noise_is_seeded():
    cfg = LinearScenarioConfig(theta=(1.0, 2.0), n=30, sigma=0.5)
    assert np.array_equal(linear_scenario(cfg).target, linear_scenario(cfg).target)
    assert not np.array_equal(
        linear_scenario(cfg).target, linear_scenario(replace(cfg, seed=6)).target
    )


def test_linear_scenario_validation():
    with pytest.raises(ConfigError):
        LinearScenarioConfig(theta=(1.0, 2.0), n=2)
    with pytest.raises(ConfigError):
        LinearScenarioConfig(theta=(1.0,), sigma=-0.1)


# ── ground-truth serialization ───────────────────────────────────────────


def test_truth_json_round_trip(tmp_path):
    _, _, truth = generate(tiny(days=2, noise=NoiseMix(randomized=0.15)))
    dest = tmp_path / "truth.json"
    write_truth_json(truth, dest)
    back = read_truth_json(dest)
    assert back.waiting == truth.waiting
    assert back.dwells == truth.dwells
    assert [(h.stop, h.hour, h.count) for h in back.hourly] == [
        (h.stop, h.hour, h.count) for h in truth.hourly
    ]
    assert back.signal_devices == truth.signal_devices
    assert back.signal_frames == truth.signal_frames
    assert back.noise_devices == truth.noise_devices
    assert back.noise_frames == truth.noise_frames
    assert back.coefficients == truth.coefficients


def test_truth_json_is_deterministic(tmp_path):
    _, _, truth = generate(tiny(days=1))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_truth_json(truth, a)
    write_truth_json(truth, b)
    assert a.read_bytes() == b.read_bytes()


def test_waiting_sets_match_dwell_records():
    _, _, truth = generate(tiny(days=2))
    rebuilt = {}
    for d in truth.dwells:
        rebuilt.setdefault((d.stop, d.start.date()), set()).add(d.device)
    assert rebuilt == truth.waiting
