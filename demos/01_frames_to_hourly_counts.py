"""
From raw probe frames to hourly waiting counts
==============================================

Walks the first half of the pipeline on a small synthetic deployment:
generate probe frames with planted ground truth, clean out the noise,
aggregate dwell segments into per-stop hourly counts, and check the
result against the planted truth.
"""

from dataclasses import replace
from pathlib import Path

from busflux.cleaning import clean
from busflux.aggregation import hourly_counts
from busflux.plots import hourly_series, line_chart
from busflux.synth import default_scenario, generate

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# A week of the standard scenario: 7 stops, every noise class at 10%.
scenario = replace(default_scenario(seed=11), days=7)
frames, weather, truth = generate(scenario)
print(f"generated {len(frames)} frames at {len(scenario.stops)} stops "
      f"over {scenario.days} days")
print(f"planted {truth.signal_devices} real passengers and "
      f"{sum(truth.noise_devices.values())} noise devices")

# Clean: randomized MACs -> single-stop devices -> RSSI gate -> dwell
# segmentation -> duration filter. Every frame lands in exactly one counter.
segments, report = clean(frames)
report.check()
print("\ncleaning accounting")
print(f"  input frames        {report.input_frames:>7}")
print(f"  randomized MAC      {report.dropped_randomized:>7}")
print(f"  single-stop device  {report.dropped_single_stop:>7}")
print(f"  RSSI out of range   {report.dropped_rssi:>7}")
print(f"  dwell too short     {report.dropped_short:>7}")
print(f"  dwell too long      {report.dropped_long:>7}")
print(f"  kept                {report.kept_frames:>7}")

# Cleaning should recover exactly the planted passengers.
kept_devices = {s.device for s in segments}
planted_devices = {d.device for d in truth.dwells}
print(f"\nrecovered devices == planted devices: {kept_devices == planted_devices}")

# Aggregate: the hourly mean of minute-level distinct-device counts,
# zero-filled over the full observed range.
hours = hourly_counts(segments)
print(f"{len(segments)} segments -> {len(hours)} hourly rows")

busiest = max(hours, key=lambda h: h.count)
print(f"busiest hour: {busiest.stop} at {busiest.hour:%Y-%m-%d %H:%M} "
      f"with {busiest.count:.2f} waiting devices on average")

# One line per stop across the whole week.
svg = line_chart(
    hourly_series(hours),
    title="Hourly waiting devices per stop",
    x_label="hours since start",
    y_label="devices",
)
dest = OUT / "hourly_counts.svg"
dest.write_text(svg)
print(f"wrote {dest}")
