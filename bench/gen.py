"""Generate one workload's input and its oracle, in a child process.

    python3 bench/gen.py --workload default-30d --seed 11 --out DIR

Writes the frame file, ``weather.json``, ``expect.json`` (what every
checked stage output must equal) and ``synth.json`` (generator timings)
into DIR. The directory appears only once complete, so an interrupted run
never leaves a half-written input in the cache.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from dataclasses import replace
from datetime import datetime, timedelta

from busflux.frames import is_randomized, sorted_frames, write_frame_csv
from busflux.synth import default_scenario, generate
from busflux.weather import write_weather_json

from workloads import WORKLOADS

_EPOCH = datetime(1970, 1, 1)
_FMT = "%Y-%m-%d %H:%M:%S"


def hourly_from_dwells(dwells) -> list[list]:
    """Hourly counts from (stop, start, end) dwell intervals.

    The pipeline's documented semantics, by plain minute arithmetic: a
    dwell covers minutes floor(start/60)..floor(end/60), an hour is the
    mean of its 60 minute counts, and every stop seen is zero-filled over
    the hours between the first and last covered minute.
    """
    hits: dict[tuple[str, int], int] = {}
    for stop, start, end in dwells:
        first = int((start - _EPOCH).total_seconds()) // 60
        last = int((end - _EPOCH).total_seconds()) // 60
        for m in range(first, last + 1):
            hits[(stop, m)] = hits.get((stop, m), 0) + 1
    if not hits:
        return []
    per_hour: dict[tuple[str, int], int] = {}
    for (stop, m), n in hits.items():
        per_hour[(stop, m // 60)] = per_hour.get((stop, m // 60), 0) + n
    stops = sorted({stop for stop, _ in hits})
    lo = min(m for _, m in hits) // 60
    hi = max(m for _, m in hits) // 60
    return [
        [stop, (_EPOCH + timedelta(hours=h)).strftime(_FMT), per_hour.get((stop, h), 0) / 60.0]
        for h in range(lo, hi + 1)
        for stop in stops
    ]


def expectations(frames, truth, anonymized: bool) -> dict:
    """What clean and aggregate must report for this input.

    Raw input: the planted signal set survives and each drop counter equals
    its planted class total. Digest input cannot run the randomized filter,
    so randomized trips (valid dwells otherwise) are kept as riders too.
    """
    nf = truth.noise_frames
    dwells = [(d.stop, d.start, d.end) for d in truth.dwells]
    devices = {d.device.hex for d in truth.dwells}
    cleaning = {
        "input_frames": len(frames),
        "kept_frames": truth.signal_frames,
        "dropped_randomized": nf["randomized"],
        "dropped_single_stop": nf["single_stop"],
        "dropped_rssi": nf["out_of_rssi"],
        "dropped_short": nf["short_dwell"],
        "dropped_long": nf["long_dwell"],
        "randomized_filter_applied": True,
    }
    if anonymized:
        spans: dict[tuple[str, str], list[datetime]] = {}
        for f in frames:
            if is_randomized(f.mac):
                span = spans.setdefault((f.stop, f.device.hex), [f.at, f.at])
                span[0], span[1] = min(span[0], f.at), max(span[1], f.at)
        dwells += [(stop, lo, hi) for (stop, _), (lo, hi) in spans.items()]
        devices |= {dev for _, dev in spans}
        cleaning.update(
            kept_frames=truth.signal_frames + nf["randomized"],
            dropped_randomized=0,
            randomized_filter_applied=False,
        )
        hourly = hourly_from_dwells(dwells)
    else:
        hourly = [[h.stop, h.hour.strftime(_FMT), h.count] for h in truth.hourly]
    return {
        "parse": {"rows_ok": len(frames), "rows_bad": 0, "anonymized_input": anonymized},
        "cleaning": cleaning,
        "devices": sorted(devices),
        "hourly": hourly,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]

    partial = args.out + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    scenario = default_scenario(seed=args.seed, days=w.days)
    scenario = replace(scenario, demand=replace(scenario.demand, base_rate=w.base_rate))

    t0 = time.perf_counter()
    frames, weather, truth = generate(scenario)
    t_generate = time.perf_counter() - t0
    t0 = time.perf_counter()
    write_frame_csv(sorted_frames(frames), os.path.join(partial, w.frames_file),
                    anonymize_output=w.anonymized)
    t_write = time.perf_counter() - t0
    write_weather_json(weather, os.path.join(partial, "weather.json"))

    with open(os.path.join(partial, "expect.json"), "w", encoding="utf-8") as fh:
        json.dump(expectations(frames, truth, w.anonymized), fh)
    with open(os.path.join(partial, "synth.json"), "w", encoding="utf-8") as fh:
        json.dump({"synth.generate.s": t_generate, "synth.write_frame_csv.s": t_write,
                   "synth.frames": len(frames)}, fh)
    os.replace(partial, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
