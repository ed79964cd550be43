"""Check stage outputs against the generator's planted truth.

    python3 bench/oracle.py RUN_DIR INPUT_DIR

Prints one JSON object mapping each checked stage to its list of failures
(empty when the stage's output is right). Standard library only, and run
as a child so the runner never holds the expected device set or hourly table.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
from datetime import datetime

from workloads import MODELS


def check_clean(run_dir: str, expect: dict) -> list[str]:
    """Criterion-1 equalities: every counter, and the kept device set."""
    failures = []
    with open(os.path.join(run_dir, "clean.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    for section in ("parse", "cleaning"):
        for key, want in expect[section].items():
            got = report.get(section, {}).get(key)
            if got != want:
                failures.append(f"clean.json {section}.{key} = {got!r}, planted {want!r}")
    with open(os.path.join(run_dir, "segments.csv"), encoding="utf-8", newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        col = header.index("device") if "device" in header else None
        kept = {row[col] for row in rows if row} if col is not None else set()
    if col is None:
        failures.append("segments.csv has no device column")
    elif kept != set(expect["devices"]):
        missing = len(set(expect["devices"]) - kept)
        failures.append(f"kept device set differs: {missing} planted missing, "
                        f"{len(kept - set(expect['devices']))} unplanted kept")
    return failures


def check_hourly(run_dir: str, expect: dict) -> list[str]:
    """hourly.csv must equal the planted hourly counts bit for bit."""
    with open(os.path.join(run_dir, "hourly.csv"), encoding="utf-8", newline="") as fh:
        rows = [row for row in csv.reader(fh) if row][1:]
    want = expect["hourly"]
    if len(rows) != len(want):
        return [f"hourly.csv has {len(rows)} rows, planted {len(want)}"]
    for i, (got, (stop, hour, count)) in enumerate(zip(rows, want)):
        try:
            same = (len(got) == 3 and got[0] == stop
                    and datetime.fromisoformat(got[1]) == datetime.fromisoformat(hour)
                    and float(got[2]) == count)
        except ValueError:
            same = False
        if not same:
            return [f"hourly.csv row {i + 1} is {got!r}, planted {[stop, hour, count]!r}"]
    return []


def check_eval(run_dir: str) -> list[str]:
    """eval.json ranks all five models by finite, ascending test MSE."""
    with open(os.path.join(run_dir, "eval.json"), encoding="utf-8") as fh:
        ranking = json.load(fh).get("ranking", [])
    names = sorted(entry.get("name") for entry in ranking)
    mses = [entry.get("mse") for entry in ranking]
    if names != sorted(MODELS):
        return [f"eval.json ranks {names}, expected {sorted(MODELS)}"]
    if not all(isinstance(m, float) and math.isfinite(m) for m in mses):
        return [f"eval.json has a non-finite MSE: {mses}"]
    if mses != sorted(mses):
        return ["eval.json ranking is not in ascending MSE order"]
    return []


def check_run(run_dir: str, input_dir: str, stages) -> dict[str, list[str]]:
    """Failures per checked stage; a missing or unreadable output is a failure."""
    with open(os.path.join(input_dir, "expect.json"), encoding="utf-8") as fh:
        expect = json.load(fh)
    checks = {
        "clean": lambda: check_clean(run_dir, expect),
        "aggregate": lambda: check_hourly(run_dir, expect),
        "evaluate": lambda: check_eval(run_dir),
    }
    out = {}
    for stage in stages:
        if stage in checks:
            try:
                out[stage] = checks[stage]()
            except (OSError, ValueError, KeyError, AttributeError) as exc:
                out[stage] = [f"unreadable output: {exc!r}"]
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    run_dir, input_dir, *stages = argv
    print(json.dumps(check_run(run_dir, input_dir, stages)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
