"""busflux benchmark: drive the CLI stage by stage and report its costs.

    python3 bench/run.py --workload default-30d --seed 11 --seconds 30 --trace 0

One closed loop of one: this small runner starts one ``busflux`` process
per subcommand, in sequence, the way a user runs the pipeline, and repeats
the workload's whole stage sequence until ``--seconds`` of pipeline time
is used. Inputs are generated from the seed in a child process, outside
the timed region, and cached per (workload, seed) under ``.bench_work/``.
The first repetition's outputs are checked against the generator's
planted truth, and every later repetition must reproduce its digests.

``--trace 0`` prints the end-to-end metrics (medians over repetitions).
``--trace 1`` adds one repetition under ``bench/shim.py``, which records
spans around each layer's public functions, and prints per-layer metrics.
The last line of standard output is the JSON result; a full record with
environment, per-stage figures and output digests goes to
``.bench_work/results/``.

The runner imports neither numpy nor busflux: on Linux a child's
``ru_maxrss`` starts from the RSS of the process that spawned it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import MODELS, STAGES, WORKLOADS, stage_argv, stage_outputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
LAUNCH = "import sys; from busflux.cli import main; sys.exit(main())"
# `busflux --version` runs this many times before each repetition and after
# the last, so setup_s samples the machine across the whole run.
SETUP_SAMPLES = 2
MAX_REPS = 50

END_TO_END = {
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Span metrics printed by a traced run: "<stage>.<module>.<function>.<s|calls>".
SPAN_METRICS = (
    "clean.frames.parse_frame_csv.s",
    *(f"clean.cleaning.{f}.s" for f in ("clean", "filter_randomized", "filter_single_stop",
                                        "filter_rssi", "segment", "filter_duration",
                                        "write_segment_csv")),
    "aggregate.cleaning.read_segment_csv.s",
    *(f"aggregate.aggregation.{f}.s" for f in ("minute_counts", "hourly_counts",
                                               "write_hourly_csv")),
    "join.aggregation.read_hourly_csv.s",
    "join.weather.parse_weather.s",
    "join.weather.hourly_lookup.s",
    "join.features.build_rows.s",
    "join.features.write_joined_csv.s",
    *(f"featurize.features.{f}.s" for f in ("read_joined_csv", "split_rows", "FeatureCodec.fit",
                                            "FeatureCodec.transform", "save_matrix")),
    *(f"{s}.features.load_matrix.s" for s in (*(f"train-{m}" for m in MODELS), "evaluate")),
    "train-lr.linear.lr_fit.s",
    *(f"train-{m}.mlp.{f}" for m in ("wnn", "dnn")
      for f in ("mlp_train.s", "loss_and_grads.s", "loss_and_grads.calls",
                "mlp_forward.s", "mlp_forward.calls")),
    "train-cart.tree.cart_fit.s",
    "train-gbt.tree.RegressionTree.predict.s",
    "train-gbt.tree.RegressionTree.predict.calls",
    "evaluate.tree.RegressionTree.predict.s",
    "train-gbt.boosting.gbt_fit.s",
    *(f"train-{m}.store.save_model.s" for m in MODELS),
    "evaluate.store.load_model.s",
    "evaluate.store.load_model.calls",
    "evaluate.metrics.compare.s",
    "plot.plots.line_chart.s",
    "plot.plots.write_series_csv.s",
)

# Counts recorded by the shim, summed over the stages of the traced run.
SHIM_COUNTS = {
    "frames.rows_ok": "count",
    "frames.rows_bad": "count",
    "frames.devices": "count",
    "cleaning.segments": "count",
    "cleaning.kept_ratio": "ratio",
    "aggregation.minute_rows": "count",
    "aggregation.hourly_rows": "count",
    "features.train_rows": "count",
    "features.columns": "count",
    "boosting.splits": "count",
    "store.gbt_bytes": "bytes",
    "manifest.bytes_hashed": "bytes",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit.

    A stage the workload does not run reports 0 for its metrics.
    """
    units = {}
    for stage in STAGES:
        units.update({f"{stage}.wall_s": "s", f"{stage}.cpu_s": "s", f"{stage}.rss_mb": "MB"})
    for name in SPAN_METRICS:
        units[name] = "s" if name.endswith(".s") else "count"
    units.update({
        "manifest.sha256_file.s": "s",
        "manifest.sha256_file.calls": "count",
        "manifest.write_manifest.s": "s",
        **SHIM_COUNTS,
        "synth.generate.s": "s",
        "synth.write_frame_csv.s": "s",
        "synth.frames": "count",
        "models_s": "s",
        **{f"test_mse.{m}": "count2" for m in MODELS},
        "trace.overhead_s": "s",
    })
    return units


@dataclass
class Invocation:
    stage: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(stage: str, argv: list[str], cwd: Path, stderr=None) -> Invocation:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(stage=stage, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, code=proc.returncode)


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            digest.update(chunk)
    return digest.hexdigest()


def ensure_inputs(name: str, seed: int) -> Path:
    """The workload's input for this seed, generated once in a child process."""
    path = WORK / "inputs" / f"{name}-seed{seed}"
    if not path.is_dir():
        path.parent.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(BENCH / "gen.py"), "--workload", name,
                "--seed", str(seed), "--out", str(path)]
        if subprocess.run(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL).returncode:
            raise RuntimeError(f"generating the {name} input for seed {seed} failed")
    return path


def run_pipeline(name: str, inputs: Path, run_dir: Path, spans_dir: Path | None = None):
    """One repetition of the workload's stage sequence.

    Returns (wall seconds, invocations, digests). Stops at the first stage
    that exits nonzero, since later stages would read its missing output.
    """
    w = WORKLOADS[name]
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    invocations, digests = [], {}
    with open(run_dir / "stderr.log", "wb") as log:
        t0 = time.perf_counter()
        for stage in w.stages:
            argv = stage_argv(stage, str(inputs / w.frames_file), str(inputs / "weather.json"))
            if spans_dir is None:
                cmd = [sys.executable, "-c", LAUNCH, *argv]
            else:
                cmd = [sys.executable, str(BENCH / "shim.py"), stage,
                       str(spans_dir / f"{stage}.json"), *argv]
            inv = spawn(stage, cmd, run_dir, stderr=log)
            invocations.append(inv)
            if inv.code != 0:
                break
        wall = time.perf_counter() - t0
    for inv in invocations:
        if inv.code == 0:
            argv = stage_argv(inv.stage, "", "")
            digests[inv.stage] = {f: sha256(run_dir / f) for f in stage_outputs(argv)}
    return wall, invocations, digests


def oracle_failures(run_dir: Path, inputs: Path, stages) -> dict[str, list[str]]:
    proc = subprocess.run([sys.executable, str(BENCH / "oracle.py"), str(run_dir), str(inputs),
                           *stages], cwd=ROOT, env=child_env(), capture_output=True, text=True)
    if proc.returncode != 0:
        return {stage: [f"oracle exited {proc.returncode}: {proc.stderr.strip()[-300:]}"]
                for stage in stages}
    return json.loads(proc.stdout)


def failed_stages(invocations, oracle: dict, digests: dict, reference: dict) -> set[str]:
    """Invocations that exited nonzero, failed an oracle check, or wrote
    outputs whose digests differ from the reference repetition's."""
    bad = {inv.stage for inv in invocations if inv.code != 0}
    bad |= {stage for stage, problems in oracle.items() if problems}
    bad |= {stage for stage, files in digests.items() if files != reference.get(stage)}
    return bad


def measure_setup() -> list[float]:
    """Wall times of `busflux --version`: interpreter, numpy and CLI imports."""
    argv = [sys.executable, "-c", LAUNCH, "--version"]
    return [spawn("setup", argv, ROOT).wall_s for _ in range(SETUP_SAMPLES)]


def rep_metrics(wall: float, invocations, frames: int) -> dict[str, float]:
    by = {inv.stage: inv for inv in invocations}
    return {
        "pipeline_s": wall,
        "pipeline_cpu_s": sum(inv.cpu_s for inv in invocations),
        "frames_per_s": frames / (by["clean"].wall_s + by["aggregate"].wall_s),
        "peak_rss_mb": max(inv.rss_mb for inv in invocations),
    }


def span_metrics(summaries: dict[str, dict]) -> dict[str, float]:
    """Per-layer values from the shim's per-stage span summaries."""
    out = {}
    for metric in SPAN_METRICS:
        stage, rest = metric.split(".", 1)
        span, field = rest.rsplit(".", 1)
        entry = summaries.get(stage, {}).get("summary", {}).get(span)
        out[metric] = entry[field] if entry else 0
    for field in ("s", "calls"):
        out[f"manifest.sha256_file.{field}"] = sum(
            s["summary"].get("manifest.sha256_file", {}).get(field, 0) for s in summaries.values())
    out["manifest.write_manifest.s"] = sum(
        s["summary"].get("manifest.write_manifest", {}).get("s", 0) for s in summaries.values())
    for name in SHIM_COUNTS:
        out[name] = sum(s["counts"].get(name, 0) for s in summaries.values())
    return out


def source_digest() -> str:
    """SHA-256 over the program's sources, to identify the code measured."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "envinfo.py")], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True)
    env = json.loads(proc.stdout) if proc.returncode == 0 else {"error": proc.stderr[-300:]}
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                         env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}) \
        if shutil.which("git") else None
    env["commit"] = git.stdout.strip() if git is not None and git.returncode == 0 else None
    env["source_sha256"] = source_digest()
    env["note"] = ("BLAS threads are not pinned. On the 2-CPU reference VM the host's "
                   "speed drifts by about 15% over tens of seconds, and time metrics spread "
                   "10-15% IQR/median across runs; compare medians of many runs.")
    return env


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    w = WORKLOADS[name]
    inputs = ensure_inputs(name, seed)
    synth = json.loads((inputs / "synth.json").read_text())
    frames = synth["synth.frames"]
    base = WORK / "runs" / f"{name}-seed{seed}"
    measure_setup()  # let bytecode caches fill; users pay that once

    reps, reference, oracle, setup = [], {}, {}, []
    attempted = failed = 0
    used = 0.0
    while len(reps) < MAX_REPS:
        first = not reps
        setup += measure_setup()
        wall, invocations, digests = run_pipeline(name, inputs, base / "untraced")
        attempted += len(invocations)
        if first:
            reference = digests
            oracle = oracle_failures(base / "untraced", inputs, [i.stage for i in invocations])
            test_mse = read_test_mse(base / "untraced")
        failed += len(failed_stages(invocations, oracle if first else {}, digests, reference))
        complete = len(invocations) == len(w.stages) and invocations[-1].code == 0
        if not complete and first:
            raise RuntimeError(f"the first repetition stopped at stage {invocations[-1].stage} "
                               f"(exit {invocations[-1].code}); see {base / 'untraced'}")
        if complete:
            reps.append((wall, invocations))
        used += wall
        if used >= seconds:
            break
    setup += measure_setup()

    per_rep = [rep_metrics(wall, invs, frames) for wall, invs in reps]
    metrics = {k: statistics.median(r[k] for r in per_rep) for k in per_rep[0]}
    metrics["setup_s"] = statistics.median(setup)
    stage_medians = {
        stage: {field: statistics.median(getattr(i, field) for _, invs in reps
                                         for i in invs if i.stage == stage)
                for field in ("wall_s", "cpu_s", "rss_mb")}
        for stage in w.stages
    }
    models = [s for s in w.stages if s.startswith("train-") or s in ("evaluate", "importance")]
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(),
        "frames": frames,
        "repetitions": len(reps),
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "oracle": oracle,
        "digests": reference,
        "end_to_end": metrics,
        "per_repetition": per_rep,
        "invocations": [[asdict(i) for i in invs] for _, invs in reps],
        "setup_s_samples": setup,
        "stages": stage_medians,
        "models_s": statistics.median(
            sum(i.wall_s for i in invs if i.stage in models) for _, invs in reps),
        "test_mse": test_mse,
        "synth": synth,
    }
    if trace:
        result["per_layer"] = traced_run(name, inputs, base, result)
    return result


def read_test_mse(run_dir: Path) -> dict[str, float]:
    try:
        with open(run_dir / "eval.json", encoding="utf-8") as fh:
            return {e["name"]: e["mse"] for e in json.load(fh)["ranking"]}
    except (OSError, ValueError, KeyError, TypeError):
        return {}


def traced_run(name: str, inputs: Path, base: Path, result: dict) -> dict[str, float]:
    """One repetition under the shim; its digests must equal the untraced ones."""
    spans_dir = base / "spans"
    shutil.rmtree(spans_dir, ignore_errors=True)
    spans_dir.mkdir(parents=True)
    wall, invocations, digests = run_pipeline(name, inputs, base / "traced", spans_dir)
    bad = failed_stages(invocations, {}, digests, result["digests"])
    result["attempted"] += len(invocations)
    result["failed"] += len(bad)
    result["error_rate"] = result["failed"] / result["attempted"]
    result["traced_digests_equal"] = not bad
    summaries = {}
    for inv in invocations:
        path = spans_dir / f"{inv.stage}.json"
        if path.is_file():
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            summaries[inv.stage] = {"summary": data["summary"], "counts": data["counts"]}
    result["span_summaries"] = summaries
    values = {}
    for stage in STAGES:
        med = result["stages"].get(stage, {"wall_s": 0, "cpu_s": 0, "rss_mb": 0})
        values.update({f"{stage}.{k}": med[k] for k in ("wall_s", "cpu_s", "rss_mb")})
    values.update(span_metrics(summaries))
    values.update({k: result["synth"][k] for k in ("synth.generate.s", "synth.write_frame_csv.s",
                                                   "synth.frames")})
    values["models_s"] = result["models_s"]
    values.update({f"test_mse.{m}": result["test_mse"].get(m, 0) for m in MODELS})
    values["trace.overhead_s"] = (sum(i.wall_s for i in invocations)
                                  - result["end_to_end"]["pipeline_s"])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="busflux CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="pipeline time to spend on repetitions (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "busflux" / "cli.py").is_file():
        print(f"error: no busflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"full record: {out_path.relative_to(ROOT)}", file=sys.stderr)

    if args.trace:
        units = per_layer_units()
        values = result["per_layer"]
    else:
        units = END_TO_END
        values = result["end_to_end"]
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
