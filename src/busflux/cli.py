"""Command-line pipeline: one subcommand per stage, batch only.

Each stage reads and writes only the files named on its command line,
honors ``--config`` (JSON) with flags taking precedence, and drops a run
manifest recording the resolved config, input/output digests, and wall
timings. Exit codes: 0 success, 1 domain error, 2 missing/undecodable
input. ``BUSFLUX_LOG`` sets log verbosity and never changes outputs.

Each stage runs on one BLAS thread: the models are small, and a second
OpenBLAS thread mostly spin-waits between the many small products of a fit,
costing CPU time and memory without saving wall time. Set
``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` or ``OMP_NUM_THREADS`` to
choose another count; outputs are byte-identical at any count. Only this
entry module sets the default; library callers keep their own BLAS policy.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from dataclasses import replace
from datetime import datetime
from pathlib import Path

# Must precede the first package import below, which loads numpy and with
# it the BLAS thread pool; a user's own thread setting still wins.
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import __version__
from .aggregation import (
    minute_counts,
    read_hourly_csv,
    segment_hourly_counts,
    write_hourly_csv,
    write_minute_csv,
)
from .cleaning import clean, read_segment_csv, write_segment_csv
from .config import PipelineConfig, config_to_dict, load_config
from .errors import BusfluxError, ConfigError, ParseError
from .features import (
    FeatureCodec,
    build_rows,
    load_matrix,
    read_joined_csv,
    read_matrix_meta,
    save_matrix,
    split_rows,
    write_joined_csv,
    write_matrix_meta,
)
from .frames import parse_frame_csv, sorted_frames, write_frame_csv
from .manifest import RunManifest, write_manifest
from .models import (
    ComparisonReport,
    GbtEnsemble,
    cart_fit,
    compare,
    gbt_fit,
    load_model,
    lr_fit,
    mlp_init,
    mlp_train,
    read_history_csv,
    save_model,
    write_history_csv,
)
from .plots import (
    Series,
    bar_chart,
    history_series,
    hourly_series,
    line_chart,
    report_bars,
    write_series_csv,
)
from .schema import to_dict, write_json, write_table
from .synth import (
    default_scenario,
    generate,
    noise_free_scenario,
    nonlinear_scenario,
    write_truth_json,
)
from .weather import hourly_lookup, parse_weather, write_weather_json

log = logging.getLogger("busflux.cli")

PRESETS = {
    "default": default_scenario,
    "noise-free": noise_free_scenario,
    "nonlinear": nonlinear_scenario,
}


def _setup_logging() -> None:
    level_name = os.environ.get("BUSFLUX_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _finish_manifest(
    args,
    stage: str,
    cfg: PipelineConfig,
    seed: int | None,
    inputs: list,
    outputs: list,
    timings: dict[str, float],
) -> None:
    manifest_path = args.manifest or f"{outputs[0]}.manifest.json"
    base = os.path.dirname(os.path.abspath(manifest_path)) or "."
    manifest = RunManifest(
        tool_version=__version__,
        stage=stage,
        seed=seed,
        config=config_to_dict(cfg),
        timings=timings,
    )
    for path in inputs:
        manifest.add_input(path, base=base)
    for path in outputs:
        manifest.add_output(path, base=base)
    write_manifest(manifest, manifest_path)
    log.info("%s: wrote manifest %s", stage, manifest_path)


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    scenario = PRESETS[args.preset]() if args.preset else cfg.scenario
    if args.seed is not None:
        scenario = replace(scenario, seed=args.seed)
    if args.days is not None:
        scenario = replace(scenario, days=args.days)
    cfg = replace(cfg, scenario=scenario)

    t0 = time.perf_counter()
    frames, weather, truth = generate(scenario)
    t_gen = time.perf_counter() - t0
    write_frame_csv(sorted_frames(frames), args.out_frames)
    write_weather_json(weather, args.out_weather)
    write_truth_json(truth, args.out_truth)
    log.info(
        "synth: %d frames, %d signal devices, %d weather hours",
        len(frames),
        truth.signal_devices,
        len(weather),
    )
    _finish_manifest(
        args,
        "synth",
        cfg,
        scenario.seed,
        [],
        [args.out_frames, args.out_weather, args.out_truth],
        {"generate": t_gen},
    )
    return 0


def cmd_clean(args) -> int:
    cfg = load_config(args.config)
    t0 = time.perf_counter()
    frames, parse_report = parse_frame_csv(args.frames)
    t_parse = time.perf_counter() - t0
    t0 = time.perf_counter()
    segments, report = clean(frames, cfg.cleaning)
    t_clean = time.perf_counter() - t0
    write_segment_csv(segments, args.out_segments)
    write_json(
        args.out_report,
        {
            "parse": {
                "rows_total": parse_report.rows_total,
                "rows_ok": parse_report.rows_ok,
                "rows_bad": parse_report.rows_bad,
                "anonymized_input": parse_report.anonymized_input,
                "issues_by_reason": parse_report.issues_by_reason(),
            },
            "cleaning": to_dict(report),
        },
    )
    log.info(
        "clean: %d frames in, %d segments, %d frames kept",
        report.input_frames,
        len(segments),
        report.kept_frames,
    )
    _finish_manifest(
        args,
        "clean",
        cfg,
        None,
        [args.frames],
        [args.out_segments, args.out_report],
        {"parse": t_parse, "clean": t_clean},
    )
    return 0


def cmd_aggregate(args) -> int:
    cfg = load_config(args.config)
    t0 = time.perf_counter()
    segments = read_segment_csv(args.segments)
    hours = segment_hourly_counts(segments, start=args.start, end=args.end)
    t_agg = time.perf_counter() - t0
    outputs = []
    if args.out_minutes:
        write_minute_csv(minute_counts(segments), args.out_minutes)
        outputs.append(args.out_minutes)
    write_hourly_csv(hours, args.out_hourly)
    outputs.append(args.out_hourly)
    log.info("aggregate: %d segments -> %d hourly rows", len(segments), len(hours))
    _finish_manifest(args, "aggregate", cfg, None, [args.segments], outputs, {"aggregate": t_agg})
    return 0


def cmd_join(args) -> int:
    cfg = load_config(args.config)
    t0 = time.perf_counter()
    hours = read_hourly_csv(args.hourly)
    observations, weather_report = parse_weather(args.weather)
    rows, join_report = build_rows(hours, hourly_lookup(observations), cfg.calendar)
    t_join = time.perf_counter() - t0
    write_joined_csv(rows, args.out_joined)
    outputs = [args.out_joined]
    if args.out_report:
        write_json(
            args.out_report,
            {
                "weather": {
                    "rows_total": weather_report.rows_total,
                    "rows_ok": weather_report.rows_ok,
                    "duplicate_dt": weather_report.duplicate_dt,
                    "sorted_input": weather_report.sorted_input,
                },
                "join": to_dict(join_report),
            },
        )
        outputs.append(args.out_report)
    log.info(
        "join: %d hourly rows -> %d feature rows (%d no weather, %d pre-semester)",
        join_report.rows_in,
        join_report.rows_out,
        join_report.dropped_no_weather,
        join_report.rejected_pre_semester,
    )
    _finish_manifest(args, "join", cfg, None, [args.hourly, args.weather], outputs, {"join": t_join})
    return 0


def cmd_featurize(args) -> int:
    cfg = load_config(args.config)
    split = cfg.split
    if args.seed is not None:
        split = replace(split, seed=args.seed)
    cfg = replace(cfg, split=split)
    t0 = time.perf_counter()
    rows = read_joined_csv(args.joined)
    train_rows, val_rows, test_rows = split_rows(rows, split)
    codec = FeatureCodec.fit(train_rows)
    matrices = {
        args.out_train: codec.transform(train_rows),
        args.out_val: codec.transform(val_rows),
        args.out_test: codec.transform(test_rows),
    }
    t_fit = time.perf_counter() - t0
    for path, matrix in matrices.items():
        save_matrix(matrix, path)
    write_matrix_meta(codec, split, args.out_meta)
    if codec.dropped_constant:
        log.info("featurize: dropped constant columns %s", codec.dropped_constant)
    log.info(
        "featurize: %d rows -> %d train / %d val / %d test, %d columns",
        len(rows),
        len(train_rows),
        len(val_rows),
        len(test_rows),
        len(codec.columns),
    )
    _finish_manifest(
        args,
        "featurize",
        cfg,
        split.seed,
        [args.joined],
        [args.out_train, args.out_val, args.out_test, args.out_meta],
        {"featurize": t_fit},
    )
    return 0


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    tcfg = cfg.train
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    if args.epochs is not None:
        tcfg = replace(tcfg, epochs=args.epochs)
    if args.batch_size is not None:
        tcfg = replace(tcfg, batch_size=args.batch_size)
    if args.learning_rate is not None:
        tcfg = replace(tcfg, learning_rate=args.learning_rate)
    cfg = replace(cfg, train=tcfg)

    codec, _ = read_matrix_meta(args.meta)
    train = load_matrix(args.train, codec)
    inputs = [args.train, args.meta]
    history = None

    t0 = time.perf_counter()
    if args.model == "lr":
        model = lr_fit(train)
    elif args.model in ("wnn", "dnn"):
        if not args.val:
            raise ConfigError(f"--val is required to train a {args.model} model")
        val = load_matrix(args.val, codec)
        inputs.append(args.val)
        init = mlp_init(args.model, train.rows.shape[1], tcfg.seed, cfg=tcfg)
        model, history = mlp_train(init, train, val, tcfg)
    elif args.model == "cart":
        model = cart_fit(train, tcfg.cart)
    else:
        model = gbt_fit(train, tcfg.gbt)
    t_train = time.perf_counter() - t0

    save_model(model, args.out_model, config=tcfg)
    outputs = [args.out_model]
    if history is not None and args.out_history:
        write_history_csv(history, args.out_history)
        outputs.append(args.out_history)
        log.info("train: best validation epoch %d", history.best_epoch + 1)
    log.info("train: %s fitted in %.2fs", args.model, t_train)
    _finish_manifest(args, "train", cfg, tcfg.seed, inputs, outputs, {"train": t_train})
    return 0


def cmd_evaluate(args) -> int:
    cfg = load_config(args.config)
    codec, _ = read_matrix_meta(args.meta)
    test = load_matrix(args.test, codec)
    models = {}
    for path in args.model:
        name = Path(path).stem
        if name in models:
            raise ConfigError(f"two model files share the name {name!r}; rename one")
        models[name] = load_model(path)
    t0 = time.perf_counter()
    report = compare(models, test)
    t_eval = time.perf_counter() - t0
    write_json(args.out_report, report.to_dict())
    for entry in report.ranking:
        log.info("evaluate: %s mse=%.6g mae=%.6g", entry["name"], entry["mse"], entry["mae"])
    _finish_manifest(
        args,
        "evaluate",
        cfg,
        None,
        [args.test, args.meta, *args.model],
        [args.out_report],
        {"evaluate": t_eval},
    )
    return 0


def cmd_importance(args) -> int:
    cfg = load_config(args.config)
    model = load_model(args.model)
    if not isinstance(model, GbtEnsemble):
        raise BusfluxError(
            "feature importance needs a gradient-boosted model file"
        )
    names = (
        list(model.columns)
        if model.columns is not None
        else [f"x{i}" for i in range(model.importance.size)]
    )
    ranked = sorted(zip(names, model.importance.tolist()), key=lambda kv: (-kv[1], kv[0]))
    write_table(args.out, ("feature", "importance"), ranked)
    _finish_manifest(args, "importance", cfg, None, [args.model], [args.out], {})
    return 0


def cmd_plot(args) -> int:
    cfg = load_config(args.config)
    out_csv = args.out_csv or str(Path(args.out).with_suffix(".csv"))
    try:
        if args.history:
            source = args.history
            series = history_series(read_history_csv(args.history))
            svg = line_chart(series, title="Training and validation MSE", x_label="epoch", y_label="mse")
        elif args.counts:
            source = args.counts
            series = hourly_series(read_hourly_csv(args.counts))
            svg = line_chart(series, title="Hourly waiting devices per stop", x_label="hours since start", y_label="devices")
        else:
            source = args.mse_report
            with open(args.mse_report, "r", encoding="utf-8") as fh:
                report = ComparisonReport.from_dict(json.load(fh))
            labels, values = report_bars(report)
            series = [
                Series(name="mse", xs=tuple(range(len(values))), ys=tuple(values))
            ]
            svg = bar_chart(labels, values, title="Model test MSE", y_label="mse")
    except (ParseError, KeyError, json.JSONDecodeError) as exc:
        # The file exists but does not hold the expected artifact.
        raise BusfluxError(f"unknown input schema in {source}: {exc}") from exc
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    write_series_csv(series, out_csv)
    _finish_manifest(args, "plot", cfg, None, [source], [args.out, out_csv], {})
    return 0


def utc_timestamp(text: str) -> datetime:
    """An ISO timestamp without a UTC offset: all pipeline times are naive UTC."""
    at = datetime.fromisoformat(text)
    if at.tzinfo is not None:
        raise argparse.ArgumentTypeError(f"{text!r} has a UTC offset; give it as naive UTC")
    return at


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--manifest", help="run manifest path (default: <first output>.manifest.json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busflux",
        description="Estimate hourly bus-stop passenger demand from Wi-Fi probe frames.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("synth", help="generate a seeded scenario with planted ground truth")
    p.add_argument("--preset", choices=sorted(PRESETS), help="scenario preset (overrides config)")
    p.add_argument("--seed", type=int, help="scenario seed override")
    p.add_argument("--days", type=int, help="scenario length override")
    p.add_argument("--out-frames", required=True)
    p.add_argument("--out-weather", required=True)
    p.add_argument("--out-truth", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("clean", help="filter frames and emit dwell segments")
    p.add_argument("--frames", required=True)
    p.add_argument("--out-segments", required=True)
    p.add_argument("--out-report", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_clean)

    p = subs.add_parser("aggregate", help="segments to minute and hourly counts")
    p.add_argument("--segments", required=True)
    p.add_argument("--out-minutes")
    p.add_argument("--out-hourly", required=True)
    p.add_argument("--start", type=utc_timestamp, help="zero-fill range start (UTC)")
    p.add_argument("--end", type=utc_timestamp, help="zero-fill range end (UTC)")
    _add_common(p)
    p.set_defaults(func=cmd_aggregate)

    p = subs.add_parser("join", help="join hourly counts with weather")
    p.add_argument("--hourly", required=True)
    p.add_argument("--weather", required=True)
    p.add_argument("--out-joined", required=True)
    p.add_argument("--out-report")
    _add_common(p)
    p.set_defaults(func=cmd_join)

    p = subs.add_parser("featurize", help="encode joined rows and split train/val/test")
    p.add_argument("--joined", required=True)
    p.add_argument("--seed", type=int, help="split seed override")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--out-meta", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_featurize)

    p = subs.add_parser("train", help="fit one model on encoded matrices")
    p.add_argument("--model", required=True, choices=("lr", "wnn", "dnn", "cart", "gbt"))
    p.add_argument("--train", required=True, help="training matrix CSV")
    p.add_argument("--val", help="validation matrix CSV (wnn/dnn)")
    p.add_argument("--meta", required=True, help="matrix metadata JSON")
    p.add_argument("--seed", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", help="per-epoch loss CSV (wnn/dnn)")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = subs.add_parser("evaluate", help="rank trained models on the test matrix")
    p.add_argument("--test", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--model", required=True, action="append", help="model JSON (repeatable)")
    p.add_argument("--out-report", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate)

    p = subs.add_parser("importance", help="ranked feature importance of a boosted model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_importance)

    p = subs.add_parser("plot", help="render a pipeline artifact as SVG + series CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--history", help="training history CSV")
    group.add_argument("--counts", help="hourly counts CSV")
    group.add_argument("--mse-report", help="evaluation report JSON")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--out-csv", help="series CSV path (default: SVG path with .csv)")
    _add_common(p)
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        log.error("%s", exc)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except BusfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
