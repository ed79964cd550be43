"""Command-line pipeline: one subcommand per stage, batch only.

Each stage reads and writes only the files named on its command line and
drops a run manifest recording the resolved config, input/output digests,
and wall timings. A stage's config is resolved once: the ``--config`` JSON
file, then ``synth --preset``, then the override flags, each later one
winning. An override flag is a config key (``--learning-rate`` sets
``train.learning_rate``) and goes through the same loader as the file, so
its value gets the same type and range checks and an error naming the key.
Exit codes: 0 success, 1 domain error, 2 missing/undecodable input.
``BUSFLUX_LOG`` sets log verbosity and never changes outputs.

A process imports only what every stage needs: errors, schema, config
(with the model config) and manifest. Each library function a handler
calls is a module-level name here, a stand-in from ``busflux.lazy`` until
the stage runs; the stage then imports the modules its handler calls and
binds their functions in place of the stand-ins (``STAGE_MODULES``), so
``--version`` runs no stage module and ``plot`` runs no ``cleaning``.
numpy is bound lazily too and runs only when a stage first touches an
array: ``--version``, ``aggregate``, ``join`` and ``plot`` never run it,
and start up that much faster and smaller. A stage refuses, before it
writes anything, a run whose output would overwrite one of its inputs or
another of its outputs.

Each stage runs on one BLAS thread: the models are small, and a second
OpenBLAS thread mostly spin-waits between the many small products of a fit,
costing CPU time and memory without saving wall time. Set
``OPENBLAS_NUM_THREADS``, ``MKL_NUM_THREADS`` or ``OMP_NUM_THREADS`` to
choose another count; outputs are byte-identical at any count. Only this
entry module sets the default; library callers keep their own BLAS policy.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime
from pathlib import Path

# Must precede numpy's first run, which starts the BLAS thread pool. The
# package imports below bind numpy without running it, and any program
# that ran it before importing this module keeps its own thread count; a
# user's own thread setting still wins.
os.environ.setdefault("OMP_NUM_THREADS", "1")

from . import __version__
from .config import PipelineConfig, load_config
from .errors import BusfluxError, ConfigError, ParseError
from .lazy import lazy_function
from .manifest import RunManifest, write_manifest
from .models.config import MODEL_ARCHS
from .schema import from_dict, load_json, to_dict, write_json, write_table

# The library functions the handlers call, by busflux module. Each is a
# module-level function here, where the bench's tracer finds it. Until a
# stage binds its modules (_bind), each name holds a stand-in that imports
# its module when called.
HANDLER_FUNCTIONS = {
    "aggregation": ("hourly_counts", "minute_counts", "read_hourly_csv", "write_hourly_csv",
                    "write_minute_csv"),
    "cleaning": ("clean", "read_segment_csv", "write_segment_csv"),
    "features": ("build_rows", "load_matrix", "read_joined_csv", "read_matrix_meta",
                 "save_matrix", "split_rows", "write_joined_csv", "write_matrix_meta"),
    "frames": ("parse_frame_csv", "sorted_frames", "write_frame_csv"),
    "models.boosting": ("gbt_fit",),
    "models.linear": ("lr_fit",),
    "models.metrics": ("compare",),
    "models.mlp": ("mlp_init", "mlp_train"),
    "models.store": ("load_model", "read_history_csv", "save_model", "write_history_csv"),
    "models.tree": ("cart_fit",),
    "plots": ("bar_chart", "history_series", "hourly_series", "line_chart", "report_bars",
              "write_series_csv"),
    "synth": ("default_scenario", "generate", "noise_free_scenario", "nonlinear_scenario",
              "write_truth_json"),
    "weather": ("hourly_lookup", "parse_weather", "write_weather_json"),
}
_STAND_INS = {name: lazy_function(f"{__package__}.{module}", name)
              for module, names in HANDLER_FUNCTIONS.items() for name in names}
globals().update(_STAND_INS)

# The modules whose functions each subcommand's handler calls. plot also
# binds the module that reads the input it is given.
STAGE_MODULES = {
    "synth": ("synth", "frames", "weather"),
    "clean": ("frames", "cleaning"),
    "aggregate": ("cleaning", "aggregation"),
    "join": ("aggregation", "weather", "features"),
    "featurize": ("features",),
    "train": ("features", "models.linear", "models.mlp", "models.tree", "models.boosting",
              "models.store"),
    "evaluate": ("features", "models.store", "models.metrics"),
    "importance": ("models.store",),
    "plot": ("plots",),
}
PLOT_READERS = {"history": "models.store", "counts": "aggregation",
                "mse_report": "models.metrics"}

log = logging.getLogger("busflux.cli")

PRESETS = {
    "default": default_scenario,
    "noise-free": noise_free_scenario,
    "nonlinear": nonlinear_scenario,
}

# The config section whose seed a stage's manifest records.
SEED_SECTIONS = {"synth": "scenario", "featurize": "split", "train": "train"}


def _setup_logging() -> None:
    level_name = os.environ.get("BUSFLUX_LOG", "WARNING").upper()
    level = getattr(logging, level_name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _keep_openssl_out() -> None:
    """Let the first ``np.random`` access load no OpenSSL ``libcrypto``.

    numpy.random imports ``secrets``, and through ``hmac`` OpenSSL's
    ``_hashlib``, only to seed from OS entropy; busflux always passes a
    seed, and ``libcrypto`` adds ≈3.3 MB of resident pages to the stage.
    A ``None`` entry marks a module as absent: ``hashlib`` and ``hmac`` take
    their built-in paths, and no seeded draw changes. Each caller marks it
    before numpy first runs, so this holds for numpy 1.x too, which imports
    numpy.random with numpy itself. ``setdefault`` leaves a ``_hashlib``
    that is already loaded (an interpreter without the built-in hashes)
    in place. Called only by the stages that draw random numbers: any extra
    module entry moves other stages' peaks by a heap-layout step.
    """
    sys.modules.setdefault("_hashlib", None)


@contextmanager
def _timed(timings: dict[str, float], key: str):
    """Record the wall seconds of the with-block as ``timings[key]``."""
    start = time.perf_counter()
    yield
    timings[key] = time.perf_counter() - start


def cmd_synth(args, cfg: PipelineConfig, timings: dict[str, float]):
    _keep_openssl_out()
    with _timed(timings, "generate"):
        frames, weather, truth = generate(cfg.scenario, cfg.cleaning)
    write_frame_csv(sorted_frames(frames), args.out_frames)
    write_weather_json(weather, args.out_weather)
    write_truth_json(truth, args.out_truth)
    log.info("synth: %d frames, %d signal devices, %d weather hours",
             len(frames), truth.signal_devices, len(weather))
    return [], [args.out_frames, args.out_weather, args.out_truth]


def cmd_clean(args, cfg: PipelineConfig, timings: dict[str, float]):
    with _timed(timings, "parse"):
        parsed = list(parse_frame_csv(args.frames))
    parse_report = parsed.pop()
    with _timed(timings, "clean"):
        # Handed over, not lent: once popped, no name here holds the parsed
        # frames, so clean() frees them as soon as it has taken the survivors.
        segments, report = clean(parsed.pop(), cfg.cleaning)
    write_segment_csv(segments, args.out_segments)
    parse = {k: getattr(parse_report, k)
             for k in ("rows_total", "rows_ok", "rows_bad", "anonymized_input")}
    parse["issues_by_reason"] = parse_report.issues_by_reason()
    write_json(args.out_report, {"parse": parse, "cleaning": to_dict(report)})
    log.info("clean: %d frames in, %d segments, %d frames kept",
             report.input_frames, len(segments), report.kept_frames)
    return [args.frames], [args.out_segments, args.out_report]


def cmd_aggregate(args, cfg: PipelineConfig, timings: dict[str, float]):
    if args.start and args.end and args.start > args.end:
        raise BusfluxError(f"--start {args.start} is later than --end {args.end}")
    with _timed(timings, "aggregate"):
        segments = read_segment_csv(args.segments)
        hours = hourly_counts(segments, start=args.start, end=args.end)
    if segments and not hours:
        # A one-sided range that lies beyond the data's span.
        first = min(s.start for s in segments).replace(minute=0, second=0)
        last = max(s.end for s in segments).replace(minute=0, second=0)
        raise BusfluxError(f"the range {args.start or first} to {args.end or last} holds no "
                           f"hour of the segments, which span {first} to {last}")
    outputs = []
    if args.out_minutes:
        write_minute_csv(minute_counts(segments), args.out_minutes)
        outputs.append(args.out_minutes)
    write_hourly_csv(hours, args.out_hourly)
    outputs.append(args.out_hourly)
    log.info("aggregate: %d segments -> %d hourly rows", len(segments), len(hours))
    return [args.segments], outputs


def cmd_join(args, cfg: PipelineConfig, timings: dict[str, float]):
    with _timed(timings, "join"):
        hours = read_hourly_csv(args.hourly)
        observations, weather_report = parse_weather(args.weather)
        rows, join_report = build_rows(hours, hourly_lookup(observations), cfg.calendar)
    write_joined_csv(rows, args.out_joined)
    outputs = [args.out_joined]
    if args.out_report:
        weather = {k: getattr(weather_report, k)
                   for k in ("rows_total", "rows_ok", "duplicate_dt", "sorted_input")}
        weather["rejected_by_reason"] = weather_report.rejected_by_reason()
        weather["absent_defaults"] = dict(weather_report.absent_defaults)
        write_json(args.out_report, {"weather": weather, "join": to_dict(join_report)})
        outputs.append(args.out_report)
    log.info("join: %d hourly rows -> %d feature rows (%d no weather, %d pre-semester)",
             join_report.rows_in, join_report.rows_out,
             join_report.dropped_no_weather, join_report.rejected_pre_semester)
    return [args.hourly, args.weather], outputs


def cmd_featurize(args, cfg: PipelineConfig, timings: dict[str, float]):
    from .features import FeatureCodec

    _keep_openssl_out()
    outputs = [args.out_train, args.out_val, args.out_test]
    with _timed(timings, "featurize"):
        # The joined table is freed once it is split, and each split once it
        # is encoded and written, so at most one encoded matrix is held.
        splits = list(split_rows(read_joined_csv(args.joined), cfg.split))
        sizes = [len(rows) for rows in splits]
        codec = FeatureCodec.fit(splits[0])
        for path in outputs:
            save_matrix(codec.transform(splits.pop(0)), path)
    write_matrix_meta(codec, cfg.split, args.out_meta)
    if codec.dropped_constant:
        log.info("featurize: dropped constant columns %s", codec.dropped_constant)
    log.info("featurize: %d rows -> %d train / %d val / %d test, %d columns",
             sum(sizes), *sizes, len(codec.columns))
    return [args.joined], [*outputs, args.out_meta]


def _load_rows(path, codec, why_empty: str = ""):
    """The matrix at ``path``; a matrix with no rows is a domain error."""
    matrix = load_matrix(path, codec)
    if matrix.n_rows == 0:
        raise BusfluxError(f"{path}: the matrix has no rows{why_empty}")
    return matrix


def cmd_train(args, cfg: PipelineConfig, timings: dict[str, float]):
    tcfg = cfg.train
    if args.model in ("wnn", "dnn"):
        # Before the matrices, whose load runs numpy.
        _keep_openssl_out()
    codec, _ = read_matrix_meta(args.meta)
    train = _load_rows(args.train, codec)
    inputs = [args.train, args.meta]
    history = None
    with _timed(timings, "train"):
        if args.model == "lr":
            model = lr_fit(train)
        elif args.model in ("wnn", "dnn"):
            if not args.val:
                raise ConfigError(f"--val is required to train a {args.model} model")
            val = _load_rows(args.val, codec, "; featurize writes an empty validation "
                             "matrix when split.val_fraction_of_train is 0")
            inputs.append(args.val)
            init = mlp_init(args.model, train.rows.shape[1], tcfg.seed, cfg=tcfg)
            model, history = mlp_train(init, train, val, tcfg)
        elif args.model == "cart":
            model = cart_fit(train, tcfg.cart)
        else:
            model = gbt_fit(train, tcfg.gbt)
    save_model(model, args.out_model, config=tcfg)
    outputs = [args.out_model]
    if history is not None and args.out_history:
        write_history_csv(history, args.out_history)
        outputs.append(args.out_history)
        log.info("train: best validation epoch %d", history.best_epoch + 1)
    log.info("train: %s fitted in %.2fs", args.model, timings["train"])
    return inputs, outputs


def cmd_evaluate(args, cfg: PipelineConfig, timings: dict[str, float]):
    codec, _ = read_matrix_meta(args.meta)
    test = _load_rows(args.test, codec)
    models = {}
    for path in args.model:
        name = Path(path).stem
        if name in models:
            raise ConfigError(f"two model files share the name {name!r}; rename one")
        models[name] = load_model(path)
    with _timed(timings, "evaluate"):
        report = compare(models, test)
    write_json(args.out_report, to_dict(report))
    for entry in report.ranking:
        log.info("evaluate: %s mse=%.6g mae=%.6g", entry.name, entry.mse, entry.mae)
    return [args.test, args.meta, *args.model], [args.out_report]


def cmd_importance(args, cfg: PipelineConfig, timings: dict[str, float]):
    from .models.boosting import GbtEnsemble

    model = load_model(args.model)
    if not isinstance(model, GbtEnsemble):
        raise BusfluxError("feature importance needs a gradient-boosted model file")
    names = model.columns
    if names is None:
        names = [f"x{i}" for i in range(model.importance.size)]
    ranked = sorted(zip(names, model.importance.tolist()), key=lambda kv: (-kv[1], kv[0]))
    write_table(args.out, ("feature", "importance"), ranked)
    return [args.model], [args.out]


def cmd_plot(args, cfg: PipelineConfig, timings: dict[str, float]):
    source = args.history or args.counts or args.mse_report
    read = read_history_csv if args.history else read_hourly_csv if args.counts else load_json
    # A file that exists but does not hold the expected artifact is a domain
    # error. The readers' errors name the file; the others get it here.
    try:
        artifact = read(source)
    except ParseError as exc:
        raise BusfluxError(f"unknown input schema: {exc}") from exc
    # So is one with nothing to draw; a report of the wrong form exits 2
    # naming the file and key, as in evaluate.
    try:
        if args.history:
            series = history_series(artifact)
            svg = line_chart(series, title="Training and validation MSE", x_label="epoch", y_label="mse")
        elif args.counts:
            series = hourly_series(artifact)
            svg = line_chart(series, title="Hourly waiting devices per stop", x_label="hours since start", y_label="devices")
        else:
            from .models.metrics import ComparisonReport
            from .plots import Series

            labels, values = report_bars(from_dict(ComparisonReport, artifact, source=source))
            series = [Series(name="mse", xs=tuple(range(len(values))), ys=tuple(values))]
            svg = bar_chart(labels, values, title="Model test MSE", y_label="mse")
    except ValueError as exc:
        raise BusfluxError(f"unknown input schema in {source}: {exc}") from exc
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(svg)
    write_series_csv(series, args.out_csv)
    return [source], [args.out, args.out_csv]


def _resolve_config(args) -> PipelineConfig:
    """The config file, then ``--preset``, then the override flags given."""
    cfg = load_config(args.config)
    if getattr(args, "preset", None):
        cfg = replace(cfg, scenario=PRESETS[args.preset]())
    flags: dict[str, dict] = {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, key = dest.split(".")
            flags.setdefault(section, {})[key] = value
    return from_dict(PipelineConfig, flags, cfg)


def _check_paths(args) -> None:
    """Refuse a run that would write over one of its inputs, or write two of
    its outputs to one file. ``args.reads`` and ``args.writes`` name the
    stage's path flags by dest; each flag holds a path, a list of them or
    nothing."""
    seen: dict[str, str] = {}
    for writing, dests in ((False, ("config", *args.reads)), (True, (*args.writes, "manifest"))):
        for dest in dests:
            paths = getattr(args, dest) or []
            for path in [paths] if isinstance(paths, str) else paths:
                flag = "--" + dest.replace("_", "-")
                key = os.path.realpath(path)
                if writing and key in seen:
                    raise BusfluxError(f"{flag} and {seen[key]} both name {path}; "
                                       "the stage would write over it")
                seen.setdefault(key, flag)


def _bind(modules) -> None:
    """Import ``modules`` and put each function of theirs in place of its
    stand-in here, so that the handler calls it directly. A name that no
    longer holds its stand-in (a tracer or a test rebound it) is left alone."""
    for module in modules:
        loaded = importlib.import_module(f"{__package__}.{module}")
        for name in HANDLER_FUNCTIONS[module]:
            if globals()[name] is _STAND_INS[name]:
                globals()[name] = getattr(loaded, name)


def _run_stage(args) -> None:
    """Resolve the config, run the stage's handler and write its manifest.

    A handler takes (args, cfg, timings), records its timings through
    ``_timed`` and returns the (inputs, outputs) the manifest lists; the
    first output names the manifest by default. Before it runs, the
    stage's paths are checked and its modules bound.
    """
    modules = STAGE_MODULES[args.command]
    if args.command == "plot":
        # The series CSV sits next to the SVG by default.
        args.out_csv = args.out_csv or str(Path(args.out).with_suffix(".csv"))
        modules += tuple(module for dest, module in PLOT_READERS.items() if getattr(args, dest))
    _check_paths(args)
    cfg = _resolve_config(args)
    _bind(modules)
    timings: dict[str, float] = {}
    inputs, outputs = args.func(args, cfg, timings)
    manifest_path = args.manifest or f"{outputs[0]}.manifest.json"
    base = os.path.dirname(os.path.abspath(manifest_path)) or "."
    section = SEED_SECTIONS.get(args.command)
    manifest = RunManifest(
        tool_version=__version__,
        stage=args.command,
        seed=getattr(cfg, section).seed if section else None,
        config=to_dict(cfg),
        timings=timings,
    )
    for path in inputs:
        manifest.add_input(path, base=base)
    for path in outputs:
        manifest.add_output(path, base=base)
    write_manifest(manifest, manifest_path)
    log.info("%s: wrote manifest %s", args.command, manifest_path)


def utc_timestamp(text: str) -> datetime:
    """An ISO timestamp without a UTC offset: all pipeline times are naive UTC."""
    at = datetime.fromisoformat(text)
    if at.tzinfo is not None:
        raise argparse.ArgumentTypeError(f"{text!r} has a UTC offset; give it as naive UTC")
    return at


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--manifest", help="run manifest path (default: <first output>.manifest.json)")


def _add_override(sub: argparse.ArgumentParser, flag: str, key: str, type, help=None) -> None:
    """A flag that overrides config key ``key`` (its argparse dest)."""
    metavar = flag.lstrip("-").upper().replace("-", "_")
    sub.add_argument(flag, dest=key, metavar=metavar, type=type, help=help)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="busflux",
        description="Estimate hourly bus-stop passenger demand from Wi-Fi probe frames.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = subs.add_parser("synth", help="generate a seeded scenario with planted ground truth")
    p.add_argument("--preset", choices=sorted(PRESETS), help="scenario preset (overrides config)")
    _add_override(p, "--seed", "scenario.seed", int, help="scenario seed override")
    _add_override(p, "--days", "scenario.days", int, help="scenario length override")
    p.add_argument("--out-frames", required=True)
    p.add_argument("--out-weather", required=True)
    p.add_argument("--out-truth", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_synth, reads=(), writes=("out_frames", "out_weather", "out_truth"))

    p = subs.add_parser("clean", help="filter frames and emit dwell segments")
    p.add_argument("--frames", required=True)
    p.add_argument("--out-segments", required=True)
    p.add_argument("--out-report", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_clean, reads=("frames",), writes=("out_segments", "out_report"))

    p = subs.add_parser("aggregate", help="segments to minute and hourly counts")
    p.add_argument("--segments", required=True)
    p.add_argument("--out-minutes")
    p.add_argument("--out-hourly", required=True)
    p.add_argument("--start", type=utc_timestamp, help="zero-fill range start (UTC)")
    p.add_argument("--end", type=utc_timestamp, help="zero-fill range end (UTC)")
    _add_common(p)
    p.set_defaults(func=cmd_aggregate, reads=("segments",), writes=("out_minutes", "out_hourly"))

    p = subs.add_parser("join", help="join hourly counts with weather")
    p.add_argument("--hourly", required=True)
    p.add_argument("--weather", required=True)
    p.add_argument("--out-joined", required=True)
    p.add_argument("--out-report")
    _add_common(p)
    p.set_defaults(func=cmd_join, reads=("hourly", "weather"), writes=("out_joined", "out_report"))

    p = subs.add_parser("featurize", help="encode joined rows and split train/val/test")
    p.add_argument("--joined", required=True)
    _add_override(p, "--seed", "split.seed", int, help="split seed override")
    p.add_argument("--out-train", required=True)
    p.add_argument("--out-val", required=True)
    p.add_argument("--out-test", required=True)
    p.add_argument("--out-meta", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_featurize, reads=("joined",),
                   writes=("out_train", "out_val", "out_test", "out_meta"))

    p = subs.add_parser("train", help="fit one model on encoded matrices")
    p.add_argument("--model", required=True, choices=MODEL_ARCHS)
    p.add_argument("--train", required=True, help="training matrix CSV")
    p.add_argument("--val", help="validation matrix CSV (wnn/dnn)")
    p.add_argument("--meta", required=True, help="matrix metadata JSON")
    _add_override(p, "--seed", "train.seed", int)
    _add_override(p, "--epochs", "train.epochs", int)
    _add_override(p, "--batch-size", "train.batch_size", int)
    _add_override(p, "--learning-rate", "train.learning_rate", float)
    p.add_argument("--out-model", required=True)
    p.add_argument("--out-history", help="per-epoch loss CSV (wnn/dnn)")
    _add_common(p)
    p.set_defaults(func=cmd_train, reads=("train", "val", "meta"),
                   writes=("out_model", "out_history"))

    p = subs.add_parser("evaluate", help="rank trained models on the test matrix")
    p.add_argument("--test", required=True)
    p.add_argument("--meta", required=True)
    p.add_argument("--model", required=True, action="append", help="model JSON (repeatable)")
    p.add_argument("--out-report", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_evaluate, reads=("test", "meta", "model"), writes=("out_report",))

    p = subs.add_parser("importance", help="ranked feature importance of a boosted model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_importance, reads=("model",), writes=("out",))

    p = subs.add_parser("plot", help="render a pipeline artifact as SVG + series CSV")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--history", help="training history CSV")
    group.add_argument("--counts", help="hourly counts CSV")
    group.add_argument("--mse-report", help="evaluation report JSON")
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--out-csv", help="series CSV path (default: SVG path with .csv)")
    _add_common(p)
    p.set_defaults(func=cmd_plot, reads=("history", "counts", "mse_report"),
                   writes=("out", "out_csv"))

    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help(sys.stderr)
        return 2
    try:
        _run_stage(args)
        return 0
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BusfluxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
