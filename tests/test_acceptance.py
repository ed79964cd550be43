"""End-to-end verification gates.

Each test is one release criterion with its tolerance pinned; a summary
line per criterion is written straight to the real stderr so the verdicts
stay visible in captured test runs.
"""

from __future__ import annotations

import functools
import json
import statistics
from dataclasses import replace
from time import perf_counter

import conftest
import numpy as np

from busflux.aggregation import hourly_counts
from busflux.cleaning import clean
from busflux.cli import main as cli_main
from busflux.config import default_calendar
from busflux.features import (
    FeatureCodec,
    FeatureMatrix,
    SplitSpec,
    build_rows,
    split_rows,
)
from busflux.manifest import combined_digest_list, read_manifest
from busflux.models.boosting import gbt_fit
from busflux.models.config import CartParams, GbtParams, TrainConfig
from busflux.models.linear import lr_fit
from busflux.models.metrics import evaluate, improvement_percent
from busflux.models.mlp import ARCH_DNN, ARCH_WNN, loss_and_grads, mlp_init, mlp_train
from busflux.models.tree import cart_fit, node_sse
from busflux.synth import (
    NOISE_CLASSES,
    LinearScenarioConfig,
    default_scenario,
    generate,
    linear_scenario,
    noise_free_scenario,
    nonlinear_scenario,
)
from busflux.weather import hourly_lookup


def criterion(number: int, label: str):
    """Record one [PASS]/[FAIL] line per gate for the terminal summary."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                conftest.verification_lines.append(f"[FAIL] criterion {number}: {label}")
                raise
            conftest.verification_lines.append(f"[PASS] criterion {number}: {label}")

        return wrapper

    return deco


# ── 1: planted-noise recovery and cleaning throughput ────────────────────


@criterion(1, "default scenario cleans back to the planted truth; 1e6 frames under 60 s")
def test_criterion_1_default_scenario_recovery_and_throughput():
    cfg = default_scenario()
    assert len(cfg.stops) == 7
    assert cfg.days == 30
    assert cfg.noise.as_tuple() == (0.1,) * 5

    frames, _, truth = generate(cfg)
    assert len(frames) >= 100_000
    for name in NOISE_CLASSES:
        assert truth.noise_devices[name] > 0, f"noise class {name} never planted"

    segments, report = clean(frames)
    report.check()

    # the kept device population is exactly the planted signal population
    assert {s.device for s in segments} == {d.device for d in truth.dwells}

    # every counter matches the per-class planted frame totals exactly
    assert report.input_frames == len(frames)
    assert report.kept_frames == truth.signal_frames
    assert report.dropped_randomized == truth.noise_frames["randomized"]
    assert report.dropped_single_stop == truth.noise_frames["single_stop"]
    assert report.dropped_rssi == truth.noise_frames["out_of_rssi"]
    assert report.dropped_short == truth.noise_frames["short_dwell"]
    assert report.dropped_long == truth.noise_frames["long_dwell"]

    # throughput: clean at least one million frames in under a minute.
    # Shifting whole-month copies far apart keeps every per-day and
    # per-segment decision identical to the original copy. The copies
    # share the stop and device tables.
    copies = -(-1_000_000 // len(frames))
    shifts = np.arange(copies, dtype=np.int64) * 31 * 86400
    bulk = replace(
        frames,
        stop=np.tile(frames.stop, copies),
        t=(shifts[:, None] + frames.t).ravel(),
        device=np.tile(frames.device, copies),
        rssi=np.tile(frames.rssi, copies),
    )
    t0 = perf_counter()
    _, bulk_report = clean(bulk)
    elapsed = perf_counter() - t0
    bulk_report.check()
    assert len(bulk) >= 1_000_000
    assert elapsed < 60.0, f"cleaning {len(bulk)} frames took {elapsed:.1f}s"


# ── 2: noise-free counts are bit-identical to the planted truth ──────────


@criterion(2, "noise-free hourly counts equal planted truth bit for bit")
def test_criterion_2_noise_free_hourly_counts_match_truth_exactly():
    frames, _, truth = generate(noise_free_scenario())
    segments, report = clean(frames)
    assert report.kept_frames == len(frames)

    hourly = hourly_counts(segments)
    assert len(hourly) > 0
    assert len(hourly) == len(truth.hourly)
    for got, want in zip(hourly, truth.hourly):
        assert got.stop == want.stop
        assert got.hour == want.hour
        assert got.count == want.count  # float equality: same bits, no tolerance


# ── 3: backpropagation against central finite differences ────────────────


def _min_hidden_preactivation(model, X) -> float:
    a = X
    lo = np.inf
    for W, b in zip(model.weights[:-1], model.biases[:-1]):
        z = a @ W + b
        lo = min(lo, float(np.min(np.abs(z))))
        a = np.maximum(z, 0.0)
    return lo


def _max_relative_gradient_error(model, X, y, h: float) -> float:
    _, grad_w, grad_b = loss_and_grads(model, X, y)
    worst = 0.0
    for params, grads in ((model.weights, grad_w), (model.biases, grad_b)):
        for P, G in zip(params, grads):
            for idx in np.ndindex(P.shape):
                orig = P[idx]
                P[idx] = orig + h
                up = loss_and_grads(model, X, y)[0]
                P[idx] = orig - h
                down = loss_and_grads(model, X, y)[0]
                P[idx] = orig
                fd = (up - down) / (2.0 * h)
                an = float(G[idx])
                worst = max(worst, abs(fd - an) / max(1.0, abs(fd), abs(an)))
    return worst


@criterion(3, "analytic gradients match central differences (h=1e-5) on 100 networks")
def test_criterion_3_gradients_match_finite_differences():
    h = 1e-5
    rng = np.random.default_rng(42)
    checked = 0
    attempts = 0
    worst = 0.0
    while checked < 100:
        attempts += 1
        assert attempts < 1000, "could not sample enough kink-free configurations"
        depth = int(rng.integers(1, 4))
        widths = tuple(int(rng.integers(2, 7)) for _ in range(depth))
        d_in = int(rng.integers(3, 7))
        n = int(rng.integers(4, 9))
        model = mlp_init(ARCH_DNN, d_in, seed=int(rng.integers(0, 2**31)),
                         cfg=TrainConfig(dnn_hidden=widths))
        for b in model.biases:
            b += rng.normal(0.0, 0.5, b.shape)
        X = rng.standard_normal((n, d_in))
        y = rng.standard_normal(n)
        # Central differences are ill-defined within h of a ReLU kink, so
        # validate at generic points only — that is what the subgradient
        # convention is allowed to disagree on.
        if _min_hidden_preactivation(model, X) < 1e-3:
            continue
        worst = max(worst, _max_relative_gradient_error(model, X, y, h))
        checked += 1
    assert checked == 100
    assert worst < 1e-4, f"worst relative gradient error {worst:.3e}"


# ── 4: exact linear recovery ─────────────────────────────────────────────


@criterion(4, "linear regression recovers planted coefficients to 1e-6")
def test_criterion_4_linear_model_recovers_planted_coefficients():
    theta = tuple(float(v) for v in np.linspace(-4.0, 4.0, 10))
    m = linear_scenario(LinearScenarioConfig(theta=theta, n=200, bias=0.5, sigma=0.0))
    model = lr_fit(m)
    err = float(np.max(np.abs(model.theta - np.array(theta))))
    assert err < 1e-6, f"coefficient error {err:.3e}"
    assert abs(model.bias - 0.5) < 1e-6


# ── 5: neural models beat the linear baseline on multiplicative demand ───


@criterion(5, "both neural models beat linear regression on the multiplicative scenario")
def test_criterion_5_neural_models_beat_linear_baseline():
    t_start = perf_counter()
    frames, weather, _ = generate(nonlinear_scenario())
    segments, _ = clean(frames)
    hours = hourly_counts(segments)
    rows, _ = build_rows(hours, hourly_lookup(weather), default_calendar())
    assert len(rows) > 200

    dnn_wins = 0
    wnn_wins = 0
    dnn_improvements = []
    for seed in (1, 2, 3, 4, 5):
        train_rows, val_rows, test_rows = split_rows(rows, SplitSpec(seed=seed))
        codec = FeatureCodec.fit(train_rows)
        tr = codec.transform(train_rows)
        va = codec.transform(val_rows)
        te = codec.transform(test_rows)

        lr_mse = evaluate(lr_fit(tr), te).mse
        tcfg = TrainConfig(seed=seed)
        for arch in (ARCH_DNN, ARCH_WNN):
            init = mlp_init(arch, tr.rows.shape[1], tcfg.seed, cfg=tcfg)
            model, _ = mlp_train(init, tr, va, tcfg)
            mse = evaluate(model, te).mse
            if arch == ARCH_DNN:
                dnn_wins += mse < lr_mse
                dnn_improvements.append(improvement_percent(mse, lr_mse))
            else:
                wnn_wins += mse < lr_mse

    elapsed = perf_counter() - t_start
    assert dnn_wins >= 4, f"deep model won only {dnn_wins}/5 seeds"
    assert wnn_wins >= 4, f"wide model won only {wnn_wins}/5 seeds"
    median_gain = statistics.median(dnn_improvements)
    assert median_gain >= 15.0, f"median improvement {median_gain:.1f}% < 15%"
    assert elapsed < 600.0, f"comparison took {elapsed:.0f}s"


# ── 6: pinned improvement percentages ────────────────────────────────────


@criterion(6, "pinned relative-improvement values reproduce exactly")
def test_criterion_6_improvement_percent_pinned_values():
    assert improvement_percent(1.15, 1.77) == 35.0
    assert improvement_percent(1.15, 1.34) == 14.2


# ── 7: boosted-tree importance finds the planted driver ─────────────────


@criterion(7, "boosted trees rank the planted strong feature first on all 5 seeds")
def test_criterion_7_gbt_importance_finds_the_planted_feature():
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((200, 6))
        y = 4.0 * X[:, 2] + 0.4 * X[:, 0] + 0.1 * rng.standard_normal(200)
        model = gbt_fit(FeatureMatrix.from_arrays(X, y), GbtParams())
        assert int(np.argmax(model.importance)) == 2, f"seed {seed} ranked another feature first"
        assert abs(float(model.importance.sum()) - 1.0) <= 1e-9


# ── 8: identical runs leave identical fingerprints ───────────────────────


def _run_pipeline(root) -> list[tuple[str, str, str]]:
    cfg = root / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "scenario": {"days": 2, "seed": 9},
                "train": {
                    "epochs": 4,
                    "batch_size": 32,
                    "wnn_hidden": [16],
                    "gbt": {"n_trees": 5},
                },
            }
        )
    )
    order = [
        ["synth", "--config", cfg, "--out-frames", root / "frames.csv",
         "--out-weather", root / "weather.json", "--out-truth", root / "truth.json"],
        ["clean", "--config", cfg, "--frames", root / "frames.csv",
         "--out-segments", root / "segments.csv", "--out-report", root / "clean.json"],
        ["aggregate", "--segments", root / "segments.csv",
         "--out-minutes", root / "minutes.csv", "--out-hourly", root / "hourly.csv"],
        ["join", "--hourly", root / "hourly.csv", "--weather", root / "weather.json",
         "--out-joined", root / "joined.csv", "--out-report", root / "join.json"],
        ["featurize", "--joined", root / "joined.csv", "--out-train", root / "train.csv",
         "--out-val", root / "val.csv", "--out-test", root / "test.csv",
         "--out-meta", root / "meta.json"],
        ["train", "--config", cfg, "--model", "lr", "--train", root / "train.csv",
         "--meta", root / "meta.json", "--out-model", root / "lr.json"],
        ["train", "--config", cfg, "--model", "gbt", "--train", root / "train.csv",
         "--meta", root / "meta.json", "--out-model", root / "gbt.json"],
        ["train", "--config", cfg, "--model", "wnn", "--train", root / "train.csv",
         "--val", root / "val.csv", "--meta", root / "meta.json",
         "--out-model", root / "wnn.json", "--out-history", root / "history.csv"],
        ["evaluate", "--test", root / "test.csv", "--meta", root / "meta.json",
         "--model", root / "lr.json", "--model", root / "gbt.json",
         "--model", root / "wnn.json", "--out-report", root / "eval.json"],
        ["importance", "--model", root / "gbt.json", "--out", root / "importance.csv"],
        ["plot", "--counts", root / "hourly.csv", "--out", root / "counts.svg"],
    ]
    for argv in order:
        rc = cli_main([str(a) for a in argv])
        assert rc == 0, f"stage {argv[0]} exited {rc}"
    manifests = [read_manifest(p) for p in sorted(root.glob("*.manifest.json"))]
    assert len(manifests) == len(order)
    return combined_digest_list(manifests)


@criterion(8, "rerunning the full pipeline reproduces every output digest")
def test_criterion_8_pipeline_reruns_are_byte_identical(tmp_path):
    runs = []
    for name in ("run-a", "run-b"):
        root = tmp_path / name
        root.mkdir()
        runs.append(_run_pipeline(root))
    assert len(runs[0]) >= 15
    assert runs[0] == runs[1]


# ── 9: tree splits equal exhaustive search ───────────────────────────────


def _exhaustive_best_split(X, y):
    parent = node_sse(y)
    best = (-np.inf, None, None)
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = (lo + hi) / 2.0
            mask = X[:, f] <= t
            dec = parent - node_sse(y[mask]) - node_sse(y[~mask])
            if dec > best[0]:
                best = (dec, f, t)
    return best


@criterion(9, "tree split equals exhaustive search on the 20-row fixture")
def test_criterion_9_cart_split_matches_exhaustive_search():
    X = np.column_stack(
        [
            np.random.default_rng(3).normal(0.0, 1.0, 20),
            np.arange(20, dtype=np.float64),
            np.random.default_rng(4).uniform(-5.0, 5.0, 20),
        ]
    )
    y = np.where(X[:, 1] < 10, 0.0, 10.0)
    tree = cart_fit(FeatureMatrix.from_arrays(X, y), CartParams(max_depth=1, min_leaf=1))
    dec, feature, threshold = _exhaustive_best_split(X, y)
    assert tree.feature[0] == feature == 1
    assert tree.threshold[0] == threshold == 9.5
    assert tree.splits[0].decrease == dec == 500.0
