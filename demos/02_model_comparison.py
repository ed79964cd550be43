"""
Comparing demand models on a multiplicative scenario
====================================================

Runs the full pipeline in memory on a scenario whose demand has strong
multiplicative structure (rush-hour peaks scaled per stop, suppressed by
rain and cold), then fits every model family on the same split and ranks
them by test MSE. The linear baseline can only add effects together, so
the networks should win clearly here.
"""

from pathlib import Path

from busflux.aggregation import hourly_counts
from busflux.cleaning import clean
from busflux.config import default_calendar
from busflux.features import FeatureCodec, SplitSpec, build_rows, split_rows
from busflux.models.boosting import gbt_fit
from busflux.models.config import TrainConfig
from busflux.models.linear import lr_fit
from busflux.models.metrics import compare
from busflux.models.mlp import ARCH_DNN, ARCH_WNN, mlp_init, mlp_train
from busflux.models.tree import cart_fit
from busflux.plots import bar_chart, history_series, line_chart, report_bars
from busflux.synth import generate, nonlinear_scenario
from busflux.weather import hourly_lookup

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# Pipeline front half: frames -> segments -> hourly counts -> joined rows.
frames, weather, _ = generate(nonlinear_scenario(seed=11))
segments, _ = clean(frames)
hours = hourly_counts(segments)
rows, join_report = build_rows(hours, hourly_lookup(weather), default_calendar())
print(f"{len(frames)} frames -> {len(hours)} hourly rows -> {len(rows)} feature rows")

# Encode once: z-scored numerics plus one-hot calendar/weather groups,
# fitted on the training partition only.
train_rows, val_rows, test_rows = split_rows(rows, SplitSpec(seed=1))
codec = FeatureCodec.fit(train_rows)
train, val, test = (codec.transform(part) for part in (train_rows, val_rows, test_rows))
print(f"split: {train.n_rows} train / {val.n_rows} val / {test.n_rows} test, "
      f"{len(train.columns)} columns")

cfg = TrainConfig(seed=1)
models = {
    "lr": lr_fit(train),
    "cart": cart_fit(train, cfg.cart),
    "gbt": gbt_fit(train, cfg.gbt),
}

# The networks train with seeded minibatch SGD and keep the parameters
# from the epoch with the lowest validation MSE.
histories = {}
for arch in (ARCH_WNN, ARCH_DNN):
    model, history = mlp_train(
        mlp_init(arch, train.rows.shape[1], cfg.seed, cfg=cfg), train, val, cfg
    )
    models[arch] = model
    histories[arch] = history
    print(f"{arch}: best validation epoch {history.best_epoch + 1} of {len(history)}")

# Rank everything on the held-out test matrix.
report = compare(models, test)
print("\ntest MSE ranking")
for entry in report.ranking:
    print(f"  {entry['name']:<5} mse {entry['mse']:.3f}  mae {entry['mae']:.3f}")

best = report.ranking[0]["name"]
gain = report.improvements.get(f"{best}_vs_lr")
if gain is not None:
    print(f"\n{best} beats the linear baseline by {gain:.1f}%")

# Loss curves for the deep network, and the final ranking as bars.
svg = line_chart(
    history_series(histories[ARCH_DNN]),
    title="Deep network training curve",
    x_label="epoch",
    y_label="mse",
)
(OUT / "dnn_history.svg").write_text(svg)
labels, values = report_bars(report)
(OUT / "model_mse.svg").write_text(
    bar_chart(labels, values, title="Model test MSE", y_label="mse")
)
print(f"wrote {OUT / 'dnn_history.svg'} and {OUT / 'model_mse.svg'}")
