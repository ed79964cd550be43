"""
What drives hourly demand? Boosted-tree feature importance
==========================================================

Fits the gradient-boosted ensemble on pipeline features and reads back
its impurity-based importance: each split credits its SSE decrease to
the feature it used, and the credits are normalized to sum to one.

A sanity check with planted coefficients runs first: on data where one
column carries ten times the signal of another, the strong column must
collect most of the importance.
"""

from pathlib import Path

import numpy as np

from busflux.aggregation import hourly_counts
from busflux.cleaning import clean
from busflux.config import default_calendar
from busflux.features import FeatureCodec, FeatureMatrix, SplitSpec, build_rows, split_rows
from busflux.models.boosting import gbt_fit
from busflux.models.config import GbtParams
from busflux.plots import bar_chart
from busflux.synth import generate, nonlinear_scenario
from busflux.weather import hourly_lookup

OUT = Path(__file__).parent / "out"
OUT.mkdir(exist_ok=True)

# Sanity check on planted data: y = 4*x2 + 0.4*x0 + noise.
rng = np.random.default_rng(1)
X = rng.standard_normal((200, 6))
y = 4.0 * X[:, 2] + 0.4 * X[:, 0] + 0.1 * rng.standard_normal(200)
probe = gbt_fit(FeatureMatrix.from_arrays(X, y), GbtParams())
print("planted-signal check (x2 is 10x stronger than x0):")
for name, share in zip(probe.columns or [], probe.importance):
    marker = " <-- planted driver" if name == "x2" else ""
    print(f"  {name}: {share:.3f}{marker}")
print(f"  importance sums to {probe.importance.sum():.9f}")

# Now the real thing: importance over the pipeline's demand features.
frames, weather, _ = generate(nonlinear_scenario(seed=11))
segments, _ = clean(frames)
hours = hourly_counts(segments)
rows, _ = build_rows(hours, hourly_lookup(weather), default_calendar())
train_rows, _, _ = split_rows(rows, SplitSpec(seed=1))
train = FeatureCodec.fit(train_rows).transform(train_rows)

model = gbt_fit(train, GbtParams())
ranked = sorted(
    zip(train.column_names, model.importance.tolist()),
    key=lambda kv: (-kv[1], kv[0]),
)

print("\ntop drivers of hourly demand")
for name, share in ranked[:10]:
    bar = "#" * round(60 * share)
    print(f"  {name:<28} {share:6.3f} {bar}")

dropped = sum(1 for _, share in ranked if share == 0.0)
print(f"({dropped} of {len(ranked)} features never used by any split)")

labels = [name for name, _ in ranked[:8]]
values = [share for _, share in ranked[:8]]
(OUT / "feature_importance.svg").write_text(
    bar_chart(labels, values, title="Demand drivers (importance share)", y_label="share")
)
print(f"wrote {OUT / 'feature_importance.svg'}")
