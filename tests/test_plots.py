"""SVG chart rendering: well-formed XML, deterministic bytes, CSV series."""

from __future__ import annotations

import csv
import xml.etree.ElementTree as ET
from datetime import datetime, timedelta
from xml.sax import saxutils

import pytest
from hypothesis import given
from hypothesis import strategies as st

from busflux.aggregation import HourlyCount
from busflux.models.metrics import ComparisonReport, RankedModel
from busflux.models.mlp import TrainHistory
from busflux.plots import (
    Series,
    bar_chart,
    escape,
    history_series,
    hourly_series,
    line_chart,
    report_bars,
    write_series_csv,
)

SVG = "{http://www.w3.org/2000/svg}"


def parse_svg(text):
    return ET.fromstring(text)


def series(name="s", n=5):
    xs = tuple(float(i) for i in range(n))
    return Series(name=name, xs=xs, ys=tuple(x * x for x in xs))


# ── line charts ──────────────────────────────────────────────────────────


def test_line_chart_is_well_formed_svg_with_one_polyline_per_series():
    text = line_chart(
        [series("a"), series("b")], title="t", x_label="x", y_label="y"
    )
    root = parse_svg(text)
    assert root.tag == f"{SVG}svg"
    polylines = root.findall(f"{SVG}polyline")
    assert len(polylines) == 2
    for p in polylines:
        points = p.attrib["points"].split()
        assert len(points) == 5


def test_line_chart_titles_and_labels_appear():
    text = line_chart([series()], title="demand", x_label="hour", y_label="count")
    labels = [t.text for t in parse_svg(text).findall(f"{SVG}text")]
    assert "demand" in labels
    assert "hour" in labels
    assert "count" in labels


def test_line_chart_escapes_markup_in_names():
    text = line_chart(
        [series(name="a<b&c")], title='x"y', x_label="x", y_label="y"
    )
    root = parse_svg(text)  # would raise on unescaped < or &
    assert any(t.text == "a<b&c" for t in root.findall(f"{SVG}text"))


@given(st.text(alphabet=st.sampled_from("&<>;ampltg\"' x\u00e9\U0001f68c")))
def test_escape_equals_saxutils_escape(text):
    assert escape(text) == saxutils.escape(text)


def test_line_chart_is_deterministic():
    args = ([series("a"), series("b")],)
    kw = dict(title="t", x_label="x", y_label="y")
    assert line_chart(*args, **kw) == line_chart(*args, **kw)


def test_line_chart_rejects_empty_input():
    with pytest.raises(ValueError):
        line_chart([], title="t", x_label="x", y_label="y")
    with pytest.raises(ValueError):
        line_chart([Series("s", (), ())], title="t", x_label="x", y_label="y")


def test_line_chart_handles_a_single_point_and_flat_zero_series():
    text = line_chart(
        [Series("s", (2.0,), (0.0,))], title="t", x_label="x", y_label="y"
    )
    parse_svg(text)


def test_series_rejects_length_mismatch():
    with pytest.raises(ValueError):
        Series("s", (1.0, 2.0), (1.0,))


# ── bar charts ───────────────────────────────────────────────────────────


def test_bar_chart_draws_one_labeled_rect_per_value():
    text = bar_chart(["lr", "dnn"], [2.0, 1.0], title="t", y_label="mse")
    root = parse_svg(text)
    rects = root.findall(f"{SVG}rect")
    # background + one bar per value
    assert len(rects) == 3
    labels = [t.text for t in root.findall(f"{SVG}text")]
    assert "lr" in labels and "dnn" in labels


def test_bar_heights_are_proportional_to_values():
    text = bar_chart(["a", "b"], [1.0, 2.0], title="t", y_label="y")
    bars = parse_svg(text).findall(f"{SVG}rect")[1:]
    heights = [float(r.attrib["height"]) for r in bars]
    assert heights[1] == pytest.approx(2 * heights[0], rel=1e-3)


def test_bar_chart_rejects_mismatched_inputs():
    with pytest.raises(ValueError):
        bar_chart(["a"], [1.0, 2.0], title="t", y_label="y")
    with pytest.raises(ValueError):
        bar_chart([], [], title="t", y_label="y")


# ── series builders ──────────────────────────────────────────────────────


def test_history_series_has_train_and_validation_curves():
    hist = TrainHistory(train_mse=[3.0, 2.0, 1.0], val_mse=[4.0, 2.5, 2.6])
    train, val = history_series(hist)
    assert train.name == "train" and val.name == "validation"
    assert train.xs == (1.0, 2.0, 3.0)  # epochs are 1-based
    assert train.ys == (3.0, 2.0, 1.0)
    assert val.ys == (4.0, 2.5, 2.6)


def test_hourly_series_groups_by_stop_with_hour_offsets():
    t0 = datetime(2017, 4, 5, 8)
    hours = [
        HourlyCount(stop="stop-02", hour=t0, count=1.0),
        HourlyCount(stop="stop-01", hour=t0, count=2.0),
        HourlyCount(stop="stop-01", hour=t0 + timedelta(hours=2), count=3.0),
    ]
    out = hourly_series(hours)
    assert [s.name for s in out] == ["stop-01", "stop-02"]
    assert out[0].xs == (0.0, 2.0)
    assert out[0].ys == (2.0, 3.0)
    assert out[1].xs == (0.0,)


def test_hourly_series_rejects_empty_counts():
    with pytest.raises(ValueError):
        hourly_series([])


def test_report_bars_follow_the_ranking_order():
    report = ComparisonReport(
        ranking=[
            RankedModel(name="dnn", mse=1.9, mae=1.0),
            RankedModel(name="lr", mse=3.5, mae=1.4),
        ],
        improvements={"dnn_vs_lr": 45.7},
    )
    labels, values = report_bars(report)
    assert labels == ["dnn", "lr"]
    assert values == [1.9, 3.5]


# ── plot-ready CSV ───────────────────────────────────────────────────────


def test_series_csv_round_trips_values_exactly(tmp_path):
    s = [series("a", 3), Series("b", (0.5,), (1 / 3,))]
    dest = tmp_path / "series.csv"
    write_series_csv(s, dest)
    with open(dest, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["series", "x", "y"]
    got = [(name, float(x), float(y)) for name, x, y in rows[1:]]
    want = [(t.name, x, y) for t in s for x, y in zip(t.xs, t.ys)]
    assert got == want
