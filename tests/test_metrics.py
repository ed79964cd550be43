"""Evaluation metrics, pairwise improvement, and comparison reports."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from busflux.errors import BusfluxError, ColumnMismatchError
from busflux.features import FeatureMatrix
from busflux.models.linear import lr_fit
from busflux.models.metrics import ComparisonReport, compare, evaluate, improvement_percent
from busflux.schema import from_dict, to_dict


class ConstantModel:
    """Predicts a fixed value; optionally carries column metadata."""

    def __init__(self, value, columns=None):
        self.value = value
        self.columns = columns

    def predict(self, X):
        return np.full(len(X), self.value)


def matrix(y, d=3, columns=None):
    y = np.asarray(y, dtype=np.float64)
    if columns is not None:
        d = len(columns)
    return FeatureMatrix.from_arrays(np.zeros((len(y), d)), y, names=columns)


# ── evaluate ─────────────────────────────────────────────────────────────


def test_evaluate_computes_mse_and_mae():
    res = evaluate(ConstantModel(1.0), matrix([0.0, 1.0, 3.0]))
    assert res.mse == pytest.approx((1.0 + 0.0 + 4.0) / 3.0)
    assert res.mae == pytest.approx((1.0 + 0.0 + 2.0) / 3.0)
    assert res.predictions == pytest.approx([1.0, 1.0, 1.0])


def test_evaluate_accepts_matching_columns():
    cols = ["a", "b", "c"]
    res = evaluate(ConstantModel(0.0, columns=cols), matrix([1.0, 2.0], columns=cols))
    assert res.mse == pytest.approx(2.5)


def test_evaluate_rejects_mismatched_columns():
    model = ConstantModel(0.0, columns=["a", "b", "c"])
    with pytest.raises(ColumnMismatchError) as err:
        evaluate(model, matrix([1.0], columns=["a", "c", "d"]))
    assert err.value.missing == ["b"]
    assert err.value.unexpected == ["d"]


def test_evaluate_checks_order_not_just_membership():
    model = ConstantModel(0.0, columns=["a", "b", "c"])
    with pytest.raises(ColumnMismatchError):
        evaluate(model, matrix([1.0], columns=["b", "a", "c"]))


def test_evaluate_works_on_trained_linear_model():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((50, 4))
    y = X @ np.array([1.0, -2.0, 0.5, 0.0])
    m = FeatureMatrix.from_arrays(X, y)
    model = lr_fit(m)
    assert evaluate(model, m).mse == pytest.approx(0.0, abs=1e-18)


# ── improvement_percent ──────────────────────────────────────────────────


def test_improvement_percent_pinned_examples():
    assert improvement_percent(1.15, 1.77) == 35.0
    assert improvement_percent(1.15, 1.34) == 14.2


def test_improvement_percent_sign_and_identity():
    assert improvement_percent(2.0, 1.0) == -100.0
    assert improvement_percent(1.0, 1.0) == 0.0


def test_improvement_percent_zero_reference():
    assert improvement_percent(0.0, 0.0) == 0.0
    with pytest.raises(ValueError):
        improvement_percent(0.5, 0.0)


@settings(max_examples=100, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    b=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False),
)
@example(a=854493.9086740747, b=4.2e-06)  # off by 0.0508 after correct rounding
def test_improvement_percent_is_rounded_to_one_decimal(a, b):
    value = improvement_percent(a, b)
    exact = (1.0 - a / b) * 100.0
    assert value == round(value, 1)
    # Rounding moves a value by at most 0.05, plus one float spacing of
    # the value itself, which is 0.004 at |exact| ≈ 2e13.
    assert value == pytest.approx(exact, abs=0.05 + math.ulp(exact))


# ── compare ──────────────────────────────────────────────────────────────


def models_with_mse(values):
    """Constant predictors on an all-zero target: MSE == value**2."""
    return {name: ConstantModel(value) for name, value in values.items()}


def test_compare_ranks_by_mse_then_name():
    m = matrix(np.zeros(10))
    models = models_with_mse({"slow": 2.0, "fast": 1.0, "tied": -1.0})
    report = compare(models, m)
    assert [r.name for r in report.ranking] == ["fast", "tied", "slow"]
    assert [r.mse for r in report.ranking] == pytest.approx([1.0, 1.0, 4.0])


def test_compare_emits_one_improvement_per_ranked_pair():
    m = matrix(np.zeros(10))
    report = compare(models_with_mse({"a": 1.0, "b": 2.0, "c": 4.0}), m)
    assert set(report.improvements) == {"a_vs_b", "a_vs_c", "b_vs_c"}
    assert report.improvements["a_vs_b"] == 75.0  # 1 vs 4
    assert report.improvements["a_vs_c"] == pytest.approx(93.8)  # 1 vs 16
    assert report.improvements["b_vs_c"] == 75.0  # 4 vs 16


def test_compare_improvement_keys_put_the_better_model_first():
    m = matrix(np.zeros(6))
    report = compare(models_with_mse({"worse": 3.0, "better": 1.0}), m)
    assert list(report.improvements) == ["better_vs_worse"]
    assert report.improvements["better_vs_worse"] > 0.0


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_compare_refuses_a_model_with_non_finite_predictions(value):
    # A NaN model was ranked first: every comparison with NaN is false.
    models = models_with_mse({"fine": 1.0, "broken": value})
    with pytest.raises(BusfluxError, match="model 'broken': its test predictions are not all finite"):
        compare(models, matrix(np.zeros(4)))


def test_comparison_report_round_trip():
    m = matrix(np.zeros(8))
    report = compare(models_with_mse({"a": 1.0, "b": 2.0}), m)
    back = from_dict(ComparisonReport, to_dict(report))
    assert back.ranking == report.ranking
    assert back.improvements == report.improvements
