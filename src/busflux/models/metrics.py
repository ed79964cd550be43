"""Model evaluation and cross-model comparison reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BusfluxError, ColumnMismatchError
from ..features import FeatureMatrix
from ..lazy import numpy as np


@dataclass(slots=True)
class EvalResult:
    mse: float
    mae: float
    predictions: np.ndarray


def _check_columns(model, test: FeatureMatrix) -> None:
    expected = getattr(model, "columns", None)
    if expected is None:
        return
    got = test.column_names
    if list(expected) != got:
        raise ColumnMismatchError(
            missing=sorted(set(expected) - set(got)),
            unexpected=sorted(set(got) - set(expected)),
        )


def evaluate(model, test: FeatureMatrix) -> EvalResult:
    """MSE/MAE of the model on an encoded matrix whose columns must match
    the metadata the model was trained with."""
    _check_columns(model, test)
    pred = model.predict(test.rows)
    diff = pred - test.target
    return EvalResult(
        mse=float((diff * diff).mean()),
        mae=float(np.abs(diff).mean()),
        predictions=pred,
    )


def improvement_percent(mse_a: float, mse_b: float) -> float:
    """Relative improvement of a over b: (1 - mse_a/mse_b) * 100, one decimal."""
    if mse_b == 0.0:
        if mse_a == 0.0:
            return 0.0
        raise ValueError("improvement over a zero-MSE reference is undefined")
    return round((1.0 - mse_a / mse_b) * 100.0, 1)


@dataclass(slots=True)
class ComparisonReport:
    """Models ranked by test MSE plus pairwise relative improvements.

    improvements holds one entry per ranked pair, keyed "a_vs_b" with a the
    better model; the value says how much lower a's MSE is than b's, in
    percent rounded to one decimal.
    """

    ranking: list[dict] = field(default_factory=list)
    improvements: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"ranking": self.ranking, "improvements": self.improvements}

    @classmethod
    def from_dict(cls, data: dict) -> "ComparisonReport":
        return cls(
            ranking=list(data["ranking"]),
            improvements=dict(data["improvements"]),
        )


def compare(models: dict[str, object], test: FeatureMatrix) -> ComparisonReport:
    """Evaluate every named model on the same test matrix and rank them.

    A model whose predictions are not all finite cannot be ranked, and is
    refused by name.
    """
    results = {name: evaluate(model, test) for name, model in models.items()}
    for name, res in results.items():
        if not np.isfinite(res.predictions).all():
            raise BusfluxError(f"model {name!r}: its test predictions are not all finite")
    ordered = sorted(results.items(), key=lambda kv: (kv[1].mse, kv[0]))
    report = ComparisonReport(
        ranking=[
            {"name": name, "mse": res.mse, "mae": res.mae} for name, res in ordered
        ]
    )
    for i, (name_a, res_a) in enumerate(ordered):
        for name_b, res_b in ordered[i + 1 :]:
            report.improvements[f"{name_a}_vs_{name_b}"] = improvement_percent(
                res_a.mse, res_b.mse
            )
    return report
