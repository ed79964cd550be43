"""Gradient-boosted regression trees with impurity-based feature importance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from ..errors import BusfluxError
from ..features import FeatureMatrix
from ..lazy import numpy as np
from ..schema import LEFT_OUT
from .config import CartParams, GbtParams
from .tree import RegressionTree, ValueCoding, grow

# Boosting relies on depth for capacity control, so the base learner grows
# with the loosest leaf constraint rather than the standalone-CART default.
BASE_LEARNER_MIN_LEAF = 1


@dataclass(slots=True)
class GbtEnsemble:
    arch = "gbt"  # a class attribute, not a field
    base_prediction: float
    shrinkage: float
    trees: list[RegressionTree]
    importance: Annotated[np.ndarray, "float64", 1]
    columns: tuple[str, ...] | None = field(default=None, metadata=LEFT_OUT)

    def __post_init__(self):
        if any(tree.n_features != self.n_features for tree in self.trees):
            raise ValueError("every tree must take as many features as the importance has entries")

    @property
    def n_features(self) -> int:
        return self.importance.size

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = np.full(X.shape[0], self.base_prediction, dtype=np.float64)
        for tree in self.trees:
            out += self.shrinkage * tree.predict(X)
        return out


def gbt_fit(train: FeatureMatrix, params: GbtParams | None = None) -> GbtEnsemble:
    """Boost depth-limited trees on residuals from the mean baseline.

    importance[f] is the total sum-of-squares decrease from splits on
    feature f across all trees, normalized to sum to 1. An ensemble whose
    trees never split (constant targets, or n_trees = 0) has no decreases
    to attribute and reports all-zero importance instead.
    """
    if train.n_rows == 0:
        raise BusfluxError("cannot fit a boosted ensemble: the train matrix has no rows")
    params = params or GbtParams()
    coding = ValueCoding.from_rows(train.rows)  # shared by every tree
    y = train.target
    base = float(y.mean())
    pred = np.full(y.shape, base, dtype=np.float64)
    tree_params = CartParams(max_depth=params.depth, min_leaf=BASE_LEARNER_MIN_LEAF)
    raw_importance = np.zeros(train.rows.shape[1], dtype=np.float64)
    trees: list[RegressionTree] = []
    columns = tuple(train.column_names)
    for _ in range(params.n_trees):
        tree, fitted = grow(coding, y - pred, tree_params, columns)
        trees.append(tree)
        for split in tree.splits:
            raw_importance[split.feature] += split.decrease
        pred += params.shrinkage * fitted
    total = float(raw_importance.sum())
    importance = raw_importance / total if total > 0.0 else raw_importance
    return GbtEnsemble(
        base_prediction=base,
        shrinkage=params.shrinkage,
        trees=trees,
        importance=importance,
        columns=columns,
    )
