"""Greedy binary regression tree grown by sum-of-squares decrease.

Split search per node: for every feature, sort once and sweep candidate
boundaries with prefix sums; thresholds sit at midpoints of adjacent
distinct values. The winning candidate's decrease is then recomputed from
the raw definition sum((y - mean)^2) on each side, and the split is kept
only if that exact decrease is strictly positive. Ties prefer the lowest
feature index, then the lowest threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..features import FeatureMatrix
from .config import CartParams


def node_sse(y: np.ndarray) -> float:
    """Within-node sum of squares around the node mean; 0 for n <= 1."""
    if y.size <= 1:
        return 0.0
    d = y - y.mean()
    return float((d * d).sum())


@dataclass(frozen=True, slots=True)
class CartSplit:
    feature: int
    threshold: float
    decrease: float


def _best_candidate(
    X: np.ndarray, y: np.ndarray, min_leaf: int
) -> tuple[int, float] | None:
    """Prefix-sum sweep over all (feature, boundary) candidates.

    Returns the (feature, midpoint threshold) with the largest estimated
    decrease, or None when no boundary satisfies the min_leaf constraint.
    """
    n = y.size
    best_dec = 0.0
    best: tuple[int, float] | None = None
    counts = np.arange(1, n, dtype=np.float64)
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        if xs[0] == xs[-1]:
            continue
        s1 = np.cumsum(ys)
        s2 = np.cumsum(ys * ys)
        total1, total2 = s1[-1], s2[-1]
        left1, left2 = s1[:-1], s2[:-1]
        with np.errstate(invalid="ignore"):
            left_sse = left2 - left1 * left1 / counts
            right_sse = (total2 - left2) - (total1 - left1) ** 2 / (n - counts)
        # decrease = parent - left - right; parent is constant within the
        # node, so maximizing -(left + right) picks the same candidate.
        score = -(left_sse + right_sse)
        valid = (xs[1:] != xs[:-1]) & (counts >= min_leaf) & (counts <= n - min_leaf)
        if not valid.any():
            continue
        score = np.where(valid, score, -np.inf)
        a = int(np.argmax(score))  # first max -> lowest threshold in this feature
        parent = total2 - total1 * total1 / n
        dec = parent + score[a]
        if best is None or dec > best_dec:
            best_dec = dec
            best = (j, (xs[a] + xs[a + 1]) / 2.0)
    return best


def grow(X: np.ndarray, y: np.ndarray, params: CartParams, columns) -> "RegressionTree":
    """Grow a tree on rows X with targets y, laying its nodes out in preorder."""
    nodes: list[list] = []  # [feature, threshold, right, value, n, sse] per node

    def add_node(X: np.ndarray, y: np.ndarray, depth: int) -> None:
        node = [-1, 0.0, -1, float(y.mean()), y.size, node_sse(y)]
        nodes.append(node)
        if depth >= params.max_depth or y.size < 2 * params.min_leaf:
            return
        candidate = _best_candidate(X, y, params.min_leaf)
        if candidate is None:
            return
        mask = X[:, candidate[0]] <= candidate[1]
        if mask.all() or not mask.any():
            # Midpoint of two adjacent floats can round onto one of them.
            return
        if node[5] - node_sse(y[mask]) - node_sse(y[~mask]) <= 0.0:
            return
        node[0], node[1] = candidate
        add_node(X[mask], y[mask], depth + 1)
        node[2] = len(nodes)
        add_node(X[~mask], y[~mask], depth + 1)

    add_node(X, y, 0)
    arrays = dict(zip(_ARRAYS, zip(*nodes)))
    return RegressionTree.from_dict({**arrays, "n_features": X.shape[1]}, columns=columns)


_ARRAYS = {
    "feature": np.intp,
    "threshold": np.float64,
    "right": np.intp,
    "value": np.float64,
    "n": np.intp,
    "sse": np.float64,
}


@dataclass(slots=True, eq=False)
class RegressionTree:
    """Node arrays in preorder: node 0 is the root, the left child of split
    node i is i + 1 and its right child is right[i]. A leaf has feature -1,
    threshold 0.0 and right -1. value, n and sse are the node's mean
    target, row count and within-node sum of squares."""

    feature: np.ndarray
    threshold: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n: np.ndarray
    sse: np.ndarray
    n_features: int
    columns: tuple[str, ...] | None = None

    @property
    def splits(self) -> list[CartSplit]:
        """Split nodes in preorder with their sum-of-squares decrease."""
        i = np.flatnonzero(self.feature >= 0)
        decrease = self.sse[i] - self.sse[i + 1] - self.sse[self.right[i]]
        return [
            CartSplit(int(f), float(t), float(d))
            for f, t, d in zip(self.feature[i], self.threshold[i], decrease)
        ]

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.intp)
        while True:  # one tree level per pass
            feature = self.feature[node]
            split = feature >= 0
            if not split.any():
                return self.value[node]
            left = X[rows, feature] <= self.threshold[node]
            node = np.where(split, np.where(left, node + 1, self.right[node]), node)

    def to_dict(self) -> dict:
        return {
            **{name: getattr(self, name).tolist() for name in _ARRAYS},
            "n_features": self.n_features,
        }

    @classmethod
    def from_dict(cls, data: dict, columns=None) -> "RegressionTree":
        tree = cls(
            **{name: np.array(data[name], dtype=dtype) for name, dtype in _ARRAYS.items()},
            n_features=int(data["n_features"]),
            columns=columns,
        )
        i = np.flatnonzero(tree.feature >= 0)
        if len({getattr(tree, name).size for name in _ARRAYS}) != 1 or not (
            (i + 1 < tree.right[i]) & (tree.right[i] < tree.n.size) & (tree.feature[i] < tree.n_features)
        ).all():
            raise ValueError("node arrays are not one preorder tree")
        return tree


def cart_fit(train: FeatureMatrix, params: CartParams | None = None) -> RegressionTree:
    if train.n_rows == 0:
        raise ValueError("cannot fit a regression tree on zero rows")
    return grow(
        np.asarray(train.rows, dtype=np.float64),
        np.asarray(train.target, dtype=np.float64),
        params or CartParams(),
        tuple(train.column_names),
    )
