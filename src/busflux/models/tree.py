"""Greedy binary regression tree grown by sum-of-squares decrease.

Split search is a histogram over value codes. Each feature's distinct
values are found once per fit and laid end to end in one bin space, so
every cell of the matrix becomes a bin index. At a node, two bincounts over
its rows' bins give each bin's row count and its sum of the node's centred
targets y - mean(y); per-feature prefix sums over the bins present in the
node then give, at every boundary between two adjacent present values, the
left side's count n_L and centred sum S_L. The candidate's decrease is
estimated as S_L**2 * n / (n_L * n_R), and its threshold is the midpoint of
those two values present in the node.

The tie rule is exact. Every candidate whose estimate lies within
TIE_RTOL times the node's sum of squares of the best estimate is rescored
from the raw definition, node_sse(node) - (node_sse(left) + node_sse(right)),
written so that it does not depend on which side is called left. The split
goes to the highest exact decrease, ties to the lowest feature index and
then the lowest threshold, and it is kept only if that decrease is
strictly positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from ..errors import BusfluxError
from ..features import FeatureMatrix
from ..lazy import numpy as np
from ..schema import LEFT_OUT
from .config import CartParams

# Rounding in the bin and prefix sums moves an estimated decrease off its
# exact value by far less than this fraction of the node's sum of squares
# (at most 8e-15 over every candidate of a 3191 x 38 training matrix), so
# every candidate that could hold the exact best decrease gets rescored.
TIE_RTOL = 1e-9


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


@dataclass(frozen=True, slots=True)
class ValueCoding:
    """A matrix with each cell's bin: the sorted distinct values of every
    feature, feature after feature, are the bins, and values[bins[i, j]]
    equals X[i, j]. feature[b] is the feature that bin b belongs to."""

    X: np.ndarray
    bins: np.ndarray
    values: np.ndarray
    feature: np.ndarray

    @classmethod
    def from_rows(cls, X: np.ndarray) -> "ValueCoding":
        bins = np.empty(X.shape, dtype=np.intp)
        values, sizes = [], []
        for j in range(X.shape[1]):
            v, inverse = np.unique(X[:, j], return_inverse=True)
            bins[:, j] = sum(sizes) + inverse.reshape(-1)
            values.append(v)
            sizes.append(v.size)
        return cls(
            X=X,
            bins=bins,
            values=np.concatenate([np.zeros(0), *values]),
            feature=np.repeat(np.arange(len(sizes)), sizes),
        )


def _best_split(
    coding: ValueCoding, rows: np.ndarray, y: np.ndarray, sse: float, min_leaf: int
) -> tuple[int, float, np.ndarray] | None:
    """The node's split as (feature, threshold, left-row mask), or None.

    rows are the node's row indices and y their targets; sse is node_sse(y).
    """
    n = rows.size
    bins = coding.bins[rows].ravel()
    count = np.bincount(bins, minlength=coding.values.size)
    total = np.bincount(
        bins, weights=np.repeat(y - y.mean(), coding.bins.shape[1]), minlength=count.size
    )
    present = np.flatnonzero(count)
    feature = coding.feature[present]
    # Every row has one value per feature, so each feature's present bins
    # hold n rows: subtracting the preceding features' n per feature and
    # their summed targets turns the running sums into per-feature ones.
    n_left = np.cumsum(count[present]) - feature * n
    s_left = np.cumsum(total[present])
    s_left -= np.concatenate(([0.0], s_left[np.flatnonzero(np.diff(feature))]))[feature]
    k = np.flatnonzero(
        (feature[:-1] == feature[1:]) & (n_left[:-1] >= min_leaf) & (n_left[:-1] <= n - min_leaf)
    )
    if k.size == 0:
        return None
    nl = n_left[k]
    estimate = s_left[k] ** 2 * n / (nl * (n - nl))
    best: tuple[int, float, np.ndarray] | None = None
    best_dec = 0.0
    # Rescored in bin order, so a strict > keeps the lowest feature, then
    # the lowest threshold, among equal exact decreases.
    for i in k[estimate >= estimate.max() - TIE_RTOL * sse]:
        f = int(feature[i])
        t = float((coding.values[present[i]] + coding.values[present[i + 1]]) / 2.0)
        left = coding.X[rows, f] <= t
        dec = sse - (node_sse(y[left]) + node_sse(y[~left]))
        if dec > best_dec:
            best_dec, best = dec, (f, t, left)
    return best


def grow(
    coding: ValueCoding, y: np.ndarray, params: CartParams, columns
) -> tuple["RegressionTree", np.ndarray]:
    """Grow a tree on the coded rows with targets y, laying its nodes out in
    preorder. Also returns each row's leaf value, which is what the tree's
    predict gives for that row: rows are routed by the same <= rule.

    Nodes are grown from an explicit stack, left child first, and a right
    child records its index on its parent as it is laid out. Nothing here
    forms a reference cycle, so a tree's residuals, node lists and row
    indices are freed as soon as grow returns, not when the cyclic garbage
    collector next runs.
    """
    nodes: list[list] = []  # [feature, threshold, right, value, n, sse] per node
    fitted = np.empty(y.size, dtype=np.float64)
    # (rows, depth, index of the parent whose right child this is, or -1)
    stack = [(np.arange(y.size), 0, -1)]
    while stack:
        rows, depth, parent = stack.pop()
        if parent >= 0:
            nodes[parent][2] = len(nodes)
        yn = y[rows]
        node = [-1, 0.0, -1, float(yn.mean()), rows.size, node_sse(yn)]
        nodes.append(node)
        split = None
        # No split decreases a zero sum of squares (and every estimate would tie).
        if depth < params.max_depth and rows.size >= 2 * params.min_leaf and node[5] != 0.0:
            split = _best_split(coding, rows, yn, node[5], params.min_leaf)
        if split is None:
            fitted[rows] = node[3]
            continue
        node[0], node[1], left = split
        stack.append((rows[~left], depth + 1, len(nodes) - 1))
        stack.append((rows[left], depth + 1, -1))
    # A node's entries are the node arrays in field order, Python ints or floats.
    arrays = map(np.array, zip(*nodes))
    return RegressionTree(*arrays, n_features=coding.X.shape[1], columns=columns), fitted


@dataclass(slots=True, eq=False)
class RegressionTree:
    """Node arrays in preorder: node 0 is the root, the left child of split
    node i is i + 1 and its right child is right[i]. A leaf has feature -1,
    threshold 0.0 and right -1. value, n and sse are the node's mean
    target, row count and within-node sum of squares."""

    arch = "cart"  # a class attribute, not a field
    feature: Annotated[np.ndarray, "intp", 1]
    threshold: Annotated[np.ndarray, "float64", 1]
    right: Annotated[np.ndarray, "intp", 1]
    value: Annotated[np.ndarray, "float64", 1]
    n: Annotated[np.ndarray, "intp", 1]
    sse: Annotated[np.ndarray, "float64", 1]
    n_features: int
    columns: tuple[str, ...] | None = field(default=None, metadata=LEFT_OUT)

    def __post_init__(self):
        arrays = (self.feature, self.threshold, self.right, self.value, self.n, self.sse)
        split = self.feature >= 0
        i = np.flatnonzero(split)
        if {a.size for a in arrays} != {self.n.size} or self.n.size == 0 or not (
            (i + 1 < self.right[i]) & (self.right[i] < self.n.size)
            & (self.feature[i] < self.n_features)
        ).all() or (self.right[~split] != -1).any():
            raise ValueError("node arrays are not one preorder tree")

    @property
    def splits(self) -> list[CartSplit]:
        """Split nodes in preorder with their sum-of-squares decrease."""
        i = np.flatnonzero(self.feature >= 0)
        decrease = self.sse[i] - (self.sse[i + 1] + self.sse[self.right[i]])
        return [
            CartSplit(int(f), float(t), float(d))
            for f, t, d in zip(self.feature[i], self.threshold[i], decrease)
        ]

    def predict(self, X: np.ndarray) -> np.ndarray:
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


def cart_fit(train: FeatureMatrix, params: CartParams | None = None) -> RegressionTree:
    if train.n_rows == 0:
        raise BusfluxError("cannot fit a regression tree: the train matrix has no rows")
    tree, _ = grow(
        ValueCoding.from_rows(train.rows),
        train.target,
        params or CartParams(),
        tuple(train.column_names),
    )
    return tree
