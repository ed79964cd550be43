"""CART regression tree: split search against a brute-force oracle."""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from busflux.errors import BusfluxError, ConfigError
from busflux.features import FeatureMatrix
from busflux.models.boosting import gbt_fit
from busflux.models.config import CartParams, GbtParams
from busflux.models.tree import RegressionTree, ValueCoding, cart_fit, grow, node_sse
from busflux.schema import from_dict, to_dict


def matrix(X, y) -> FeatureMatrix:
    return FeatureMatrix.from_arrays(np.asarray(X, float), np.asarray(y, float))


def brute_force_best_split(X, y, min_leaf=1):
    """Enumerate every (feature, midpoint) candidate and score it directly.

    Ties break to the lowest threshold within a feature and the lowest
    feature index across features, mirroring the documented rule. The
    decrease is parent - (left + right), so two candidates that cut the
    rows into the same two sides score the same whichever side is left.
    """
    X, y = np.asarray(X, float), np.asarray(y, float)
    parent = node_sse(y)
    best = (-np.inf, None, None)
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for lo, hi in zip(vals[:-1], vals[1:]):
            t = (lo + hi) / 2.0
            mask = X[:, f] <= t
            if mask.sum() < min_leaf or (~mask).sum() < min_leaf:
                continue
            dec = parent - (node_sse(y[mask]) + node_sse(y[~mask]))
            if dec > best[0]:
                best = (dec, f, t)
    return best


# ── node_sse ─────────────────────────────────────────────────────────────────


def test_node_sse_matches_direct_formula():
    y = np.array([1.0, 2.0, 4.0, 4.0])
    assert node_sse(y) == pytest.approx(float(np.sum((y - y.mean()) ** 2)))


def test_node_sse_degenerate_nodes_are_zero():
    assert node_sse(np.array([])) == 0.0
    assert node_sse(np.array([3.0])) == 0.0


# ── Split search ─────────────────────────────────────────────────────────────


def test_root_split_matches_brute_force_on_step_target():
    X = np.column_stack(
        [
            np.random.default_rng(3).normal(0, 1, 20),
            np.arange(20, dtype=float),
            np.random.default_rng(4).uniform(-5, 5, 20),
        ]
    )
    y = np.where(X[:, 1] < 10, 0.0, 10.0)
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=1))
    dec, f, t = brute_force_best_split(X, y)
    assert tree.feature[0] == f == 1
    assert tree.threshold[0] == t == 9.5
    assert tree.splits[0].decrease == dec == 500.0


def test_threshold_is_midpoint_of_adjacent_values():
    X = np.array([[1.0], [3.0], [10.0], [12.0]])
    y = np.array([0.0, 0.0, 5.0, 5.0])
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=1))
    assert tree.threshold[0] == 6.5


def test_tie_breaks_to_lowest_feature_then_lowest_threshold():
    # Feature 0 and feature 1 are identical, so their best splits tie;
    # the documented rule picks feature 0.
    col = np.array([0.0, 1.0, 2.0, 3.0])
    X = np.column_stack([col, col])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=1))
    assert tree.feature[0] == 0
    # Within a feature: y = (0, 1, 1, 0) gives equal decrease at 0.5 and
    # 2.5; the sweep must report the lower threshold.
    y2 = np.array([0.0, 1.0, 1.0, 0.0])
    tree2 = cart_fit(matrix(col, y2), CartParams(max_depth=1, min_leaf=1))
    assert tree2.threshold[0] == 0.5


# In each of these seeds two features cut the rows into the same two sides
# at the best split, so their exact decreases tie and the lower index wins.
@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
@example(340)
@example(1542)
@example(2030)
@example(2342)
@example(2360)
@example(2529)
@example(2590)
@example(2955)
@example(2981)
@example(3055)
@example(3285)
@example(4210)
@example(4560)
@example(4632)
@example(5257)
@example(5301)
@example(6402)
@example(6659)
@example(6989)
@example(6996)
@example(7952)
@example(8117)
@example(8724)
@example(8730)
@example(9303)
def test_root_split_matches_brute_force_on_random_data(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 40))
    d = int(rng.integers(1, 5))
    X = np.round(rng.normal(0, 2, (n, d)), 1)  # duplicates exercise midpoints
    y = rng.normal(0, 3, n)
    min_leaf = int(rng.integers(1, 4))
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=min_leaf))
    dec, f, t = brute_force_best_split(X, y, min_leaf=min_leaf)
    if f is None or dec <= 0:
        assert tree.feature[0] == -1
    else:
        assert (tree.feature[0], tree.threshold[0]) == (f, t)
        assert tree.splits[0].decrease == pytest.approx(dec, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_every_split_node_matches_brute_force_on_its_own_rows(seed):
    # Few distinct values, a one-hot pair and a second binary column, so that
    # deeper nodes lack some of a column's values and exact ties are common.
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 40))
    b = rng.integers(0, 2, n).astype(float)
    X = np.column_stack(
        [np.round(rng.normal(0, 1.5, n)), b, 1.0 - b, rng.integers(0, 2, n), np.round(rng.normal(0, 2, n), 1)]
    )[:, rng.permutation(5)]
    y = np.round(2.0 * b + rng.normal(0, 2, n), 1)
    min_leaf = int(rng.integers(1, 4))
    tree = cart_fit(matrix(X, y), CartParams(max_depth=3, min_leaf=min_leaf))
    stack = [(0, np.arange(n), 0)]
    while stack:
        i, rows, depth = stack.pop()
        if depth == 3:
            continue
        dec, f, t = brute_force_best_split(X[rows], y[rows], min_leaf=min_leaf)
        if tree.feature[i] == -1:
            assert f is None or dec <= 0
            continue
        left = X[rows, tree.feature[i]] <= tree.threshold[i]
        assert (tree.feature[i], tree.threshold[i]) == (f, t)
        assert tree.sse[i] - (tree.sse[i + 1] + tree.sse[tree.right[i]]) == dec
        stack += [(i + 1, rows[left], depth + 1), (tree.right[i], rows[~left], depth + 1)]


def test_complementary_one_hot_pair_ties_exactly_and_the_lower_index_wins():
    # Columns 0 and 1 are a one-hot pair: both put the same rows on the two
    # sides, so their exact decreases are equal, while prefix-sum estimates
    # over the two sort orders differ in the last bits.
    b = np.array([1.0, 1.0, 0.0, 0.0])
    X = np.column_stack([b, 1.0 - b])
    y = np.array([2.6, 3.6, 0.6, -1.1])
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=1))
    assert brute_force_best_split(X, y)[1:] == (0, 0.5)
    assert (tree.feature[0], tree.threshold[0]) == (0, 0.5)


# ── Growth constraints ───────────────────────────────────────────────────────


def test_constant_target_yields_single_leaf():
    X = np.arange(10, dtype=float)
    tree = cart_fit(matrix(X, np.full(10, 2.5)))
    assert tree.feature[0] == -1
    assert tree.value[0] == 2.5
    assert tree.splits == []


def test_max_depth_limits_split_levels():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (200, 3))
    y = rng.normal(0, 1, 200)
    tree = cart_fit(matrix(X, y), CartParams(max_depth=2, min_leaf=1))

    def depth(i):
        if tree.feature[i] == -1:
            return 0
        return 1 + max(depth(i + 1), depth(tree.right[i]))

    assert depth(0) <= 2


def test_min_leaf_bounds_every_leaf():
    rng = np.random.default_rng(1)
    X = rng.normal(0, 1, (120, 2))
    y = rng.normal(0, 1, 120)
    tree = cart_fit(matrix(X, y), CartParams(max_depth=8, min_leaf=7))
    assert np.all(tree.n[tree.feature < 0] >= 7)


def test_deeper_trees_never_increase_training_sse():
    rng = np.random.default_rng(5)
    X = rng.normal(0, 1, (150, 3))
    y = X[:, 0] ** 2 + rng.normal(0, 0.1, 150)
    m = matrix(X, y)
    trees = [cart_fit(m, CartParams(max_depth=d, min_leaf=1)) for d in (1, 2, 4, 8)]
    sse = [t.sse[t.feature < 0].sum() for t in trees]
    assert all(a >= b for a, b in zip(sse, sse[1:]))


def test_every_recorded_split_decrease_is_positive():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (80, 4))
    y = rng.normal(0, 1, 80)
    tree = cart_fit(matrix(X, y))
    assert all(s.decrease > 0 for s in tree.splits)


# ── Prediction and serialization ─────────────────────────────────────────────


def test_leaf_prediction_is_the_leaf_mean():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([1.0, 3.0, 10.0, 14.0])
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=1))
    pred = tree.predict(np.array([[0.5], [10.5]]))
    assert pred == pytest.approx([2.0, 12.0])


def test_rows_at_threshold_go_left():
    X = np.array([[0.0], [1.0]])
    y = np.array([0.0, 1.0])
    tree = cart_fit(matrix(X, y), CartParams(max_depth=1, min_leaf=1))
    assert tree.threshold[0] == 0.5
    assert tree.predict(np.array([[0.5]]))[0] == 0.0


@pytest.mark.parametrize("a", [1.0, np.nextafter(1.0, 2.0), -0.1, 1e-300])
def test_grown_leaf_values_equal_predict_bit_for_bit(a):
    # Column 0 holds two adjacent floats. Their midpoint rounds onto one of
    # them, so a split there has a data value as its threshold (for a = 1.0,
    # a itself; for the next float up, no split: every row would go left).
    b = np.nextafter(a, np.inf)
    rng = np.random.default_rng(5)
    n = 60
    X = np.column_stack(
        [np.where(rng.random(n) < 0.5, a, b), np.round(rng.normal(0, 1, n), 1), rng.integers(0, 2, n)]
    )
    y = np.where(X[:, 0] == b, 10.0, 0.0) + rng.normal(0, 1, n)
    tree, fitted = grow(ValueCoding.from_rows(X), y, CartParams(max_depth=4, min_leaf=1), None)
    assert fitted.tobytes() == tree.predict(X).tobytes()
    if a == 1.0:
        assert (tree.feature[0], tree.threshold[0]) == (0, a)


def test_serialization_round_trip():
    rng = np.random.default_rng(7)
    X = rng.normal(0, 1, (60, 3))
    y = rng.normal(0, 1, 60)
    tree = cart_fit(matrix(X, y), CartParams(max_depth=4, min_leaf=2))
    back = from_dict(RegressionTree, to_dict(tree))
    probe = rng.normal(0, 1, (25, 3))
    assert np.array_equal(back.predict(probe), tree.predict(probe))


# ── Node layout ──────────────────────────────────────────────────────────────


def layout_matrix() -> FeatureMatrix:
    """24 rows of small integers with targets in {0, 4, 8}."""
    i = np.arange(24)
    X = np.column_stack([i % 4, i // 4, (i * 5) % 7])
    y = 4 * ((i % 4 + i // 4 + (i % 3 == 0)) % 3)
    return matrix(X, y)


def preorder(tree):
    """(feature, threshold, value) per node in preorder; a leaf is (-1, 0.0, value)."""
    return list(zip(tree.feature.tolist(), tree.threshold.tolist(), tree.value.tolist()))


def test_depth_3_cart_has_the_pinned_preorder_nodes():
    tree = cart_fit(layout_matrix(), CartParams(max_depth=3, min_leaf=1))
    assert preorder(tree) == [
        (1, 4.5, 5.333333333333333),
        (0, 0.5, 5.2),
        (2, 4.5, 4.8),
        (-1, 0.0, 4.0),
        (-1, 0.0, 6.0),
        (0, 2.5, 5.333333333333333),
        (-1, 0.0, 5.6),
        (-1, 0.0, 4.8),
        (0, 0.5, 6.0),
        (-1, 0.0, 8.0),
        (0, 2.5, 5.333333333333333),
        (-1, 0.0, 4.0),
        (-1, 0.0, 8.0),
    ]


def test_first_two_boosted_trees_have_the_pinned_preorder_nodes():
    model = gbt_fit(layout_matrix(), GbtParams(n_trees=2, depth=3, shrinkage=0.5))
    assert [preorder(t) for t in model.trees] == [
        [
            (1, 4.5, 2.9605947323337506e-16),
            (0, 0.5, -0.13333333333333303),
            (2, 4.5, -0.533333333333333),
            (-1, 0.0, -1.333333333333333),
            (-1, 0.0, 0.666666666666667),
            (0, 2.5, 2.9605947323337506e-16),
            (-1, 0.0, 0.26666666666666694),
            (-1, 0.0, -0.533333333333333),
            (0, 0.5, 0.666666666666667),
            (-1, 0.0, 2.666666666666667),
            (0, 2.5, 2.9605947323337506e-16),
            (-1, 0.0, -1.333333333333333),
            (-1, 0.0, 2.666666666666667),
        ],
        [
            (1, 1.5, 2.220446049250313e-16),
            (2, 2.5, -0.2916666666666665),
            (0, 1.0, -1.0666666666666664),
            (-1, 0.0, -0.6666666666666661),
            (-1, 0.0, -1.2),
            (2, 4.5, 0.4833333333333334),
            (-1, 0.0, 2.533333333333333),
            (-1, 0.0, -1.5666666666666664),
            (2, 1.5, 0.1458333333333336),
            (1, 2.5, 0.7333333333333334),
            (-1, 0.0, -1.4666666666666668),
            (-1, 0.0, 1.4666666666666668),
            (1, 2.5, -0.04999999999999968),
            (-1, 0.0, 1.2666666666666668),
            (-1, 0.0, -0.48888888888888854),
        ],
    ]


def walk(tree, row) -> float:
    """Reference predict: follow one row from the root to its leaf."""
    i = 0
    while tree.feature[i] != -1:
        i = i + 1 if row[tree.feature[i]] <= tree.threshold[i] else tree.right[i]
    return tree.value[i]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_node_arrays_form_a_preorder_tree(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    d = int(rng.integers(1, 4))
    X = np.round(rng.normal(0, 2, (n, d)), 1)
    y = np.round(rng.normal(0, 3, n), 1)
    m = matrix(X, y)
    if rng.integers(2):
        tree = cart_fit(m, CartParams(max_depth=int(rng.integers(1, 6)), min_leaf=int(rng.integers(1, 4))))
    else:
        tree = gbt_fit(m, GbtParams(n_trees=2, depth=int(rng.integers(1, 5)))).trees[1]

    # A depth-first walk taking left before right meets every node once, in order.
    order, stack = [], [0]
    while stack:
        i = stack.pop()
        order.append(i)
        if tree.feature[i] != -1:
            assert tree.right[i] > i + 1
            assert tree.n[i] == tree.n[i + 1] + tree.n[tree.right[i]]
            stack.extend((tree.right[i], i + 1))
    assert order == list(range(tree.feature.size))

    # Probe rows: the training rows, fresh rows, and rows on each threshold.
    on_threshold = X[rng.integers(n, size=tree.feature.size)].copy()
    for i in np.flatnonzero(tree.feature >= 0):
        on_threshold[i, tree.feature[i]] = tree.threshold[i]
    probe = np.vstack([X, rng.normal(0, 2, (10, d)), on_threshold])
    assert np.array_equal(tree.predict(probe), [walk(tree, row) for row in probe])

    back = from_dict(RegressionTree, to_dict(tree))
    for name in ("feature", "threshold", "right", "value", "n", "sse"):
        assert np.array_equal(getattr(back, name), getattr(tree, name))
        assert getattr(back, name).dtype == getattr(tree, name).dtype
    assert back.n_features == tree.n_features


def test_params_validation():
    with pytest.raises(ConfigError):
        CartParams(max_depth=0)
    with pytest.raises(ConfigError):
        CartParams(min_leaf=0)


def test_fit_names_an_empty_train_matrix():
    with pytest.raises(BusfluxError, match="the train matrix has no rows"):
        cart_fit(FeatureMatrix.from_arrays(np.empty((0, 3)), np.empty(0)))


@pytest.mark.parametrize("fit", [cart_fit, gbt_fit])
def test_fits_leave_nothing_for_the_cyclic_collector(fit):
    # A self-referencing grow closure kept each tree's residuals, node lists
    # and row indices alive until the cyclic collector ran.
    rng = np.random.default_rng(8)
    X = rng.standard_normal((400, 5))
    train = FeatureMatrix.from_arrays(X, X[:, 0] + 0.3 * rng.standard_normal(400))
    gc.collect()
    gc.disable()
    try:
        model = fit(train)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert model.predict(X).shape == (400,)
