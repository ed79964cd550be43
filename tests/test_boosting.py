"""Gradient-boosted trees: staged residual fitting and impurity importance."""

from __future__ import annotations

import numpy as np
import pytest

from busflux.errors import BusfluxError, ConfigError
from busflux.features import FeatureMatrix
from busflux.models.boosting import GbtEnsemble, gbt_fit
from busflux.models.config import GbtParams
from busflux.schema import from_dict, to_dict


def matrix(seed=0, n=160, d=5):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    y = 3.0 * X[:, 2] + 0.5 * X[:, 0] + 0.1 * rng.standard_normal(n)
    return FeatureMatrix.from_arrays(X, y)


def test_zero_trees_is_the_mean_predictor():
    m = matrix()
    model = gbt_fit(m, GbtParams(n_trees=0))
    assert model.base_prediction == pytest.approx(float(m.target.mean()))
    assert model.trees == []
    pred = model.predict(m.rows)
    assert np.all(pred == model.base_prediction)
    assert np.all(model.importance == 0.0)


def test_single_tree_is_base_plus_shrunk_tree():
    m = matrix()
    model = gbt_fit(m, GbtParams(n_trees=1, shrinkage=0.1))
    tree_pred = model.trees[0].predict(m.rows)
    expected = model.base_prediction + 0.1 * tree_pred
    assert model.predict(m.rows) == pytest.approx(expected)


def test_each_round_fits_the_current_residual():
    m = matrix()
    params = GbtParams(n_trees=3, depth=2, shrinkage=0.5)
    model = gbt_fit(m, params)
    pred = np.full(m.n_rows, model.base_prediction)
    for tree in model.trees:
        # the tree's leaves average the residual y - pred at fit time
        residual = m.target - pred
        leaf_of = tree.predict(m.rows)
        for value in np.unique(leaf_of):
            members = leaf_of == value
            assert residual[members].mean() == pytest.approx(value, rel=1e-9)
        pred = pred + params.shrinkage * leaf_of
    assert model.predict(m.rows) == pytest.approx(pred)


def test_training_error_decreases_with_more_trees():
    m = matrix()
    mses = []
    for k in (0, 5, 25, 100):
        model = gbt_fit(m, GbtParams(n_trees=k))
        mses.append(float(np.mean((model.predict(m.rows) - m.target) ** 2)))
    assert all(a > b for a, b in zip(mses, mses[1:]))


def test_importance_sums_to_one_and_ranks_the_planted_feature():
    m = matrix()
    model = gbt_fit(m, GbtParams())
    assert model.importance.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(model.importance >= 0.0)
    assert int(np.argmax(model.importance)) == 2


def test_importance_is_all_zero_when_nothing_splits():
    X = np.zeros((30, 3))  # constant features: no candidate thresholds
    y = np.random.default_rng(0).standard_normal(30)
    model = gbt_fit(FeatureMatrix.from_arrays(X, y), GbtParams(n_trees=10))
    assert np.all(model.importance == 0.0)
    assert model.predict(X) == pytest.approx(np.full(30, y.mean()))


def test_fit_is_deterministic():
    m = matrix()
    a = gbt_fit(m, GbtParams(n_trees=20))
    b = gbt_fit(m, GbtParams(n_trees=20))
    assert np.array_equal(a.predict(m.rows), b.predict(m.rows))
    assert np.array_equal(a.importance, b.importance)


def test_base_trees_use_configured_depth():
    m = matrix()
    model = gbt_fit(m, GbtParams(n_trees=4, depth=2))

    def depth(tree, i=0):
        if tree.feature[i] == -1:
            return 0
        return 1 + max(depth(tree, i + 1), depth(tree, tree.right[i]))

    assert all(depth(t) <= 2 for t in model.trees)


def test_serialization_round_trip():
    m = matrix()
    model = gbt_fit(m, GbtParams(n_trees=8))
    back = from_dict(GbtEnsemble, to_dict(model))
    probe = np.random.default_rng(1).standard_normal((20, 5))
    assert np.array_equal(back.predict(probe), model.predict(probe))
    assert np.array_equal(back.importance, model.importance)


def test_trees_of_another_width_are_rejected():
    model = gbt_fit(matrix(), GbtParams(n_trees=3))
    for short in (model.importance[:-1], np.append(model.importance, 0.0)):
        with pytest.raises(ValueError, match="every tree must take"):
            GbtEnsemble(model.base_prediction, model.shrinkage, model.trees, short)


def test_params_validation():
    with pytest.raises(ConfigError):
        GbtParams(n_trees=-1)
    with pytest.raises(ConfigError):
        GbtParams(shrinkage=0.0)
    with pytest.raises(ConfigError):
        GbtParams(depth=0)


def test_fit_names_an_empty_train_matrix():
    with pytest.raises(BusfluxError, match="the train matrix has no rows"):
        gbt_fit(FeatureMatrix.from_arrays(np.empty((0, 3)), np.empty(0)))
