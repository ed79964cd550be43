"""Linear regression: the minimum-norm least-squares solution and its rank."""

from __future__ import annotations

import json
import logging

import numpy as np
import pytest

from busflux.errors import BusfluxError, ParseError
from busflux.features import FeatureMatrix
from busflux.models.linear import LinearModel, lr_fit
from busflux.models.store import load_model, save_model
from busflux.synth import LinearScenarioConfig, linear_scenario


def test_recovers_planted_coefficients_exactly():
    theta = (1.5, -2.0, 0.7, 3.3, -0.1, 0.0, 2.2, -4.0, 0.05, 1.0)
    m = linear_scenario(LinearScenarioConfig(theta=theta, n=200, bias=0.5))
    model = lr_fit(m)
    assert np.max(np.abs(model.theta - np.array(theta))) < 1e-6
    assert model.bias == pytest.approx(0.5, abs=1e-9)
    assert model.rank == len(theta) + 1


def test_matches_lstsq_on_noisy_data():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((120, 5))
    y = X @ rng.standard_normal(5) + 1.0 + 0.3 * rng.standard_normal(120)
    model = lr_fit(FeatureMatrix.from_arrays(X, y))
    A = np.hstack([np.ones((120, 1)), X])
    ref, *_ = np.linalg.lstsq(A, y, rcond=None)
    assert model.bias == pytest.approx(ref[0], abs=1e-8)
    assert model.theta == pytest.approx(ref[1:], abs=1e-8)


def one_hot_group(n: int = 90, seed: int = 9):
    """A full one-hot group of three levels: beside the intercept it has
    four columns of rank three."""
    rng = np.random.default_rng(seed)
    z = rng.integers(0, 3, size=n)
    X = np.zeros((n, 3))
    X[np.arange(n), z] = 1.0
    y = z.astype(float) + 0.1 * rng.standard_normal(n)
    return z, X, y


def test_full_one_hot_group_gives_the_minimum_norm_solution():
    z, X, y = one_hot_group()
    model = lr_fit(FeatureMatrix.from_arrays(X, y))
    assert model.rank == 3
    A = np.hstack([np.ones((len(y), 1)), X])
    ref = np.linalg.pinv(A) @ y
    assert np.max(np.abs(np.concatenate([[model.bias], model.theta]) - ref)) < 1e-12
    pred = model.predict(X)
    for g in range(3):
        assert pred[z == g].mean() == pytest.approx(y[z == g].mean(), abs=1e-12)


def test_rank_deficient_fit_logs_nothing(caplog):
    _, X, y = one_hot_group()
    with caplog.at_level(logging.DEBUG):
        lr_fit(FeatureMatrix.from_arrays(X, y))
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_underdetermined_fit_interpolates_its_targets():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((5, 12))
    y = rng.standard_normal(5)
    model = lr_fit(FeatureMatrix.from_arrays(X, y))
    assert model.rank == 5
    assert np.max(np.abs(model.predict(X) - y)) < 1e-12


def test_predict_is_affine():
    m = linear_scenario(LinearScenarioConfig(theta=(1.0, 2.0), n=30, bias=3.0))
    model = lr_fit(m)
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    pred = model.predict(x)
    assert pred[0] == pytest.approx(1.0 + 2.0 + 3.0)
    assert pred[1] == pytest.approx(3.0)


def test_serialization_round_trip():
    m = linear_scenario(LinearScenarioConfig(theta=(1.0, -2.0, 0.5), n=40, sigma=0.2))
    model = lr_fit(m)
    back = LinearModel.from_dict(model.to_dict())
    assert np.array_equal(back.theta, model.theta)
    assert back.bias == model.bias
    assert back.rank == model.rank
    X = np.random.default_rng(0).standard_normal((5, 3))
    assert np.array_equal(back.predict(X), model.predict(X))


def test_rank_round_trips_through_the_model_file(tmp_path):
    _, X, y = one_hot_group()
    model = lr_fit(FeatureMatrix.from_arrays(X, y))
    path = tmp_path / "lr.json"
    save_model(model, path)
    back = load_model(path)
    assert back.rank == model.rank == 3
    assert np.array_equal(back.theta, model.theta)
    # A model file without a rank is malformed; there is no default.
    payload = json.loads(path.read_text())
    del payload["parameters"]["rank"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ParseError, match="rank"):
        load_model(path)


def test_columns_are_recorded_from_the_training_matrix():
    m = linear_scenario(LinearScenarioConfig(theta=(1.0, 2.0), n=30))
    model = lr_fit(m)
    assert model.columns == tuple(m.column_names)



def test_fit_names_an_empty_train_matrix():
    with pytest.raises(BusfluxError, match="the train matrix has no rows"):
        lr_fit(FeatureMatrix.from_arrays(np.empty((0, 3)), np.empty(0)))
