"""MLP forward pass, backprop gradients, and SGD training behavior."""

from __future__ import annotations

import gc
import tracemalloc
import warnings

import numpy as np
import pytest

import busflux.models.mlp as mlp_module
from busflux.errors import BusfluxError, ConfigError, TrainingDivergedError
from busflux.features import FeatureMatrix
from busflux.models.config import TrainConfig
from busflux.models.mlp import (
    FORWARD_BLOCK,
    MlpModel,
    TrainHistory,
    loss_and_grads,
    mlp_forward,
    mlp_init,
    mlp_train,
)


def hand_model() -> MlpModel:
    """2-2-1 network small enough to differentiate by hand."""
    return MlpModel(
        weights=[np.eye(2), np.array([[1.0], [2.0]])],
        biases=[np.array([0.5, -3.0]), np.array([0.25])],
        arch="custom",
        seed=0,
    )


# ── Forward pass ─────────────────────────────────────────────────────────────


def test_forward_matches_hand_computation():
    # z1 = (1.5, -1) -> relu -> (1.5, 0); z2 = 1.5*1 + 0*2 + 0.25 = 1.75
    assert mlp_forward(hand_model(), np.array([1.0, 2.0])) == pytest.approx(1.75)


def test_forward_handles_batches():
    X = np.array([[1.0, 2.0], [0.0, 0.0]])
    out = mlp_forward(hand_model(), X)
    # second row: z1 = (0.5, -3) -> (0.5, 0); z2 = 0.75
    assert out == pytest.approx([1.75, 0.75])


def test_forward_rejects_wrong_width():
    with pytest.raises(ValueError):
        mlp_forward(hand_model(), np.zeros(3))


def test_hidden_relu_output_identity():
    # a negative pre-activation must clamp in the hidden layer but a
    # negative OUTPUT must pass through untouched.
    model = MlpModel(
        weights=[np.eye(1), np.array([[1.0]])],
        biases=[np.array([0.0]), np.array([0.0])],
        arch="custom",
        seed=0,
    )
    assert mlp_forward(model, np.array([-5.0])) == pytest.approx(0.0)  # clamped hidden
    model.biases[1][0] = -2.0
    assert mlp_forward(model, np.array([1.0])) == pytest.approx(-1.0)  # raw output


# ── Gradients ────────────────────────────────────────────────────────────────


def test_gradients_match_hand_computation():
    loss, gw, gb = loss_and_grads(hand_model(), np.array([[1.0, 2.0]]), np.array([1.0]))
    assert loss == pytest.approx(0.5625)
    assert gw[1] == pytest.approx(np.array([[2.25], [0.0]]))
    assert gb[1] == pytest.approx(np.array([1.5]))
    assert gw[0] == pytest.approx(np.array([[1.5, 0.0], [3.0, 0.0]]))
    assert gb[0] == pytest.approx(np.array([1.5, 0.0]))


def test_loss_is_mean_over_batch():
    X = np.array([[1.0, 2.0], [0.0, 0.0]])
    y = np.array([1.0, 0.0])
    loss, _, _ = loss_and_grads(hand_model(), X, y)
    assert loss == pytest.approx((0.75**2 + 0.75**2) / 2)


def test_gradients_match_finite_differences_spot():
    rng = np.random.default_rng(4)
    model = mlp_init("dnn", 3, 17, cfg=TrainConfig(dnn_hidden=(5, 4)))
    for b in model.biases:
        b += rng.normal(0.0, 0.5, b.shape)
    X = rng.standard_normal((8, 3))
    y = rng.standard_normal(8)
    _, gw, _ = loss_and_grads(model, X, y)

    h = 1e-6
    W = model.weights[1]
    for idx in ((0, 0), (2, 1), (4, 3)):
        orig = W[idx]
        W[idx] = orig + h
        up = float(np.mean((mlp_forward(model, X) - y) ** 2))
        W[idx] = orig - h
        dn = float(np.mean((mlp_forward(model, X) - y) ** 2))
        W[idx] = orig
        assert gw[1][idx] == pytest.approx((up - dn) / (2 * h), rel=1e-4)


# ── Initialization ───────────────────────────────────────────────────────────


def test_init_shapes_and_zero_biases():
    model = mlp_init("dnn", 20, 7)
    assert [w.shape for w in model.weights] == [(20, 64), (64, 32), (32, 16), (16, 1)]
    assert all(np.all(b == 0.0) for b in model.biases)


def test_init_scale_tracks_fan_in():
    model = mlp_init("wnn", 100, 0)
    w = model.weights[0]
    assert w.std() == pytest.approx(1 / np.sqrt(100), rel=0.05)


def test_init_is_seed_deterministic():
    a = mlp_init("wnn", 10, 5)
    b = mlp_init("wnn", 10, 5)
    c = mlp_init("wnn", 10, 6)
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_model_with_a_mismatched_bias_is_rejected():
    good = hand_model()
    for biases in ([[0.5], [0.25]], good.biases[:1]):  # layer 0 has two units
        with pytest.raises(ValueError):
            MlpModel(good.weights, [np.asarray(b) for b in biases], good.arch, good.seed)
    MlpModel(good.weights, good.biases, good.arch, good.seed)


def test_unknown_arch_is_a_config_error():
    for arch in ("custom", "perceptron"):
        with pytest.raises(ConfigError):
            mlp_init(arch, 4, 0)


# ── Training ─────────────────────────────────────────────────────────────────


def _toy_matrices(n=120, seed=2):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, 4))
    y = np.maximum(X[:, 0], 0.0) + 0.5 * X[:, 1]
    cut = int(n * 0.8)
    return (
        FeatureMatrix.from_arrays(X[:cut], y[:cut]),
        FeatureMatrix.from_arrays(X[cut:], y[cut:]),
    )


def test_training_reduces_validation_mse():
    train, val = _toy_matrices()
    cfg = TrainConfig(epochs=60, learning_rate=1e-2, seed=3)
    init = mlp_init("dnn", 4, 3, cfg=TrainConfig(dnn_hidden=(16,)))
    model, history = mlp_train(init, train, val, cfg)
    assert history.val_mse[-1] < history.val_mse[0]
    assert min(history.val_mse) < 0.5 * history.val_mse[0]


def test_returned_model_is_the_best_validation_snapshot():
    train, val = _toy_matrices()
    cfg = TrainConfig(epochs=40, learning_rate=1e-2, seed=3)
    model, history = mlp_train(mlp_init("dnn", 4, 3, cfg=TrainConfig(dnn_hidden=(8,))), train, val, cfg)
    val_mse = float(np.mean((mlp_forward(model, val.rows) - val.target) ** 2))
    assert val_mse == pytest.approx(min(history.val_mse), abs=1e-12)
    assert history.best_epoch == int(np.argmin(history.val_mse))
    assert len(history) == cfg.epochs


def test_training_is_seed_deterministic():
    train, val = _toy_matrices()
    cfg = TrainConfig(epochs=10, seed=11)
    init = mlp_init("wnn", 4, 11)
    a, ha = mlp_train(init, train, val, cfg)
    b, hb = mlp_train(init, train, val, cfg)
    assert ha.train_mse == hb.train_mse
    assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


def test_training_does_not_mutate_the_initial_model():
    train, val = _toy_matrices()
    init = mlp_init("dnn", 4, 5, cfg=TrainConfig(dnn_hidden=(6,)))
    before = [w.copy() for w in init.weights]
    mlp_train(init, train, val, TrainConfig(epochs=3))
    assert all(np.array_equal(w, b) for w, b in zip(init.weights, before))


def test_divergence_raises_instead_of_returning_nans():
    train, val = _toy_matrices()
    cfg = TrainConfig(epochs=50, learning_rate=1e6, seed=0)
    with pytest.raises(TrainingDivergedError):
        mlp_train(mlp_init("dnn", 4, 0, cfg=TrainConfig(dnn_hidden=(8,))), train, val, cfg)


def test_train_rejects_mismatched_width():
    train, val = _toy_matrices()
    with pytest.raises(ValueError):
        mlp_train(mlp_init("dnn", 9, 0, cfg=TrainConfig(dnn_hidden=(4,))), train, val, TrainConfig(epochs=1))


@pytest.mark.parametrize("empty", ["train", "validation"])
def test_training_names_an_empty_matrix(empty):
    train, val = _toy_matrices()
    nothing = FeatureMatrix.from_arrays(np.empty((0, 4)), np.empty(0))
    if empty == "train":
        train = nothing
    else:
        val = nothing
    with pytest.raises(BusfluxError, match=f"the {empty} matrix has no rows"):
        mlp_train(mlp_init("wnn", 4, 1), train, val, TrainConfig(epochs=1))


def test_columns_are_stamped_on_the_trained_model():
    train, val = _toy_matrices()
    model, _ = mlp_train(mlp_init("wnn", 4, 1), train, val, TrainConfig(epochs=2))
    assert model.columns == tuple(train.column_names)


# ── In-place training against the straightforward loop ──────────────────────


def reference_train(model: MlpModel, train: FeatureMatrix, val: FeatureMatrix, cfg: TrainConfig):
    """The plain loop that mlp_train must reproduce bit for bit: a fresh
    gather per batch, freshly allocated activations and gradients, and a
    per-array update. Returns the best snapshot's weights and biases and the
    history, or raises TrainingDivergedError with mlp_train's message."""
    weights = [w.copy() for w in model.weights]
    biases = [b.copy() for b in model.biases]

    def forward(X):
        zs, acts = [], [X]
        with np.errstate(over="ignore", invalid="ignore"):
            for k, (W, b) in enumerate(zip(weights, biases)):
                zs.append(acts[-1] @ W + b)
                acts.append(zs[-1] if k == len(weights) - 1 else np.maximum(zs[-1], 0.0))
        return zs, acts

    def dataset_mse(X, y):
        diff = forward(X)[1][-1][:, 0] - y
        return float((diff * diff).mean())

    X_tr, y_tr = train.rows, train.target
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best, best_val = None, np.inf
    n = X_tr.shape[0]
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            X, y = X_tr[batch], y_tr[batch].reshape(-1, 1)
            zs, acts = forward(X)
            with np.errstate(over="ignore", invalid="ignore"):
                diff = acts[-1] - y
                loss = float((diff * diff).mean())
                grad_w, grad_b = [None] * len(weights), [None] * len(weights)
                delta = 2.0 * diff / X.shape[0]
                for k in range(len(weights) - 1, -1, -1):
                    grad_w[k] = acts[k].T @ delta
                    grad_b[k] = delta.sum(axis=0)
                    if k > 0:
                        delta = (delta @ weights[k].T) * (zs[k - 1] > 0.0)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}; lower the learning rate "
                    f"(currently {cfg.learning_rate})"
                )
            for k in range(len(weights)):
                weights[k] -= cfg.learning_rate * grad_w[k]
                biases[k] -= cfg.learning_rate * grad_b[k]
        train_mse = dataset_mse(X_tr, y_tr)
        val_mse = dataset_mse(val.rows, val.target)
        if not np.isfinite(train_mse) or not np.isfinite(val_mse):
            raise TrainingDivergedError(
                f"non-finite epoch MSE at epoch {epoch}; lower the learning rate"
            )
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
        if val_mse < best_val:
            best_val = val_mse
            best = ([w.copy() for w in weights], [b.copy() for b in biases])
            history.best_epoch = epoch
    return best[0], best[1], history


def _matrices(n, d, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n + n // 4, d))
    y = np.maximum(X[:, 0], 0.0) + 0.5 * X[:, 1] + 0.1 * rng.standard_normal(X.shape[0])
    return FeatureMatrix.from_arrays(X[:n], y[:n]), FeatureMatrix.from_arrays(X[n:], y[n:])


@pytest.mark.parametrize(
    "arch, n, d, cfg",
    [
        # 101 rows: the last batch of each epoch holds 5.
        ("wnn", 101, 4, TrainConfig(epochs=4, batch_size=32, learning_rate=1e-2, seed=3)),
        # Large enough for multithreaded BLAS on the epoch passes and the steps.
        ("wnn", 1000, 38, TrainConfig(epochs=2, batch_size=32, learning_rate=1e-2, seed=5)),
        ("dnn", 120, 6, TrainConfig(epochs=5, batch_size=16, learning_rate=1e-2, seed=8)),
        # batch_size >= n: one batch per epoch.
        ("dnn", 90, 3, TrainConfig(epochs=6, batch_size=90, learning_rate=5e-2, seed=1,
                                   dnn_hidden=(7, 5))),
        ("dnn", 90, 3, TrainConfig(epochs=6, batch_size=500, learning_rate=5e-2, seed=1,
                                   dnn_hidden=(7, 5))),
        ("dnn", 50, 5, TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=2,
                                   dnn_hidden=(6, 4))),
        # Train and val each span several forward blocks. Train holds
        # 8 * FORWARD_BLOCK + 1 rows, val 2 * FORWARD_BLOCK, so the last
        # train block is one row over a whole block.
        ("wnn", 8 * FORWARD_BLOCK + 1, 38,
         TrainConfig(epochs=2, batch_size=32, learning_rate=1e-2, seed=4)),
        ("dnn", 8 * FORWARD_BLOCK + 52, 10,
         TrainConfig(epochs=2, batch_size=64, learning_rate=1e-2, seed=6)),
    ],
)
def test_training_equals_the_reference_loop_bit_for_bit(arch, n, d, cfg):
    train, val = _matrices(n, d, seed=n + d)
    init = mlp_init(arch, d, cfg.seed, cfg=cfg)
    model, history = mlp_train(init, train, val, cfg)
    weights, biases, expected = reference_train(init, train, val, cfg)
    for got, want in zip(model.weights + model.biases, weights + biases):
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert history.train_mse == expected.train_mse
    assert history.val_mse == expected.val_mse
    assert history.best_epoch == expected.best_epoch


@pytest.mark.parametrize("n", [1, FORWARD_BLOCK - 1, FORWARD_BLOCK, 2 * FORWARD_BLOCK - 1,
                               2 * FORWARD_BLOCK, 5 * FORWARD_BLOCK + 1])
def test_blocked_forward_pass_has_the_whole_matrix_bits(n):
    model = mlp_init("wnn", 38, 9)
    X = np.random.default_rng(n).standard_normal((n, 38))
    whole = np.maximum(X @ model.weights[0] + model.biases[0], 0.0) @ model.weights[1]
    whole += model.biases[1]
    assert mlp_forward(model, X).tobytes() == whole[:, 0].tobytes()


def test_training_peak_does_not_grow_with_the_matrix():
    # An epoch pass over all 6,000 train rows at once would hold one array
    # per layer for every row: 6,000 x (256 + 1) float64, 12.3 MB, on its
    # own over the bound. A forward block takes at most 2 * FORWARD_BLOCK - 1
    # rows.
    n, d = 6000, 38
    train, val = _matrices(n, d, seed=1)
    cfg = TrainConfig(epochs=1, batch_size=32, seed=1)
    init = mlp_init("wnn", d, 1, cfg=cfg)
    gc.collect()
    tracemalloc.start()
    try:
        mlp_train(init, train, val, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    bound = 2_500_000
    assert n * (cfg.wnn_hidden[0] + 1) * 8 > 4 * bound
    assert peak < bound, f"peak {peak} B"


def test_divergence_is_raised_in_the_reference_loops_epoch():
    train, val = _matrices(200, 4, seed=0)
    # At 1e6 the reference loop diverges in epoch 1, at 2.0 in epoch 19.
    for lr, epochs in ((1e6, 5), (2.0, 40)):
        cfg = TrainConfig(epochs=epochs, batch_size=16, learning_rate=lr, seed=0)
        init = mlp_init("dnn", 4, 0, cfg=TrainConfig(dnn_hidden=(8, 8)))
        with pytest.raises(TrainingDivergedError) as expected:
            reference_train(init, train, val, cfg)
        with pytest.raises(TrainingDivergedError) as got:
            mlp_train(init, train, val, cfg)
        assert str(got.value) == str(expected.value)


def test_loss_and_grads_is_quiet_on_overflowing_weights():
    model = hand_model()
    for w in model.weights:
        w *= 1e150
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, grad_w, _ = loss_and_grads(model, np.array([[1.0, 2.0], [3.0, -1.0]]), np.zeros(2))
    assert not np.isfinite(loss)


def test_training_state_shares_no_memory_with_the_models(monkeypatch):
    train, val = _matrices(70, 4, seed=4)
    cfg = TrainConfig(epochs=3, batch_size=16)
    init = mlp_init("dnn", 4, 6, cfg=TrainConfig(dnn_hidden=(5, 3)))
    seen: list[np.ndarray] = []
    calls = {"loss_and_grads": 0, "mlp_forward": 0}

    def spy(name):
        fn = getattr(mlp_module, name)

        def wrapped(model, *args, **kwargs):
            calls[name] += 1
            seen.extend(model.weights + model.biases)
            for value in kwargs.values():
                seen.extend([value.grads, *value.out, *value.delta] if name == "loss_and_grads" else value)
            return fn(model, *args, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(mlp_module, name, spy(name))
    model, _ = mlp_train(init, train, val, cfg)
    # The steps and the epoch passes run through the module's own names.
    assert calls == {"loss_and_grads": 3 * 5, "mlp_forward": 2 * 3}
    for mine in model.weights + model.biases + init.weights + init.biases:
        assert not any(np.shares_memory(mine, buffer) for buffer in seen)
