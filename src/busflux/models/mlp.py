"""Multilayer perceptron for count regression, trained by minibatch SGD.

Hidden layers apply ReLU; the output layer is identity so the network can
emit unbounded real counts. Two stock architectures are exposed: a wide
net with a single hidden layer and a deep net with three.

Training runs in place. The weights and biases being trained are views of
one flat parameter vector; each step writes its gradients into a flat
vector of the same layout, and the update is one multiply and one subtract
over the whole vector. Each batch gathers its own shuffled rows, so no
step holds more than one batch's copy of the training matrix, and every
batch and epoch pass writes into arrays allocated once per fit. The
floating-point operations and their order are those of freshly allocated
gradients and a per-array update, so the trained weights and the history
are the same bits (tests/test_mlp.py keeps that loop as the reference).

A forward pass over many rows (each epoch's train and validation MSE, and
predict) runs one block of rows at a time into a prediction vector, so its
activations take memory for one block, not for the whole matrix. Each block
holds FORWARD_BLOCK to 2 * FORWARD_BLOCK - 1 rows, the last one taking the
remainder, and a matrix with fewer rows is one block. Every block's
products then keep a row count at which BLAS gives each row the bits of the
whole-matrix product; a one-row product goes to gemv, which may not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import BusfluxError, ConfigError, TrainingDivergedError
from ..features import FeatureMatrix
from ..lazy import numpy as np
from .config import TrainConfig

ARCH_WNN = "wnn"
ARCH_DNN = "dnn"

# Rows per block of a forward pass over many rows (see the module docstring).
FORWARD_BLOCK = 256


@dataclass(slots=True)
class MlpModel:
    weights: list[np.ndarray]  # each (n_in, n_out)
    biases: list[np.ndarray]  # each (n_out,)
    arch: str
    seed: int
    columns: tuple[str, ...] | None = None

    @property
    def n_features(self) -> int:
        return int(self.weights[0].shape[0])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return mlp_forward(self, X)

    def clone(self) -> "MlpModel":
        return MlpModel(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            arch=self.arch,
            seed=self.seed,
            columns=self.columns,
        )

    def check_shapes(self) -> None:
        if len(self.biases) != len(self.weights):
            raise ValueError("need one bias vector per weight matrix")
        for k, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != (W.shape[1],):
                raise ValueError(f"layer {k} bias does not match its weight matrix")
        for k in range(1, len(self.weights)):
            if self.weights[k].shape[0] != self.weights[k - 1].shape[1]:
                raise ValueError(f"layer {k} input dim does not chain from layer {k - 1}")
        if self.weights[-1].shape[1] != 1:
            raise ValueError("output layer must have exactly one unit")

    def to_dict(self) -> dict:
        return {
            "arch": self.arch,
            "seed": self.seed,
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MlpModel":
        model = cls(
            weights=[np.array(w, dtype=np.float64) for w in data["weights"]],
            biases=[np.array(b, dtype=np.float64) for b in data["biases"]],
            arch=str(data["arch"]),
            seed=int(data["seed"]),
        )
        model.check_shapes()
        return model


def mlp_init(
    arch: str,
    n_features: int,
    seed: int,
    *,
    cfg: TrainConfig | None = None,
    columns: tuple[str, ...] | None = None,
) -> MlpModel:
    """Seeded initialization: N(0,1)/sqrt(fan_in) weights, zero biases.

    The hidden widths are ``cfg.wnn_hidden`` or ``cfg.dnn_hidden``, which
    TrainConfig checks."""
    if n_features < 1:
        raise ConfigError("n_features must be >= 1")
    if arch not in (ARCH_WNN, ARCH_DNN):
        raise ConfigError(f"unknown architecture {arch!r}")
    cfg = cfg or TrainConfig(seed=seed)
    widths = cfg.wnn_hidden if arch == ARCH_WNN else cfg.dnn_hidden
    rng = np.random.default_rng(seed)
    dims = (n_features, *widths, 1)
    weights, biases = [], []
    for n_in, n_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.standard_normal((n_in, n_out)) / np.sqrt(n_in))
        biases.append(np.zeros(n_out, dtype=np.float64))
    return MlpModel(weights=weights, biases=biases, arch=arch, seed=seed, columns=columns)


def _layer_outputs(model: MlpModel, rows: int) -> list[np.ndarray]:
    """One (rows, width) array per layer, for a forward pass to write into."""
    return [np.empty((rows, W.shape[1]), dtype=np.float64) for W in model.weights]


def _flat_views(flat: np.ndarray, model: MlpModel) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views of flat shaped like model.weights and model.biases, laid out
    layer after layer as W_0, b_0, W_1, b_1, ..."""
    weights: list[np.ndarray] = []
    biases: list[np.ndarray] = []
    at = 0
    for W in model.weights:
        weights.append(flat[at : at + W.size].reshape(W.shape))
        at += W.size
        biases.append(flat[at : at + W.shape[1]])
        at += W.shape[1]
    return weights, biases


@dataclass(slots=True)
class StepBuffers:
    """Scratch arrays for loss_and_grads on batches of at most `rows` samples:
    each layer's output and dL/dz, each hidden layer's ReLU mask, and the
    gradients as views into one flat vector laid out like the flat parameter
    vector mlp_train updates."""

    out: list[np.ndarray]
    delta: list[np.ndarray]
    mask: list[np.ndarray]
    grads: np.ndarray
    grad_w: list[np.ndarray]
    grad_b: list[np.ndarray]

    @classmethod
    def for_model(cls, model: MlpModel, rows: int) -> "StepBuffers":
        grads = np.empty(sum(W.size + W.shape[1] for W in model.weights), dtype=np.float64)
        grad_w, grad_b = _flat_views(grads, model)
        return cls(
            out=_layer_outputs(model, rows),
            delta=_layer_outputs(model, rows),
            mask=[np.empty((rows, W.shape[1]), dtype=bool) for W in model.weights[:-1]],
            grads=grads,
            grad_w=grad_w,
            grad_b=grad_b,
        )


def _forward_into(model: MlpModel, X: np.ndarray, out: list[np.ndarray]) -> list[np.ndarray]:
    """Forward pass writing each layer's activation into the first len(X)
    rows of its array in out; returns those views. A hidden layer's ReLU is
    applied in place, which keeps its z > 0 mask: max(z, 0) > 0 iff z > 0."""
    n = X.shape[0]
    acts: list[np.ndarray] = []
    a = X
    last = len(model.weights) - 1
    for k, (W, b) in enumerate(zip(model.weights, model.biases)):
        a = np.matmul(a, W, out=out[k][:n])
        a += b
        if k < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def _blocks(n: int) -> list[slice]:
    """Row blocks of FORWARD_BLOCK rows, the last one taking the remainder:
    each holds FORWARD_BLOCK to 2 * FORWARD_BLOCK - 1 rows, or all n rows
    when n is below FORWARD_BLOCK."""
    starts = list(range(0, n - FORWARD_BLOCK + 1, FORWARD_BLOCK)) or [0]
    return [slice(lo, hi) for lo, hi in zip(starts, [*starts[1:], n])]


def _forward_rows(n: int) -> int:
    """Rows that a forward pass over n rows needs in each layer's array."""
    return min(n, 2 * FORWARD_BLOCK - 1)


def mlp_forward(
    model: MlpModel, x: np.ndarray, *, out: list[np.ndarray] | None = None
) -> np.ndarray | float:
    """Predict for a single feature vector or a batch (rows = samples).

    One call is one pass. A batch is run a block of rows at a time (see the
    module docstring) into a new prediction vector, with the bits of a pass
    over the whole batch at once. out, if given, holds one array per layer
    with at least min(len(batch), 2 * FORWARD_BLOCK - 1) rows and the
    layer's width, and the blocks' activations are written into it; by
    default each call allocates its own.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if X.shape[1] != model.n_features:
        raise ValueError(f"expected {model.n_features} features, got {X.shape[1]}")
    n = X.shape[0]
    out = out or _layer_outputs(model, _forward_rows(n))
    pred = np.empty(n, dtype=np.float64)
    # Tolerate overflow to inf: training checks the loss for finiteness and
    # raises a domain error, which beats a warning mid-divergence.
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _blocks(n):
            pred[block] = _forward_into(model, X[block], out)[-1][:, 0]
    return float(pred[0]) if single else pred


def loss_and_grads(
    model: MlpModel, X: np.ndarray, y: np.ndarray, *, buffers: StepBuffers | None = None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """MSE loss over the batch and its exact gradients by backpropagation.

    Loss = mean((pred - y)^2). ReLU uses the z > 0 subgradient at the kink.
    Returned gradient lists are ordered like model.weights / model.biases.
    With buffers (sized for at least len(X) rows) every intermediate and
    the gradients are written into them, and the returned lists are views
    of buffers.grads that the next call overwrites; by default each call
    allocates its own.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).reshape(-1, 1)
    n = X.shape[0]
    buffers = buffers or StepBuffers.for_model(model, n)
    # Overflow here is possible while diverging; the caller checks the loss
    # for finiteness, so let the arithmetic proceed quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        acts = _forward_into(model, X, buffers.out)
        diff = acts[-1]
        diff -= y
        delta = buffers.delta[-1][:n]
        np.multiply(diff, diff, out=delta)
        loss = float(delta.mean())
        np.multiply(diff, 2.0, out=delta)
        delta /= n  # dL/dz for the identity output layer
        for k in range(len(model.weights) - 1, -1, -1):
            np.matmul((acts[k - 1] if k > 0 else X).T, delta, out=buffers.grad_w[k])
            np.sum(delta, axis=0, out=buffers.grad_b[k])
            if k > 0:
                mask = np.greater(acts[k - 1], 0.0, out=buffers.mask[k - 1][:n])
                delta = np.matmul(delta, model.weights[k].T, out=buffers.delta[k - 1][:n])
                delta *= mask
    return loss, buffers.grad_w, buffers.grad_b


@dataclass(slots=True)
class TrainHistory:
    train_mse: list[float] = field(default_factory=list)
    val_mse: list[float] = field(default_factory=list)
    best_epoch: int = 0

    def __len__(self) -> int:
        return len(self.train_mse)


def _dataset_mse(model: MlpModel, X: np.ndarray, y: np.ndarray, out: list[np.ndarray]) -> float:
    diff = mlp_forward(model, X, out=out) - y
    return float((diff * diff).mean())


def mlp_train(
    model: MlpModel,
    train: FeatureMatrix,
    val: FeatureMatrix,
    cfg: TrainConfig,
) -> tuple[MlpModel, TrainHistory]:
    """Minibatch SGD on MSE with seeded batch order.

    Records train/val MSE once per epoch (after that epoch's updates) and
    returns the parameter snapshot from the epoch with the lowest validation
    MSE — selection after the fact, not early stopping, so the history
    always spans exactly cfg.epochs entries. Neither the returned model
    nor the caller's shares memory with the training state.
    """
    model.check_shapes()
    for name, matrix in (("train", train), ("validation", val)):
        if matrix.n_rows == 0:
            raise BusfluxError(f"cannot train a network: the {name} matrix has no rows")
    X_tr, y_tr, X_val, y_val = train.rows, train.target, val.rows, val.target
    if X_tr.shape[1] != model.n_features:
        raise ValueError(
            f"train matrix has {X_tr.shape[1]} features, model expects {model.n_features}"
        )
    params = np.concatenate([a.ravel() for pair in zip(model.weights, model.biases) for a in pair])
    weights, biases = _flat_views(params, model)
    model = MlpModel(
        weights=weights,
        biases=biases,
        arch=model.arch,
        seed=model.seed,
        columns=model.columns if model.columns is not None else tuple(train.column_names),
    )
    n = X_tr.shape[0]
    step = StepBuffers.for_model(model, min(cfg.batch_size, n))
    update = np.empty_like(params)
    epoch_out = _layer_outputs(model, _forward_rows(max(n, X_val.shape[0])))
    rng = np.random.default_rng(cfg.seed)
    history = TrainHistory()
    best = model.clone()
    best_val = np.inf
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for lo in range(0, n, cfg.batch_size):
            rows = order[lo : lo + cfg.batch_size]
            loss, _, _ = loss_and_grads(model, X_tr[rows], y_tr[rows], buffers=step)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}; lower the learning rate "
                    f"(currently {cfg.learning_rate})"
                )
            np.multiply(step.grads, cfg.learning_rate, out=update)
            params -= update
        train_mse = _dataset_mse(model, X_tr, y_tr, epoch_out)
        val_mse = _dataset_mse(model, X_val, y_val, epoch_out)
        if not np.isfinite(train_mse) or not np.isfinite(val_mse):
            raise TrainingDivergedError(
                f"non-finite epoch MSE at epoch {epoch}; lower the learning rate"
            )
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
        if val_mse < best_val:
            best_val = val_mse
            best = model.clone()
            history.best_epoch = epoch
    return best, history
