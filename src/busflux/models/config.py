"""Training hyperparameters shared across the model implementations."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigError

# The archs a model file may name, which are also `train --model`'s choices.
MODEL_ARCHS = ("lr", "wnn", "dnn", "cart", "gbt")


@dataclass(frozen=True, slots=True)
class CartParams:
    """Regression-tree growth limits.

    max_depth counts split levels below the root (1 allows a single split);
    min_leaf is the minimum sample count either child of a split may have.
    """

    max_depth: int = 8
    min_leaf: int = 5

    def __post_init__(self):
        if self.max_depth < 1:
            raise ConfigError("cart max_depth must be >= 1")
        if self.min_leaf < 1:
            raise ConfigError("cart min_leaf must be >= 1")


@dataclass(frozen=True, slots=True)
class GbtParams:
    # n_trees = 0 is allowed deliberately: it yields the mean predictor,
    # which doubles as a baseline and as a boundary case in tests.
    n_trees: int = 100
    depth: int = 3
    shrinkage: float = 0.1

    def __post_init__(self):
        if self.n_trees < 0:
            raise ConfigError("gbt n_trees must be >= 0")
        if self.depth < 1:
            raise ConfigError("gbt depth must be >= 1")
        if not 0.0 < self.shrinkage <= 1.0:
            raise ConfigError("gbt shrinkage must lie in (0, 1]")


@dataclass(frozen=True, slots=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    learning_rate: float = 1e-3
    seed: int = 7
    wnn_hidden: tuple[int, ...] = (256,)
    dnn_hidden: tuple[int, ...] = (64, 32, 16)
    cart: CartParams = field(default_factory=CartParams)
    gbt: GbtParams = field(default_factory=GbtParams)

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("train seed must be a nonnegative integer")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        # learning_rate = 0 is valid (a no-op run); negative rates are not.
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        for name, widths in (("wnn_hidden", self.wnn_hidden), ("dnn_hidden", self.dnn_hidden)):
            if len(widths) == 0 or any(w < 1 for w in widths):
                raise ConfigError(f"{name} must be a non-empty tuple of positive widths")
