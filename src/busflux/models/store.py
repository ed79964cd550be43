"""Versioned JSON persistence for trained models and training histories."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Union

from ..errors import ParseError
from ..schema import (from_dict, read_artifact, read_table, real, to_dict, write_artifact,
                      write_table)
from .boosting import GbtEnsemble
from .config import MODEL_ARCHS, TrainConfig
from .linear import LinearModel
from .mlp import ARCH_DNN, ARCH_WNN, MlpModel, TrainHistory
from .tree import RegressionTree

FORMAT_VERSION = 2

# The class of each arch a model file may name; a class names its own arch.
MODELS = dict(zip(MODEL_ARCHS, (LinearModel, MlpModel, MlpModel, RegressionTree, GbtEnsemble)))


@dataclass(slots=True)
class ModelFile:
    """A model file; ``parameters`` hold a ``MODELS[arch]`` without its ``columns``."""

    arch: str
    columns: tuple[str, ...] | None
    parameters: dict
    config: TrainConfig | None
    seed: int | None


def save_model(
    model,
    dest: Union[str, os.PathLike],
    config: TrainConfig | None = None,
) -> None:
    """Write a model as deterministic compact JSON (sorted keys, no whitespace)."""
    if MODELS.get(getattr(model, "arch", None)) is not type(model):
        raise TypeError(f"cannot serialize model of type {type(model).__name__}")
    stored = ModelFile(model.arch, model.columns, to_dict(model), config, getattr(model, "seed", None))
    write_artifact(dest, stored, FORMAT_VERSION, compact=True)


def load_model(source: Union[str, os.PathLike]):
    """The model in ``source``, with the input names it was trained on.

    A file whose ``columns`` do not name one input per model feature is
    rejected, as is an arch that ``MODELS`` does not hold.
    """
    stored = read_artifact(ModelFile, source, FORMAT_VERSION)
    if stored.arch not in MODELS:
        raise ParseError(f"unknown model arch {stored.arch!r} in {source}")
    model = from_dict(MODELS[stored.arch], stored.parameters, source=source, key="parameters")
    if model.arch != stored.arch:
        raise ParseError(f"{source}: arch {stored.arch!r}, but parameters.arch {model.arch!r}")
    if stored.columns is not None and len(stored.columns) != model.n_features:
        raise ParseError(f"{source}: columns has {len(stored.columns)} names, "
                         f"but the {stored.arch} model takes {model.n_features} inputs")
    model.columns = stored.columns
    return model


HISTORY_HEADER = ("epoch", "train_mse", "val_mse")


def write_history_csv(history: TrainHistory, dest: Union[str, os.PathLike]) -> None:
    """Per-epoch loss curve; the epoch column is 1-based for plotting."""
    write_table(
        dest,
        HISTORY_HEADER,
        ((i + 1, tr, va) for i, (tr, va) in enumerate(zip(history.train_mse, history.val_mse))),
    )


def read_history_csv(source: Union[str, os.PathLike]) -> TrainHistory:
    history = TrainHistory()
    for _, train_mse, val_mse in read_table(source, HISTORY_HEADER, (int, real, real)):
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
    if history.val_mse:
        history.best_epoch = history.val_mse.index(min(history.val_mse))
    return history
