"""Versioned JSON persistence for trained models and training histories."""

from __future__ import annotations

import os
from typing import Union

import numpy as np

from ..errors import ParseError
from ..schema import read_json, read_table, real, to_dict, write_json, write_table
from .boosting import GbtEnsemble
from .config import TrainConfig
from .linear import LinearModel
from .mlp import ARCH_DNN, ARCH_WNN, MlpModel, TrainHistory
from .tree import RegressionTree

FORMAT_VERSION = 2

_MLP_ARCHS = (ARCH_WNN, ARCH_DNN)


def _arch_of(model) -> str:
    if isinstance(model, LinearModel):
        return "lr"
    if isinstance(model, MlpModel):
        return model.arch
    if isinstance(model, RegressionTree):
        return "cart"
    if isinstance(model, GbtEnsemble):
        return "gbt"
    raise TypeError(f"cannot serialize model of type {type(model).__name__}")


def save_model(
    model,
    dest: Union[str, os.PathLike],
    config: TrainConfig | None = None,
) -> None:
    """Write a model as deterministic compact JSON (sorted keys, no whitespace)."""
    payload = {
        "format_version": FORMAT_VERSION,
        "arch": _arch_of(model),
        "columns": list(model.columns) if model.columns is not None else None,
        "parameters": model.to_dict(),
        "config": to_dict(config) if config is not None else None,
        "seed": getattr(model, "seed", None),
    }
    write_json(dest, payload, compact=True)


def load_model(source: Union[str, os.PathLike]):
    with read_json(source, FORMAT_VERSION) as payload:
        arch = payload["arch"]
        columns = tuple(payload["columns"]) if payload.get("columns") is not None else None
        params = payload["parameters"]
        if arch == "lr":
            return LinearModel.from_dict(params, columns=columns)
        if arch in _MLP_ARCHS:
            return MlpModel.from_dict(params, columns=columns)
        if arch == "cart":
            return RegressionTree.from_dict(params, columns=columns)
        if arch == "gbt":
            return GbtEnsemble.from_dict(params, columns=columns)
    raise ParseError(f"unknown model arch {arch!r} in {source}")


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
        history.best_epoch = int(np.argmin(history.val_mse))
    return history
