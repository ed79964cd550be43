"""Linear regression: the minimum-norm least-squares solution.

``lr_fit`` solves ``[1, X] @ coef ≈ y`` with ``np.linalg.lstsq`` (SVD,
numpy's machine-precision ``rcond``). Among all coefficient vectors with
the least squared error it returns the one of least Euclidean norm, so a
rank-deficient design has one answer rather than a failure. The default
features are rank-deficient by construction: each one-hot group is full
dummy coding beside the intercept, and some columns are functions of
others. The model records the rank lstsq found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Annotated

from ..errors import BusfluxError
from ..features import FeatureMatrix
from ..lazy import numpy as np
from ..schema import LEFT_OUT


@dataclass(slots=True)
class LinearModel:
    arch = "lr"  # a class attribute, not a field
    theta: Annotated[np.ndarray, "float64", 1]
    bias: float
    rank: int
    columns: tuple[str, ...] | None = field(default=None, metadata=LEFT_OUT)

    @property
    def n_features(self) -> int:
        return self.theta.size

    def predict(self, X: np.ndarray) -> np.ndarray:
        return X @ self.theta + self.bias


def lr_fit(train: FeatureMatrix) -> LinearModel:
    """Minimum-norm least-squares fit of the target on an intercept and X."""
    if train.n_rows == 0:
        raise BusfluxError("cannot fit a linear model: the train matrix has no rows")
    A = np.concatenate([np.ones((train.n_rows, 1)), train.rows], axis=1)
    coef, _, rank, _ = np.linalg.lstsq(A, train.target, rcond=None)
    return LinearModel(
        theta=coef[1:],
        bias=float(coef[0]),
        rank=int(rank),
        columns=tuple(train.column_names),
    )
