"""The mean-squared-error loss the paper trains every autoencoder with.

``value`` and ``gradient`` run through a residual buffer acquired from a
:class:`repro.nn.workspace.Workspace` (a throwaway one when the caller
passes none) instead of allocating intermediates.  The gradient buffer
they hand back lives in the workspace and is consumed (and mutated) by
the backward pass of the same mini-batch step.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.workspace import Workspace


class MeanSquaredError:
    """MSE = mean over all elements of (y - y_hat)^2."""

    def value(
        self, y_true: np.ndarray, y_pred: np.ndarray, ws: Optional[Workspace] = None
    ) -> float:
        r = self._residual(y_true, y_pred, ws)
        np.subtract(y_true, y_pred, out=r)
        np.multiply(r, r, out=r)
        return float(np.mean(r))

    def gradient(
        self, y_true: np.ndarray, y_pred: np.ndarray, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        # 2 * (y_hat - y) / size
        r = self._residual(y_true, y_pred, ws)
        np.subtract(y_pred, y_true, out=r)
        np.multiply(r, 2.0, out=r)
        np.divide(r, y_true.size, out=r)
        return r

    @staticmethod
    def per_sample(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
        """Per-row MSE, used as the anomaly (reconstruction-error) score."""
        MeanSquaredError._check(y_true, y_pred)
        return np.mean((y_true - y_pred) ** 2, axis=1)

    @staticmethod
    def _residual(
        y_true: np.ndarray, y_pred: np.ndarray, ws: Optional[Workspace]
    ) -> np.ndarray:
        """A scratch buffer of the operands' shape and common dtype."""
        MeanSquaredError._check(y_true, y_pred)
        ws = ws or Workspace()
        return ws.acquire(y_true.shape, np.result_type(y_true, y_pred))

    @staticmethod
    def _check(y_true: np.ndarray, y_pred: np.ndarray) -> None:
        if y_true.shape != y_pred.shape:
            raise ValueError(f"shape mismatch: y_true {y_true.shape} vs y_pred {y_pred.shape}")
