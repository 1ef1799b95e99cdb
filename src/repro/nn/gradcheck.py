"""Finite-difference gradient checking.

Used by the test-suite to validate every layer's hand-written backward
pass against a numerical derivative of the loss.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.nn.layers import Layer
from repro.nn.losses import Loss, MeanSquaredError


def numerical_gradient(f: Callable[[np.ndarray], float], x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat_x = x.reshape(-1)
    flat_g = grad.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + eps
        f_plus = f(x)
        flat_x[i] = orig - eps
        f_minus = f(x)
        flat_x[i] = orig
        flat_g[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max element-wise relative error, with an absolute floor."""
    num = np.abs(a - b)
    den = np.maximum(np.abs(a) + np.abs(b), 1e-8)
    return float(np.max(num / den))


def check_layer_input_gradient(
    layer: Layer,
    x: np.ndarray,
    loss: Optional[Loss] = None,
    training: bool = True,
    eps: float = 1e-6,
) -> float:
    """Compare the layer's dL/dx against a numerical estimate.

    The scalar objective is ``loss(target=0, layer(x))``; returns the max
    relative error between analytic and numerical input gradients.
    """
    loss = loss or MeanSquaredError()
    x = np.asarray(x, dtype=np.float64)

    def objective(inp: np.ndarray) -> float:
        out = layer.forward(inp, training=training)
        return loss.value(np.zeros_like(out), out)

    out = layer.forward(x, training=training)
    analytic = layer.backward(loss.gradient(np.zeros_like(out), out))
    numeric = numerical_gradient(objective, x.copy(), eps=eps)
    return relative_error(analytic, numeric)


def check_layer_param_gradients(
    layer: Layer,
    x: np.ndarray,
    loss: Optional[Loss] = None,
    training: bool = True,
    eps: float = 1e-6,
) -> dict:
    """Check dL/dparam for every trainable parameter of the layer.

    Returns:
        Mapping of parameter name to max relative error.
    """
    loss = loss or MeanSquaredError()
    x = np.asarray(x, dtype=np.float64)

    out = layer.forward(x, training=training)
    layer.backward(loss.gradient(np.zeros_like(out), out))
    analytic = {p.name: p.grad.copy() for p in layer.parameters()}

    errors = {}
    for param in layer.parameters():

        def objective(value: np.ndarray, _param=param) -> float:
            _param.value = value
            out = layer.forward(x, training=training)
            return loss.value(np.zeros_like(out), out)

        numeric = numerical_gradient(objective, param.value.copy(), eps=eps)
        errors[param.name] = relative_error(analytic[param.name], numeric)
    return errors
