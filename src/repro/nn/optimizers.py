"""First-order optimizers.

The paper trains with Adadelta (Zeiler 2012); the others are provided for
ablations and tests.  Each optimizer keeps per-parameter state keyed by
``id(parameter)``, so the same optimizer instance must be used with a
fixed set of parameters for the whole training run (which is what
:class:`repro.nn.network.Sequential` does).

:meth:`Optimizer.step` runs every update through in-place ``out=``
kernels over scratch buffers from a :class:`repro.nn.workspace.Workspace`
(a throwaway one when the caller passes none): state arrays are
allocated once per parameter and mutated in place, and with a reused
workspace no per-parameter temporaries are created after the first
step.  Gradients must have their parameter's dtype; a float32 network
updates entirely in float32.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional

import numpy as np

from repro.nn.layers import Parameter
from repro.nn.workspace import Workspace


def _state_array(state: dict, key: str, param: Parameter) -> np.ndarray:
    """The named state array, zero-allocated on first use only.

    (``dict.setdefault(key, np.zeros_like(...))`` would evaluate -- and
    allocate -- the default on *every* call; this helper only pays on a
    genuine miss.)
    """
    array = state.get(key)
    if array is None:
        array = state[key] = np.zeros_like(param.value)
    return array


class Optimizer:
    """Base class; subclasses implement ``_update_one``."""

    def __init__(self, learning_rate: float):
        if learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {learning_rate}")
        self.learning_rate = learning_rate
        self._state: Dict[int, dict] = {}
        self.iterations = 0

    def step(self, parameters: Iterable[Parameter], ws: Optional[Workspace] = None) -> None:
        """Apply one update to every parameter using its current ``grad``.

        Raises:
            TypeError: a gradient's dtype differs from its parameter's.
        """
        ws = ws or Workspace()
        self.iterations += 1
        for param in parameters:
            if param.grad.dtype != param.value.dtype:
                raise TypeError(
                    f"gradient of {param.name!r} is {param.grad.dtype}, "
                    f"parameter is {param.value.dtype}"
                )
            state = self._state.get(id(param))
            if state is None:
                state = self._state[id(param)] = {}
            self._update_one(param, state, ws)

    def _update_one(self, param: Parameter, state: dict, ws: Workspace) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate: float = 0.01):
        super().__init__(learning_rate)

    def _update_one(self, param: Parameter, state: dict, ws: Workspace) -> None:
        del state
        # value -= lr * grad
        t = ws.acquire(param.grad.shape, param.grad.dtype)
        np.multiply(param.grad, self.learning_rate, out=t)
        param.value -= t


class Momentum(Optimizer):
    """SGD with classical momentum."""

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def _update_one(self, param: Parameter, state: dict, ws: Workspace) -> None:
        # velocity = momentum * velocity - lr * grad; value += velocity
        velocity = _state_array(state, "velocity", param)
        t = ws.acquire(param.grad.shape, param.grad.dtype)
        velocity *= self.momentum
        np.multiply(param.grad, self.learning_rate, out=t)
        velocity -= t
        param.value += velocity


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton)."""

    def __init__(self, learning_rate: float = 0.001, rho: float = 0.9, epsilon: float = 1e-7):
        super().__init__(learning_rate)
        self.rho = rho
        self.epsilon = epsilon

    def _update_one(self, param: Parameter, state: dict, ws: Workspace) -> None:
        # acc = rho * acc + (1 - rho) * grad**2
        # value -= lr * grad / (sqrt(acc) + eps)
        acc = _state_array(state, "acc", param)
        g = param.grad
        t1 = ws.acquire(g.shape, g.dtype)
        t2 = ws.acquire(g.shape, g.dtype)
        acc *= self.rho
        np.multiply(g, g, out=t1)
        np.multiply(t1, 1.0 - self.rho, out=t1)
        acc += t1
        np.multiply(g, self.learning_rate, out=t1)
        np.sqrt(acc, out=t2)
        np.add(t2, self.epsilon, out=t2)
        np.divide(t1, t2, out=t1)
        param.value -= t1


class Adadelta(Optimizer):
    """Adadelta (Zeiler 2012), the optimizer used in the paper.

    Maintains exponential moving averages of squared gradients and squared
    updates; the effective step size adapts per dimension without a
    manually tuned global learning rate.  ``learning_rate`` defaults to
    1.0, matching Zeiler's formulation (Keras' 0.001 default is a known
    footgun that effectively freezes training).
    """

    def __init__(self, learning_rate: float = 1.0, rho: float = 0.95, epsilon: float = 1e-6):
        super().__init__(learning_rate)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        self.rho = rho
        self.epsilon = epsilon

    def _update_one(self, param: Parameter, state: dict, ws: Workspace) -> None:
        acc_grad = _state_array(state, "acc_grad", param)
        acc_delta = _state_array(state, "acc_delta", param)
        g = param.grad
        t1 = ws.acquire(g.shape, g.dtype)
        t2 = ws.acquire(g.shape, g.dtype)
        # acc_grad = rho * acc_grad + (1 - rho) * grad**2
        acc_grad *= self.rho
        np.multiply(g, g, out=t1)
        np.multiply(t1, 1.0 - self.rho, out=t1)
        acc_grad += t1
        # update = sqrt(acc_delta + eps) / sqrt(acc_grad + eps) * grad
        np.add(acc_delta, self.epsilon, out=t1)
        np.sqrt(t1, out=t1)
        np.add(acc_grad, self.epsilon, out=t2)
        np.sqrt(t2, out=t2)
        np.divide(t1, t2, out=t1)
        np.multiply(t1, g, out=t1)
        # acc_delta = rho * acc_delta + (1 - rho) * update**2; value -= lr * update
        acc_delta *= self.rho
        np.multiply(t1, t1, out=t2)
        np.multiply(t2, 1.0 - self.rho, out=t2)
        acc_delta += t2
        np.multiply(t1, self.learning_rate, out=t1)
        param.value -= t1


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    def __init__(
        self,
        learning_rate: float = 0.001,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        super().__init__(learning_rate)
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon

    def _update_one(self, param: Parameter, state: dict, ws: Workspace) -> None:
        # m, v = moving averages of grad and grad**2;
        # value -= lr * m_hat / (sqrt(v_hat) + eps)
        m = _state_array(state, "m", param)
        v = _state_array(state, "v", param)
        t = state["t"] = state.get("t", 0) + 1
        g = param.grad
        t1 = ws.acquire(g.shape, g.dtype)
        t2 = ws.acquire(g.shape, g.dtype)
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=t1)
        m += t1
        v *= self.beta2
        np.multiply(g, g, out=t1)
        np.multiply(t1, 1.0 - self.beta2, out=t1)
        v += t1
        np.divide(m, 1.0 - self.beta1**t, out=t1)  # m_hat
        np.divide(v, 1.0 - self.beta2**t, out=t2)  # v_hat
        np.multiply(t1, self.learning_rate, out=t1)
        np.sqrt(t2, out=t2)
        np.add(t2, self.epsilon, out=t2)
        np.divide(t1, t2, out=t1)
        param.value -= t1


_OPTIMIZERS = {
    "sgd": SGD,
    "momentum": Momentum,
    "rmsprop": RMSProp,
    "adadelta": Adadelta,
    "adam": Adam,
}


def get_optimizer(name: str, **kwargs) -> Optimizer:
    """Instantiate an optimizer by name with optional hyper-parameters."""
    try:
        cls = _OPTIMIZERS[name]
    except KeyError:
        known = ", ".join(sorted(_OPTIMIZERS))
        raise ValueError(f"unknown optimizer {name!r}; expected one of: {known}") from None
    return cls(**kwargs)
