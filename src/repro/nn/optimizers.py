"""First-order optimizers.

The paper trains with Adadelta (Zeiler 2012); the others are provided for
ablations and tests.  Each optimizer keeps per-parameter state keyed by
``id(parameter)``, so the same optimizer instance must be used with a
fixed set of parameters for the whole training run (which is what
:class:`repro.nn.network.Sequential` does).

:meth:`Optimizer.step` is one cache-blocked loop shared by every
optimizer.  It walks flat views of each parameter's value, gradient and
state arrays in blocks of :data:`BLOCK_BYTES` per array, and a subclass only
supplies ``_update_block``: the in-place ``out=`` kernels for one block.
An update is elementwise, so every element sees the same operations in
the same order as an unblocked update (the results are bit-identical),
but all of a block's passes run while its arrays are still in cache
instead of streaming each full weight matrix through memory once per
pass.  The two scratch buffers come from a
:class:`repro.nn.workspace.Workspace` (a throwaway one when the caller
passes none) once per step, at block size; state arrays are allocated
once per parameter and mutated in place.  Gradients must have their
parameter's dtype; a float32 network updates entirely in float32.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.nn.layers import Parameter
from repro.nn.workspace import Workspace

#: Bytes per array in one block of :meth:`Optimizer.step`: 64 Ki
#: elements in float32, 32 Ki in float64.  Adadelta's block working set
#: is six such arrays (value, gradient, two accumulators, two scratch),
#: 1.5 MiB, which stays within a 2 MiB per-core L2 while a block is long
#: enough that the per-block call overhead is negligible.  Results do not
#: depend on it.
BLOCK_BYTES = 256 * 1024


class Optimizer:
    """Base class; subclasses implement ``_update_block``.

    ``slots`` names the per-parameter state arrays (zero-initialised, in
    the parameter's shape and dtype); ``_update_block`` receives their
    blocks in that order after the value and gradient blocks.
    """

    slots: Tuple[str, ...] = ()

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
            ValueError: a parameter's value is not C-contiguous (a flat
                view of it would be a copy, and the update would be lost).
        """
        ws = ws or Workspace()
        self.iterations += 1
        parameters = list(parameters)
        largest = max((p.value.size for p in parameters), default=0)
        scratch: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}
        for param in parameters:
            value = param.value
            if param.grad.dtype != value.dtype:
                raise TypeError(
                    f"gradient of {param.name!r} is {param.grad.dtype}, "
                    f"parameter is {value.dtype}"
                )
            if not value.flags.c_contiguous:
                raise ValueError(f"parameter {param.name!r} is not C-contiguous")
            state = self._state.get(id(param))
            if state is None:
                state = self._state[id(param)] = {
                    name: np.zeros(value.shape, value.dtype) for name in self.slots
                }
            block = BLOCK_BYTES // value.itemsize
            pair = scratch.get(value.dtype)
            if pair is None:
                size = min(block, largest)
                pair = scratch[value.dtype] = (
                    ws.acquire((size,), value.dtype),
                    ws.acquire((size,), value.dtype),
                )
            t1, t2 = pair
            scalars = self._scalars(state)
            flat = [value.reshape(-1), param.grad.reshape(-1)]
            flat += [state[name].reshape(-1) for name in self.slots]
            n = value.size
            for start in range(0, n, block):
                stop = min(start + block, n)
                k = stop - start
                self._update_block(*(a[start:stop] for a in flat), t1[:k], t2[:k], *scalars)

    def _scalars(self, state: dict) -> tuple:
        """Per-parameter scalars for this step, passed after the scratch.

        Called once per parameter per step, before its blocks.
        """
        del state
        return ()

    def _update_block(self, value: np.ndarray, grad: np.ndarray, *arrays) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def __init__(self, learning_rate: float = 0.01):
        super().__init__(learning_rate)

    def _update_block(self, value, grad, t1, t2) -> None:
        del t2
        # value -= lr * grad
        np.multiply(grad, self.learning_rate, out=t1)
        value -= t1


class Momentum(Optimizer):
    """SGD with classical momentum."""

    slots = ("velocity",)

    def __init__(self, learning_rate: float = 0.01, momentum: float = 0.9):
        super().__init__(learning_rate)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = momentum

    def _update_block(self, value, grad, velocity, t1, t2) -> None:
        del t2
        # velocity = momentum * velocity - lr * grad; value += velocity
        velocity *= self.momentum
        np.multiply(grad, self.learning_rate, out=t1)
        velocity -= t1
        value += velocity


class RMSProp(Optimizer):
    """RMSProp (Tieleman & Hinton)."""

    slots = ("acc",)

    def __init__(self, learning_rate: float = 0.001, rho: float = 0.9, epsilon: float = 1e-7):
        super().__init__(learning_rate)
        self.rho = rho
        self.epsilon = epsilon

    def _update_block(self, value, grad, acc, t1, t2) -> None:
        # acc = rho * acc + (1 - rho) * grad**2
        # value -= lr * grad / (sqrt(acc) + eps)
        acc *= self.rho
        np.multiply(grad, grad, out=t1)
        np.multiply(t1, 1.0 - self.rho, out=t1)
        acc += t1
        np.multiply(grad, self.learning_rate, out=t1)
        np.sqrt(acc, out=t2)
        np.add(t2, self.epsilon, out=t2)
        np.divide(t1, t2, out=t1)
        value -= t1


class Adadelta(Optimizer):
    """Adadelta (Zeiler 2012), the optimizer used in the paper.

    Maintains exponential moving averages of squared gradients and squared
    updates; the effective step size adapts per dimension without a
    manually tuned global learning rate.  ``learning_rate`` defaults to
    1.0, matching Zeiler's formulation (Keras' 0.001 default is a known
    footgun that effectively freezes training).
    """

    slots = ("acc_grad", "acc_delta")

    def __init__(self, learning_rate: float = 1.0, rho: float = 0.95, epsilon: float = 1e-6):
        super().__init__(learning_rate)
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must be in (0, 1), got {rho}")
        self.rho = rho
        self.epsilon = epsilon

    def _update_block(self, value, grad, acc_grad, acc_delta, t1, t2) -> None:
        # acc_grad = rho * acc_grad + (1 - rho) * grad**2
        acc_grad *= self.rho
        np.multiply(grad, grad, out=t1)
        np.multiply(t1, 1.0 - self.rho, out=t1)
        acc_grad += t1
        # update = sqrt(acc_delta + eps) / sqrt(acc_grad + eps) * grad
        np.add(acc_delta, self.epsilon, out=t1)
        np.sqrt(t1, out=t1)
        np.add(acc_grad, self.epsilon, out=t2)
        np.sqrt(t2, out=t2)
        np.divide(t1, t2, out=t1)
        np.multiply(t1, grad, out=t1)
        # acc_delta = rho * acc_delta + (1 - rho) * update**2; value -= lr * update
        acc_delta *= self.rho
        np.multiply(t1, t1, out=t2)
        np.multiply(t2, 1.0 - self.rho, out=t2)
        acc_delta += t2
        np.multiply(t1, self.learning_rate, out=t1)
        value -= t1


class Adam(Optimizer):
    """Adam (Kingma & Ba 2015) with bias correction."""

    slots = ("m", "v")

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

    def _scalars(self, state: dict) -> tuple:
        # The step count advances once per step, however many blocks.
        t = state["t"] = state.get("t", 0) + 1
        return 1.0 - self.beta1**t, 1.0 - self.beta2**t

    def _update_block(self, value, grad, m, v, t1, t2, correction1, correction2) -> None:
        # m, v = moving averages of grad and grad**2;
        # value -= lr * m_hat / (sqrt(v_hat) + eps)
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=t1)
        m += t1
        v *= self.beta2
        np.multiply(grad, grad, out=t1)
        np.multiply(t1, 1.0 - self.beta2, out=t1)
        v += t1
        np.divide(m, correction1, out=t1)  # m_hat
        np.divide(v, correction2, out=t2)  # v_hat
        np.multiply(t1, self.learning_rate, out=t1)
        np.sqrt(t2, out=t2)
        np.add(t2, self.epsilon, out=t2)
        np.divide(t1, t2, out=t1)
        value -= t1


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
