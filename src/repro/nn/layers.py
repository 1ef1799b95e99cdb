"""Layers with explicit forward/backward passes.

Every layer follows the same contract:

* ``forward(x, training)`` consumes a batch ``(n, d_in)`` and returns
  ``(n, d_out)``, caching whatever the backward pass needs.
* ``backward(grad_out)`` consumes ``dL/d(output)`` and returns
  ``dL/d(input)``, storing parameter gradients on each
  :class:`Parameter`'s ``grad`` attribute.
* ``parameters()`` yields the layer's trainable :class:`Parameter`s.

Gradients are *overwritten* (not accumulated) on each backward call, which
matches how the :class:`repro.nn.network.Sequential` training loop uses
them: one backward per mini-batch followed immediately by an optimizer
step.

Workspace kernels
-----------------

Both methods take an optional ``ws`` -- a
:class:`repro.nn.workspace.Workspace` buffer arena -- and run every
intermediate through ``out=``-parameter ufunc and ``np.matmul`` kernels
over its recycled scratch buffers, so the steady-state training loop
performs zero array allocation.  A call without ``ws`` gets a fresh
throwaway arena (same arithmetic, buffers simply not reused).  Outputs
are acquired in ``np.result_type`` of their operands, so a standalone
mixed-dtype call promotes exactly as numpy's operators do; inside
:class:`repro.nn.network.Sequential` every operand is already the
network's dtype.

Two contracts follow from buffer reuse:

* a gradient passed to ``backward(grad, ws)`` may be **mutated in
  place** and/or returned as ``dL/d(input)``; callers must treat the
  buffer as consumed (the training loop does);
* arrays returned from ``forward``/``backward`` live in the arena and
  are only valid until the workspace's next generation
  (:meth:`~repro.nn.workspace.Workspace.reset`); callers that keep
  results must copy them out (``Sequential.predict`` does).
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.nn.initializers import get_initializer
from repro.nn.workspace import Workspace


class Parameter:
    """A trainable tensor together with its current gradient.

    ``dtype`` is honoured at construction, so building a float32 network
    allocates float32 storage directly instead of allocating float64 and
    re-allocating in :meth:`Layer.cast` (the cast producing the same
    bits either way -- ``asarray(value, dtype)`` is the same conversion
    ``astype`` performs).

    ``value`` is stored C-contiguous: the optimizers update it in place
    through a flat view, which any other layout would make a copy.
    """

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray, dtype=np.float64):
        self.name = name
        self.value = np.asarray(value, dtype=np.dtype(dtype), order="C")
        self.grad = np.zeros_like(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class for all layers."""

    #: set by Sequential.build(); layers that need no build keep it True
    built = True

    def build(self, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> int:
        """Allocate parameters for ``input_dim`` inputs; return output dim."""
        del rng, dtype
        return input_dim

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Iterable[Parameter]:
        return ()

    def cast(self, dtype: np.dtype) -> None:
        """Convert trainable state to ``dtype`` (float32/float64).

        A no-op (no reallocation) for state already stored as ``dtype``,
        which since :class:`Parameter` honours the build dtype is the
        common case.
        """
        for p in self.parameters():
            if p.value.dtype != dtype:
                p.value = p.value.astype(dtype)
            if p.grad.dtype != dtype:
                p.grad = p.grad.astype(dtype)

    # State dictionaries are used by repro.nn.serialization.
    def state_dict(self) -> dict:
        return {p.name: p.value.copy() for p in self.parameters()}

    def load_state_dict(self, state: dict) -> None:
        for p in self.parameters():
            if p.name not in state:
                raise KeyError(f"missing parameter {p.name!r} in state dict")
            loaded = np.asarray(state[p.name], dtype=p.value.dtype, order="C")
            if loaded.shape != p.value.shape:
                raise ValueError(
                    f"shape mismatch for {p.name!r}: "
                    f"expected {p.value.shape}, got {loaded.shape}"
                )
            p.value = loaded


class Dense(Layer):
    """Fully-connected layer: ``y = x @ W + b``.

    Mirrors ``tensorflow.keras.layers.Dense`` (without fused activation;
    activations are separate layers here, which is mathematically
    identical and keeps backward passes simple).
    """

    built = False

    def __init__(
        self,
        units: int,
        kernel_initializer: str = "glorot_uniform",
        bias_initializer: str = "zeros",
        use_bias: bool = True,
    ):
        if units <= 0:
            raise ValueError(f"units must be positive, got {units}")
        self.units = units
        self._kernel_init = get_initializer(kernel_initializer)
        self._bias_init = get_initializer(bias_initializer)
        self.use_bias = use_bias
        self.weight: Optional[Parameter] = None
        self.bias: Optional[Parameter] = None
        self._x: Optional[np.ndarray] = None

    def build(self, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> int:
        self.weight = Parameter(
            "weight", self._kernel_init((input_dim, self.units), rng), dtype=dtype
        )
        if self.use_bias:
            self.bias = Parameter(
                "bias", self._bias_init((1, self.units), rng).reshape(self.units), dtype=dtype
            )
        self.built = True
        return self.units

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        if not self.built:
            raise RuntimeError("Dense layer used before build()")
        ws = ws or Workspace()
        self._x = x
        out = ws.acquire((x.shape[0], self.units), np.result_type(x, self.weight.value))
        np.matmul(x, self.weight.value, out=out)
        if self.use_bias:
            np.add(out, self.bias.value, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._x is None:
            raise RuntimeError("backward() called before forward()")
        ws = ws or Workspace()
        np.matmul(self._x.T, grad_out, out=self.weight.grad)
        if self.use_bias:
            grad_out.sum(axis=0, out=self.bias.grad)
        grad_in = ws.acquire(self._x.shape, np.result_type(grad_out, self.weight.value))
        np.matmul(grad_out, self.weight.value.T, out=grad_in)
        return grad_in

    def parameters(self) -> Iterable[Parameter]:
        if not self.built:
            return ()
        params: List[Parameter] = [self.weight]
        if self.use_bias:
            params.append(self.bias)
        return params


class BatchNormalization(Layer):
    """Batch normalization (Ioffe & Szegedy 2015).

    Normalizes each feature over the batch during training and tracks
    exponential moving averages of mean/variance for inference, exactly
    like ``tensorflow.keras.layers.BatchNormalization`` with default
    momentum.
    """

    built = False

    def __init__(self, momentum: float = 0.99, epsilon: float = 1e-3):
        if not 0.0 < momentum < 1.0:
            raise ValueError(f"momentum must be in (0, 1), got {momentum}")
        self.momentum = momentum
        self.epsilon = epsilon
        self.gamma: Optional[Parameter] = None
        self.beta: Optional[Parameter] = None
        self.running_mean: Optional[np.ndarray] = None
        self.running_var: Optional[np.ndarray] = None
        self._cache: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None

    def build(self, input_dim: int, rng: np.random.Generator, dtype=np.float64) -> int:
        del rng
        dt = np.dtype(dtype)
        self.gamma = Parameter("gamma", np.ones(input_dim), dtype=dt)
        self.beta = Parameter("beta", np.zeros(input_dim), dtype=dt)
        self.running_mean = np.zeros(input_dim, dtype=dt)
        self.running_var = np.ones(input_dim, dtype=dt)
        self.built = True
        return input_dim

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        if not self.built:
            raise RuntimeError("BatchNormalization layer used before build()")
        ws = ws or Workspace()
        d = x.shape[1]
        if training:
            mean = ws.acquire((d,), x.dtype)
            var = ws.acquire((d,), x.dtype)
            x.mean(axis=0, out=mean)
            x.var(axis=0, out=var)
            # running = momentum * running + (1 - momentum) * batch_stat:
            # two products, one add, updated in the running stats' dtype.
            scratch = ws.acquire((d,), x.dtype)
            np.multiply(self.running_mean, self.momentum, out=self.running_mean)
            np.multiply(mean, 1 - self.momentum, out=scratch)
            np.add(self.running_mean, scratch, out=self.running_mean)
            np.multiply(self.running_var, self.momentum, out=self.running_var)
            np.multiply(var, 1 - self.momentum, out=scratch)
            np.add(self.running_var, scratch, out=self.running_var)
        else:
            mean = self.running_mean
            var = self.running_var
        # inv_std = 1 / sqrt(var + eps); x_hat = (x - mean) * inv_std
        inv_std = ws.acquire((d,), var.dtype)
        np.add(var, self.epsilon, out=inv_std)
        np.sqrt(inv_std, out=inv_std)
        np.divide(1.0, inv_std, out=inv_std)
        x_hat = ws.acquire(x.shape, np.result_type(x, mean, inv_std))
        np.subtract(x, mean, out=x_hat)
        np.multiply(x_hat, inv_std, out=x_hat)
        self._cache = (x_hat, inv_std, np.asarray(training))
        out = ws.acquire(x.shape, np.result_type(x_hat, self.gamma.value))
        np.multiply(self.gamma.value, x_hat, out=out)
        np.add(out, self.beta.value, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward() called before forward()")
        x_hat, inv_std, was_training = self._cache
        ws = ws or Workspace()
        n, d = grad_out.shape
        dt = np.result_type(grad_out, x_hat, self.gamma.value)
        tmp = ws.acquire(grad_out.shape, dt)
        np.multiply(grad_out, x_hat, out=tmp)
        tmp.sum(axis=0, out=self.gamma.grad)
        grad_out.sum(axis=0, out=self.beta.grad)
        grad_xhat = ws.acquire(grad_out.shape, dt)
        np.multiply(grad_out, self.gamma.value, out=grad_xhat)
        if not bool(was_training):
            # Inference statistics are constants w.r.t. the input.
            np.multiply(grad_xhat, inv_std, out=grad_xhat)
            return grad_xhat
        # Full batch-norm backward (mean and variance depend on the
        # batch), one out= kernel per node:
        # inv_std/n * (n*gx - gx.sum(0) - x_hat * (gx*x_hat).sum(0))
        s1 = ws.acquire((d,), dt)
        grad_xhat.sum(axis=0, out=s1)
        np.multiply(grad_xhat, x_hat, out=tmp)
        s2 = ws.acquire((d,), dt)
        tmp.sum(axis=0, out=s2)
        scale = ws.acquire((d,), dt)
        np.divide(inv_std, n, out=scale)
        np.multiply(grad_xhat, n, out=grad_xhat)
        np.subtract(grad_xhat, s1, out=grad_xhat)
        np.multiply(x_hat, s2, out=tmp)
        np.subtract(grad_xhat, tmp, out=grad_xhat)
        np.multiply(scale, grad_xhat, out=grad_xhat)
        return grad_xhat

    def parameters(self) -> Iterable[Parameter]:
        if not self.built:
            return ()
        return (self.gamma, self.beta)

    def cast(self, dtype: np.dtype) -> None:
        super().cast(dtype)
        if self.running_mean.dtype != dtype:
            self.running_mean = self.running_mean.astype(dtype)
        if self.running_var.dtype != dtype:
            self.running_var = self.running_var.astype(dtype)

    def state_dict(self) -> dict:
        state = super().state_dict()
        state["running_mean"] = self.running_mean.copy()
        state["running_var"] = self.running_var.copy()
        return state

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.running_mean = np.asarray(state["running_mean"], dtype=self.running_mean.dtype)
        self.running_var = np.asarray(state["running_var"], dtype=self.running_var.dtype)


class ReLU(Layer):
    """Rectified linear unit."""

    def __init__(self) -> None:
        self._mask: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        mask = ws.acquire(x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        self._mask = mask  # the backward pass's gate
        # max(x, 0) maps -0.0 to +0.0 and propagates NaN.
        out = ws.acquire(x.shape, x.dtype)
        np.maximum(x, 0, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward() called before forward()")
        del ws
        np.multiply(grad_out, self._mask, out=grad_out)
        return grad_out


class LeakyReLU(Layer):
    """Leaky ReLU with configurable negative slope ``0 <= alpha <= 1``."""

    def __init__(self, alpha: float = 0.01):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self._slope: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        mask = ws.acquire(x.shape, np.bool_)
        np.greater(x, 0, out=mask)
        # slope = where(mask, 1, alpha): max(mask, alpha) is 1 on the kept
        # elements and alpha on the others because 0 <= alpha <= 1.  It is
        # built in x's dtype (alpha rounds to float32 there) and serves
        # both passes: x * 1 is exact and x * alpha is alpha * x.
        slope = ws.acquire(x.shape, x.dtype)
        np.maximum(mask, x.dtype.type(self.alpha), out=slope)
        self._slope = slope
        out = ws.acquire(x.shape, x.dtype)
        np.multiply(x, slope, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._slope is None:
            raise RuntimeError("backward() called before forward()")
        del ws
        np.multiply(grad_out, self._slope, out=grad_out)
        return grad_out


class Sigmoid(Layer):
    """Logistic sigmoid; used as the reconstruction head for [0, 1] inputs."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        # Numerically stable piecewise formulation without fancy indexing:
        # exp(-|x|) equals exp(-x) on the positive branch and exp(x) on
        # the negative one.
        t = ws.acquire(x.shape, x.dtype)
        np.abs(x, out=t)
        np.negative(t, out=t)
        np.exp(t, out=t)
        out = ws.acquire(x.shape, x.dtype)
        np.add(t, 1.0, out=out)  # the denominator, divided in place
        # Numerator: 1 on the positive branch (1 / (1 + e^-x)) and t on the
        # negative one (e^x / (1 + e^x)).  max(t, mask) is exactly that,
        # because 0 <= t <= 1.
        mask = ws.acquire(x.shape, np.bool_)
        np.greater_equal(x, 0, out=mask)
        np.maximum(t, mask, out=t)
        np.divide(t, out, out=out)
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        ws = ws or Workspace()
        # grad * out * (1 - out)
        t = ws.acquire(grad_out.shape, self._out.dtype)
        np.subtract(1.0, self._out, out=t)
        np.multiply(grad_out, self._out, out=grad_out)
        np.multiply(grad_out, t, out=grad_out)
        return grad_out


class Tanh(Layer):
    """Hyperbolic tangent activation."""

    def __init__(self) -> None:
        self._out: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training
        ws = ws or Workspace()
        out = ws.acquire(x.shape, x.dtype)
        np.tanh(x, out=out)
        self._out = out
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        if self._out is None:
            raise RuntimeError("backward() called before forward()")
        ws = ws or Workspace()
        # grad * (1 - out**2)
        t = ws.acquire(grad_out.shape, self._out.dtype)
        np.multiply(self._out, self._out, out=t)
        np.subtract(1.0, t, out=t)
        np.multiply(grad_out, t, out=grad_out)
        return grad_out


class Linear(Layer):
    """Identity activation (useful as an explicit 'no-op' head)."""

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        del training, ws
        return x

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        del ws
        return grad_out


class Dropout(Layer):
    """Inverted dropout; a no-op at inference time."""

    def __init__(self, rate: float, seed: Optional[int] = None):
        if not 0.0 <= rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self._rng = np.random.default_rng(seed)
        self._mask: Optional[np.ndarray] = None

    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        ws = ws or Workspace()
        keep = 1.0 - self.rate
        # The draw stays float64 whatever the compute dtype, so the RNG
        # stream (and therefore the mask) does not depend on the dtype.
        draw = ws.acquire(x.shape, np.float64)
        self._rng.random(out=draw)
        keep_mask = ws.acquire(x.shape, np.bool_)
        np.less(draw, keep, out=keep_mask)
        mask64 = ws.acquire(x.shape, np.float64)
        np.divide(keep_mask, keep, out=mask64)
        if x.dtype == np.float64:
            mask = mask64
        else:
            mask = ws.acquire(x.shape, x.dtype)
            np.copyto(mask, mask64)  # the cast .astype performs
        self._mask = mask
        out = ws.acquire(x.shape, x.dtype)
        np.multiply(x, mask, out=out)
        return out

    def backward(self, grad_out: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        del ws
        if self._mask is None:
            return grad_out
        np.multiply(grad_out, self._mask, out=grad_out)
        return grad_out


_ACTIVATIONS = {
    "relu": ReLU,
    "leaky_relu": LeakyReLU,
    "sigmoid": Sigmoid,
    "tanh": Tanh,
    "linear": Linear,
}


def get_activation(name: str) -> Layer:
    """Instantiate an activation layer by name."""
    try:
        return _ACTIVATIONS[name]()
    except KeyError:
        known = ", ".join(sorted(_ACTIVATIONS))
        raise ValueError(f"unknown activation {name!r}; expected one of: {known}") from None
