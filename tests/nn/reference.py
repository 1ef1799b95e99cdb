"""Frozen straight-line NumPy reference for ``repro.nn``.

The library runs every layer, loss and optimizer through ``out=``
kernels over a recycled buffer arena.  This module is the oracle those
kernels are pinned against: the same mathematics written as plain
allocating NumPy expressions, one obvious statement per formula, with no
workspace, no buffer reuse and no knobs.  Float64 training and
prediction through :class:`repro.nn.network.Sequential` must match
:class:`ReferenceNet` bit for bit (``tests/nn/test_kernel_equivalence``).

A reference network *mirrors* a built ``Sequential``: it copies the
initial parameter values and the RNG states (network shuffling and
Dropout masks), then trains independently.  Nothing here calls into
the library's layers, losses or optimizers.
"""

import copy

import numpy as np


class Param:
    """A trainable array and its latest gradient."""

    def __init__(self, value):
        self.value = np.array(value, copy=True)
        self.grad = np.zeros_like(self.value)


# ----------------------------------------------------------------------
# layers
# ----------------------------------------------------------------------
class Dense:
    def __init__(self, layer):
        self.weight = Param(layer.weight.value)
        self.bias = Param(layer.bias.value) if layer.use_bias else None

    def params(self):
        return [self.weight] + ([self.bias] if self.bias is not None else [])

    def forward(self, x, training):
        self._x = x
        out = x @ self.weight.value
        if self.bias is not None:
            out = out + self.bias.value
        return out

    def backward(self, grad):
        self.weight.grad = self._x.T @ grad
        if self.bias is not None:
            self.bias.grad = grad.sum(axis=0)
        return grad @ self.weight.value.T


class BatchNormalization:
    def __init__(self, layer):
        self.momentum = layer.momentum
        self.epsilon = layer.epsilon
        self.gamma = Param(layer.gamma.value)
        self.beta = Param(layer.beta.value)
        self.running_mean = layer.running_mean.copy()
        self.running_var = layer.running_var.copy()

    def params(self):
        return [self.gamma, self.beta]

    def forward(self, x, training):
        if training:
            mean = x.mean(axis=0)
            var = x.var(axis=0)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean = self.running_mean
            var = self.running_var
        self.inv_std = 1.0 / np.sqrt(var + self.epsilon)
        self.x_hat = (x - mean) * self.inv_std
        self.training = training
        return self.gamma.value * self.x_hat + self.beta.value

    def backward(self, grad):
        x_hat, inv_std = self.x_hat, self.inv_std
        n = grad.shape[0]
        self.gamma.grad = (grad * x_hat).sum(axis=0)
        self.beta.grad = grad.sum(axis=0)
        grad_xhat = grad * self.gamma.value
        if not self.training:
            return grad_xhat * inv_std
        return (
            inv_std
            / n
            * (n * grad_xhat - grad_xhat.sum(axis=0) - x_hat * (grad_xhat * x_hat).sum(axis=0))
        )


class ReLU:
    def __init__(self, layer):
        pass

    def params(self):
        return []

    def forward(self, x, training):
        self.mask = x > 0
        # -0.0 maps to +0.0 and NaN propagates.
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self.mask


class LeakyReLU:
    def __init__(self, layer):
        self.alpha = layer.alpha

    def params(self):
        return []

    def forward(self, x, training):
        self.mask = x > 0
        return np.where(self.mask, x, self.alpha * x)

    def backward(self, grad):
        # The slope takes the gradient's dtype, so float32 stays float32.
        return grad * np.where(self.mask, 1.0, self.alpha).astype(grad.dtype)


class Sigmoid:
    def __init__(self, layer):
        pass

    def params(self):
        return []

    def forward(self, x, training):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        self.out = out
        return out

    def backward(self, grad):
        return grad * self.out * (1.0 - self.out)


class Tanh:
    def __init__(self, layer):
        pass

    def params(self):
        return []

    def forward(self, x, training):
        self.out = np.tanh(x)
        return self.out

    def backward(self, grad):
        return grad * (1.0 - self.out**2)


class Linear:
    def __init__(self, layer):
        pass

    def params(self):
        return []

    def forward(self, x, training):
        return x

    def backward(self, grad):
        return grad


class Dropout:
    def __init__(self, layer):
        self.rate = layer.rate
        self.rng = copy.deepcopy(layer._rng)
        self.mask = None

    def params(self):
        return []

    def forward(self, x, training):
        if not training or self.rate == 0.0:
            self.mask = None
            return x
        keep = 1.0 - self.rate
        self.mask = ((self.rng.random(x.shape) < keep) / keep).astype(x.dtype)
        return x * self.mask

    def backward(self, grad):
        if self.mask is None:
            return grad
        return grad * self.mask


LAYERS = {
    cls.__name__: cls
    for cls in (Dense, BatchNormalization, ReLU, LeakyReLU, Sigmoid, Tanh, Linear, Dropout)
}


def mirror(layer):
    """The reference twin of a built library layer (same initial state)."""
    return LAYERS[type(layer).__name__](layer)


# ----------------------------------------------------------------------
# losses
# ----------------------------------------------------------------------
def mse_value(y, p):
    return float(np.mean((y - p) ** 2))


def mse_gradient(y, p):
    return 2.0 * (p - y) / y.size


def mae_value(y, p):
    return float(np.mean(np.abs(y - p)))


def mae_gradient(y, p):
    return np.sign(p - y) / y.size


LOSSES = {"mse": (mse_value, mse_gradient), "mae": (mae_value, mae_gradient)}


# ----------------------------------------------------------------------
# optimizers (library default hyper-parameters)
# ----------------------------------------------------------------------
class Optimizer:
    def __init__(self):
        self.state = {}

    def step(self, params):
        for p in params:
            self.update(p, self.state.setdefault(id(p), {}))


def _zeros(state, key, p):
    if key not in state:
        state[key] = np.zeros_like(p.value)
    return state[key]


class SGD(Optimizer):
    lr = 0.01

    def update(self, p, state):
        p.value -= self.lr * p.grad


class Momentum(Optimizer):
    lr, momentum = 0.01, 0.9

    def update(self, p, state):
        velocity = _zeros(state, "velocity", p)
        velocity *= self.momentum
        velocity -= self.lr * p.grad
        p.value += velocity


class RMSProp(Optimizer):
    lr, rho, eps = 0.001, 0.9, 1e-7

    def update(self, p, state):
        acc = _zeros(state, "acc", p)
        acc *= self.rho
        acc += (1.0 - self.rho) * p.grad**2
        p.value -= self.lr * p.grad / (np.sqrt(acc) + self.eps)


class Adadelta(Optimizer):
    lr, rho, eps = 1.0, 0.95, 1e-6

    def update(self, p, state):
        acc_grad = _zeros(state, "acc_grad", p)
        acc_delta = _zeros(state, "acc_delta", p)
        acc_grad *= self.rho
        acc_grad += (1.0 - self.rho) * p.grad**2
        update = np.sqrt(acc_delta + self.eps) / np.sqrt(acc_grad + self.eps) * p.grad
        acc_delta *= self.rho
        acc_delta += (1.0 - self.rho) * update**2
        p.value -= self.lr * update


class Adam(Optimizer):
    lr, beta1, beta2, eps = 0.001, 0.9, 0.999, 1e-8

    def update(self, p, state):
        m = _zeros(state, "m", p)
        v = _zeros(state, "v", p)
        t = state["t"] = state.get("t", 0) + 1
        m *= self.beta1
        m += (1.0 - self.beta1) * p.grad
        v *= self.beta2
        v += (1.0 - self.beta2) * p.grad**2
        m_hat = m / (1.0 - self.beta1**t)
        v_hat = v / (1.0 - self.beta2**t)
        p.value -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


OPTIMIZERS = {
    "sgd": SGD,
    "momentum": Momentum,
    "rmsprop": RMSProp,
    "adadelta": Adadelta,
    "adam": Adam,
}


# ----------------------------------------------------------------------
# network
# ----------------------------------------------------------------------
class ReferenceNet:
    """A plain fit/predict loop over mirrored layers of a built Sequential."""

    def __init__(self, net):
        assert net.built, "mirror a built network so both share initial weights"
        self.layers = [mirror(layer) for layer in net.layers]
        self.rng = copy.deepcopy(net._rng)
        self.dtype = net.dtype

    def params(self):
        return [p for layer in self.layers for p in layer.params()]

    def forward(self, x, training):
        for layer in self.layers:
            x = layer.forward(x, training)
        return x

    def backward(self, grad):
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def predict(self, x, batch_size=1024):
        x = np.asarray(x, dtype=self.dtype)
        chunks = [
            self.forward(x[i : i + batch_size], training=False)
            for i in range(0, x.shape[0], batch_size)
        ]
        return np.concatenate(chunks, axis=0)

    def fit(
        self,
        x,
        y=None,
        epochs=10,
        batch_size=32,
        loss="mse",
        optimizer="adadelta",
        validation_split=0.0,
        shuffle=True,
        early_stopping_patience=None,
        min_delta=0.0,
    ):
        """Returns ``(loss, val_loss, grad_norm)`` per-epoch lists."""
        x = np.asarray(x, dtype=self.dtype)
        y = x if y is None else np.asarray(y, dtype=self.dtype)
        loss_value, loss_gradient = LOSSES[loss]
        opt = OPTIMIZERS[optimizer]()
        n_total = x.shape[0]
        n_val = int(round(n_total * validation_split))
        if n_val > 0:
            perm = self.rng.permutation(n_total)
            train_idx = perm[:-n_val]
            x_val, y_val = x[perm[-n_val:]], y[perm[-n_val:]]
        else:
            train_idx = np.arange(n_total)
        history = ([], [], [])
        best, stale = np.inf, 0
        n = train_idx.shape[0]
        params = self.params()
        for _ in range(epochs):
            order = self.rng.permutation(n) if shuffle else np.arange(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = train_idx[order[start : start + batch_size]]
                xb, yb = x[idx], y[idx]
                pred = self.forward(xb, training=True)
                epoch_loss += loss_value(yb, pred) * len(idx)
                self.backward(loss_gradient(yb, pred))
                opt.step(params)
            epoch_loss /= n
            history[0].append(epoch_loss)
            history[2].append(float(np.sqrt(sum(float(np.sum(np.square(p.grad))) for p in params))))
            if n_val > 0:
                monitor = loss_value(y_val, self.predict(x_val))
                history[1].append(monitor)
            else:
                monitor = epoch_loss
            if early_stopping_patience is not None:
                if monitor < best - min_delta:
                    best, stale = monitor, 0
                else:
                    stale += 1
                    if stale >= early_stopping_patience:
                        break
        return history
