"""Adadelta behaviour tests."""

import numpy as np

from repro.nn.layers import Parameter
from repro.nn.optimizers import Adadelta


def minimize_quadratic(optimizer, steps=400, dim=5, seed=0):
    """Run ``steps`` of gradient descent on f(x) = ||x - target||^2."""
    rng = np.random.default_rng(seed)
    target = rng.normal(size=dim)
    param = Parameter("x", rng.normal(size=dim) + 5.0)
    for _ in range(steps):
        param.grad = 2.0 * (param.value - target)
        optimizer.step([param])
    return float(np.abs(param.value - target).max())


def test_adadelta_converges_on_quadratic():
    assert minimize_quadratic(Adadelta(), steps=2000) < 1e-2


def test_adadelta_compresses_gradient_scale():
    """Adadelta's adaptive denominator hugely compresses the six-orders-
    of-magnitude spread between tiny and huge gradients."""
    small = Parameter("s", np.array([1.0]))
    big = Parameter("b", np.array([1.0]))
    opt = Adadelta()
    small.grad = np.array([1e-3])
    big.grad = np.array([1e3])
    opt.step([small, big])
    step_small = abs(1.0 - small.value[0])
    step_big = abs(1.0 - big.value[0])
    assert step_small > 0 and step_big > 0
    # Raw gradients differ by 1e6; updates must differ by < 1e2.
    assert step_big / step_small < 1e2


def test_state_is_per_parameter():
    p1 = Parameter("a", np.array([0.0]))
    p2 = Parameter("b", np.array([0.0]))
    opt = Adadelta()
    p1.grad = np.array([1.0])
    p2.grad = np.array([-1.0])
    opt.step([p1, p2])
    assert p1.value[0] < 0 < p2.value[0]
