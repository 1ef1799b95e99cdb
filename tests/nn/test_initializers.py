"""Dense weight initialization: Keras' Glorot-uniform kernel and zero bias."""

import math

import numpy as np

from repro.nn.layers import Dense


def built(units, fan_in, rng):
    layer = Dense(units)
    layer.build(fan_in, rng)
    return layer


def test_glorot_uniform_bounds():
    """The kernel is exactly ``rng.uniform(-limit, limit)`` of its shape."""
    w = built(50, 100, np.random.default_rng(0)).weight.value
    limit = math.sqrt(6.0 / 150)
    assert w.shape == (100, 50)
    assert np.abs(w).max() <= limit
    expected = np.random.default_rng(0).uniform(-limit, limit, size=(100, 50))
    np.testing.assert_array_equal(w, expected)


def test_zeros():
    """The bias starts at zero and draws nothing from the RNG."""
    rng = np.random.default_rng(1)
    layer = built(2, 3, rng)
    np.testing.assert_array_equal(layer.bias.value, np.zeros(2))
    twin = np.random.default_rng(1)
    twin.uniform(size=(3, 2))
    assert rng.random() == twin.random()


def test_reproducible_with_same_seed():
    a = built(4, 4, np.random.default_rng(1)).weight.value
    b = built(4, 4, np.random.default_rng(1)).weight.value
    np.testing.assert_array_equal(a, b)
