"""Full-stack gradient checks for the paper's autoencoder architecture.

The per-layer gradchecks in test_layers.py verify each backward pass in
isolation; these tests verify the exact composite the paper trains --
Dense/BatchNorm/ReLU chains with a sigmoid head -- end to end, plus the
training dynamics (loss decreases under Adadelta, BN statistics move).
"""

import numpy as np
import pytest

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import BatchNormalization
from repro.nn.losses import MeanSquaredError

from .gradcheck import numerical_gradient, relative_error

pytestmark = pytest.mark.slow

RNG = np.random.default_rng(21)


@pytest.fixture
def tiny_ae():
    cfg = AutoencoderConfig(
        encoder_units=(6, 3),
        epochs=1,
        batch_size=8,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=5,
    )
    return Autoencoder(input_dim=5, config=cfg)


def test_composite_parameter_gradients(tiny_ae):
    net = tiny_ae.network
    loss = MeanSquaredError()
    x = RNG.uniform(0.2, 0.8, size=(6, 5))

    # Move BatchNorm parameters off their degenerate init (gamma=1,
    # beta=0 makes several gradients numerically ~0, where relative
    # error is meaningless), and keep ReLU inputs away from the kink.
    for layer in net.layers:
        if isinstance(layer, BatchNormalization):
            layer.gamma.value = layer.gamma.value + 0.2
            layer.beta.value = layer.beta.value + 0.3

    out = net.forward(x, training=True)
    net.backward(loss.gradient(x, out))
    analytic = {id(p): p.grad.copy() for p in net.parameters()}

    worst = 0.0
    for param in net.parameters():

        def objective(value, _p=param):
            _p.value = value
            return loss.value(x, net.forward(x, training=True))

        numeric = numerical_gradient(objective, param.value.copy())
        a = analytic[id(param)]
        # A Dense bias followed by BatchNorm has a true gradient of
        # exactly zero (the batch mean subtracts it); relative error on
        # pure float noise is meaningless there.
        if np.abs(a).max() < 1e-8 and np.abs(numeric).max() < 1e-8:
            continue
        worst = max(worst, relative_error(a, numeric))
    assert worst < 1e-4


def test_adadelta_training_reduces_loss(tiny_ae):
    cfg = AutoencoderConfig(
        encoder_units=(16, 8),
        epochs=120,
        batch_size=16,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=5,
    )
    ae = Autoencoder(input_dim=6, config=cfg)
    # Structured data on a low-dimensional manifold.
    t = RNG.uniform(size=(128, 1))
    x = np.clip(0.5 + 0.3 * np.sin(t * 3 + np.arange(6)), 0, 1)
    history = ae.fit(x)
    assert history.loss[-1] < 0.5 * history.loss[0]


def test_batchnorm_running_stats_move_during_fit(tiny_ae):
    bn_layers = [l for l in tiny_ae.network.layers if isinstance(l, BatchNormalization)]
    assert bn_layers, "paper architecture includes BatchNormalization"
    before = [l.running_mean.copy() for l in bn_layers]
    tiny_ae.fit(RNG.uniform(0.3, 0.7, size=(32, 5)))
    moved = any(
        not np.allclose(l.running_mean, b) for l, b in zip(bn_layers, before)
    )
    assert moved


def test_inference_deterministic_after_fit(tiny_ae):
    x = RNG.uniform(size=(16, 5))
    tiny_ae.fit(x)
    a = tiny_ae.reconstruction_error(x)
    b = tiny_ae.reconstruction_error(x)
    np.testing.assert_array_equal(a, b)
