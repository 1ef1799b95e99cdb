"""Layer forward/backward tests, including finite-difference gradchecks."""

import numpy as np
import pytest

from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid

from .gradcheck import (
    check_layer_input_gradient,
    check_layer_param_gradients,
    numerical_gradient,
    relative_error,
)

RNG = np.random.default_rng(0)
TOL = 1e-6


def build(layer, input_dim):
    layer.build(input_dim, np.random.default_rng(42))
    return layer


class TestDense:
    def test_forward_shape(self):
        layer = build(Dense(5), 3)
        out = layer.forward(RNG.normal(size=(7, 3)))
        assert out.shape == (7, 5)

    def test_forward_is_affine(self):
        layer = build(Dense(4), 3)
        x1, x2 = RNG.normal(size=(2, 3)), RNG.normal(size=(2, 3))
        lhs = layer.forward(x1 + x2)
        rhs = layer.forward(x1) + layer.forward(x2) - layer.forward(np.zeros((2, 3)))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_input_gradient(self):
        layer = build(Dense(4), 3)
        err = check_layer_input_gradient(layer, RNG.normal(size=(5, 3)))
        assert err < TOL

    def test_param_gradients(self):
        layer = build(Dense(4), 3)
        errors = check_layer_param_gradients(layer, RNG.normal(size=(5, 3)))
        assert set(errors) == {"weight", "bias"}
        assert max(errors.values()) < TOL

    def test_rejects_nonpositive_units(self):
        with pytest.raises(ValueError):
            Dense(0)

    def test_forward_before_build_raises(self):
        with pytest.raises(RuntimeError):
            Dense(4).forward(np.zeros((1, 3)))

    def test_backward_before_forward_raises(self):
        layer = build(Dense(4), 3)
        with pytest.raises(RuntimeError):
            layer.backward(np.zeros((1, 4)))


class TestBatchNormalization:
    def test_training_normalizes_batch(self):
        layer = build(BatchNormalization(), 4)
        x = RNG.normal(loc=5.0, scale=3.0, size=(64, 4))
        out = layer.forward(x, training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-2)

    def test_inference_uses_running_stats(self):
        layer = build(BatchNormalization(), 3)
        x = RNG.normal(size=(32, 3))
        for _ in range(500):
            layer.forward(x, training=True)
        out_inf = layer.forward(x, training=False)
        out_train = layer.forward(x, training=True)
        # After many passes over the same batch the running stats converge
        # to the batch stats, so the two modes agree.
        np.testing.assert_allclose(out_inf, out_train, atol=1e-2)

    def test_input_gradient_training(self):
        layer = build(BatchNormalization(), 3)
        err = check_layer_input_gradient(layer, RNG.normal(size=(6, 3)), training=True)
        assert err < 1e-5

    def test_input_gradient_inference(self):
        layer = build(BatchNormalization(), 3)
        layer.forward(RNG.normal(size=(6, 3)), training=True)  # seed running stats
        err = check_layer_input_gradient(layer, RNG.normal(size=(6, 3)), training=False)
        assert err < 1e-5

    def test_param_gradients(self):
        layer = build(BatchNormalization(), 3)
        # Move gamma/beta off their (0-gradient-degenerate) init point.
        layer.gamma.value = layer.gamma.value + 0.3
        layer.beta.value = layer.beta.value + 0.7
        errors = check_layer_param_gradients(layer, RNG.normal(size=(6, 3)), training=True)
        assert set(errors) == {"gamma", "beta"}
        assert max(errors.values()) < 1e-5

    def test_state_dict_round_trip(self):
        layer = build(BatchNormalization(), 3)
        layer.forward(RNG.normal(size=(8, 3)), training=True)
        state = layer.state_dict()
        fresh = build(BatchNormalization(), 3)
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.running_mean, layer.running_mean)
        np.testing.assert_array_equal(fresh.gamma.value, layer.gamma.value)


@pytest.mark.parametrize("layer_factory", [ReLU, Sigmoid], ids=["relu", "sigmoid"])
class TestActivations:
    def test_shape_preserved(self, layer_factory):
        layer = layer_factory()
        x = RNG.normal(size=(4, 6))
        assert layer.forward(x).shape == x.shape

    def test_input_gradient(self, layer_factory):
        layer = layer_factory()
        # Offset away from ReLU's kink at 0 for clean finite differences.
        x = RNG.normal(size=(4, 6)) + np.sign(RNG.normal(size=(4, 6))) * 0.1
        err = check_layer_input_gradient(layer, x)
        assert err < 1e-5


class TestActivationValues:
    def test_relu_clips_negatives(self):
        out = ReLU().forward(np.array([[-1.0, 0.0, 2.0]]))
        np.testing.assert_array_equal(out, [[0.0, 0.0, 2.0]])

    def test_sigmoid_range_and_symmetry(self):
        x = np.linspace(-30, 30, 101).reshape(1, -1)
        out = Sigmoid().forward(x)
        assert np.all(out > 0) and np.all(out < 1)
        np.testing.assert_allclose(out + out[:, ::-1], 1.0, atol=1e-12)

    def test_sigmoid_extreme_inputs_stable(self):
        out = Sigmoid().forward(np.array([[-1e4, 1e4]]))
        assert np.isfinite(out).all()


class TestGradcheckHelpers:
    def test_numerical_gradient_of_quadratic(self):
        x = RNG.normal(size=(3,))
        grad = numerical_gradient(lambda v: float((v**2).sum()), x.copy())
        np.testing.assert_allclose(grad, 2 * x, atol=1e-6)

    def test_relative_error_zero_for_identical(self):
        a = RNG.normal(size=(4, 4))
        assert relative_error(a, a.copy()) == 0.0
