"""Sequential container and training-loop tests."""

import numpy as np
import pytest

from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential

from .gradcheck import numerical_gradient, relative_error

RNG = np.random.default_rng(7)


def make_net(seed=0):
    return Sequential([Dense(8), ReLU(), Dense(4), Sigmoid(), Dense(2)], seed=seed).build(3)


class TestConstruction:
    def test_requires_layers(self):
        with pytest.raises(ValueError):
            Sequential([])

    def test_build_sets_dims(self):
        net = make_net()
        assert net.input_dim == 3
        assert net.output_dim == 2

    def test_num_parameters(self):
        net = Sequential([Dense(4)]).build(3)
        assert net.num_parameters() == 3 * 4 + 4

    def test_rejects_bad_input_dim(self):
        with pytest.raises(ValueError):
            Sequential([Dense(2)]).build(0)


class TestForwardBackward:
    def test_forward_shape(self):
        net = make_net()
        assert net.forward(RNG.normal(size=(5, 3))).shape == (5, 2)

    def test_forward_rejects_wrong_width(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.forward(RNG.normal(size=(5, 4)))

    def test_forward_rejects_1d(self):
        net = make_net()
        with pytest.raises(ValueError):
            net.forward(RNG.normal(size=3))

    def test_full_network_gradcheck(self):
        net = make_net()
        loss = MeanSquaredError()
        x = RNG.normal(size=(4, 3))
        y = RNG.normal(size=(4, 2))

        out = net.forward(x, training=True)
        net.backward(loss.gradient(y, out))
        analytic = {id(p): p.grad.copy() for p in net.parameters()}

        for param in net.parameters():

            def objective(value, _p=param):
                _p.value = value
                return loss.value(y, net.forward(x, training=True))

            numeric = numerical_gradient(objective, param.value.copy())
            assert relative_error(analytic[id(param)], numeric) < 1e-5

    def test_input_gradcheck_through_batchnorm(self):
        net = Sequential([Dense(6), BatchNormalization(), ReLU(), Dense(2)], seed=1).build(3)
        loss = MeanSquaredError()
        x = RNG.normal(size=(6, 3)) + 0.3
        y = np.zeros((6, 2))

        def objective(inp):
            return loss.value(y, net.forward(inp, training=True))

        out = net.forward(x, training=True)
        analytic = net.backward(loss.gradient(y, out))
        numeric = numerical_gradient(objective, x.copy())
        assert relative_error(analytic, numeric) < 1e-4

    def test_predict_batches_match_single_pass(self):
        net = make_net()
        x = RNG.normal(size=(300, 3))
        np.testing.assert_allclose(net.predict(x, batch_size=64), net.predict(x, batch_size=1000))


class TestFit:
    def test_learns_identity(self):
        net = Sequential([Dense(16), ReLU(), Dense(2)], seed=0)
        x = RNG.uniform(-1, 1, size=(256, 2))
        history = net.fit(x, epochs=200, batch_size=32)
        assert history.loss[-1] < history.loss[0] * 0.1

    def test_autoencodes_by_default_target(self):
        net = Sequential([Dense(4), ReLU(), Dense(3), Sigmoid()], seed=0)
        x = RNG.uniform(0, 1, size=(64, 3))
        history = net.fit(x, epochs=5)
        assert history.epochs_trained == 5

    def test_validation_split_records_val_loss(self):
        net = Sequential([Dense(4), Dense(2)], seed=0)
        x = RNG.normal(size=(50, 2))
        history = net.fit(x, epochs=3, validation_split=0.2)
        assert len(history.val_loss) == 3
        assert history.best_val_loss == min(history.val_loss)

    def test_early_stopping_halts(self):
        net = Sequential([Dense(4), Dense(2)], seed=0)
        x = np.zeros((40, 2))  # trivially learned -> loss plateaus at ~0
        history = net.fit(x, epochs=100, early_stopping_patience=3)
        assert history.epochs_trained < 100

    def test_rejects_empty(self):
        net = Sequential([Dense(2)])
        with pytest.raises(ValueError):
            net.fit(np.zeros((0, 2)))

    def test_rejects_bad_split(self):
        net = Sequential([Dense(2)])
        with pytest.raises(ValueError):
            net.fit(np.zeros((4, 2)), validation_split=1.0)

    def test_validation_split_rounding_can_empty_training_set(self):
        """round(4 * 0.9) == 4 holds out every row; must fail loudly."""
        net = Sequential([Dense(2)], seed=0)
        x = RNG.normal(size=(4, 2))
        with pytest.raises(ValueError, match="leaves no training data"):
            net.fit(x, epochs=1, validation_split=0.9)

    def test_validation_split_just_below_rounding_edge_trains(self):
        net = Sequential([Dense(2)], seed=0)
        x = RNG.normal(size=(5, 2))
        history = net.fit(x, epochs=2, validation_split=0.5)
        assert history.epochs_trained == 2
        assert len(history.val_loss) == 2

    def test_batch_size_larger_than_dataset_is_one_full_batch(self):
        x = RNG.normal(size=(10, 3))

        def train(batch_size):
            net = Sequential([Dense(4), ReLU(), Dense(3), Sigmoid()], seed=4)
            history = net.fit(x, epochs=3, batch_size=batch_size)
            return net.predict(x), history

        oversized, h_big = train(1000)
        exact, h_exact = train(10)
        np.testing.assert_array_equal(oversized, exact)
        assert h_big.loss == h_exact.loss

    def test_early_stopping_patience_zero_stops_at_first_plateau(self):
        x = np.zeros((32, 2))  # loss is flat from the first epoch
        net = Sequential([Dense(4), Dense(2)], seed=0)
        history = net.fit(x, epochs=50, early_stopping_patience=0)
        assert 1 <= history.epochs_trained < 50
        # Patience 0 can never outlast patience 1 on the same run.
        net_one = Sequential([Dense(4), Dense(2)], seed=0)
        longer = net_one.fit(x, epochs=50, early_stopping_patience=1)
        assert history.epochs_trained <= longer.epochs_trained

    def test_deterministic_given_seed(self):
        x = RNG.normal(size=(64, 3))

        def train():
            net = Sequential([Dense(4), ReLU(), Dense(3), Sigmoid()], seed=99)
            net.fit(x, epochs=3, batch_size=16)
            return net.predict(x)

        np.testing.assert_array_equal(train(), train())


class TestDtype:
    def test_float32_training_and_prediction(self):
        net = Sequential([Dense(8), ReLU(), Dense(3), Sigmoid()], seed=0, dtype="float32")
        x = RNG.uniform(0, 1, size=(64, 3))
        history = net.fit(x, epochs=5)
        assert history.epochs_trained == 5
        out = net.predict(x)
        assert out.dtype == np.float32
        for p in net.parameters():
            assert p.value.dtype == np.float32

    def test_float32_matches_float64_closely(self):
        x = RNG.uniform(0, 1, size=(64, 3))

        def train(dtype):
            net = Sequential([Dense(8), ReLU(), Dense(3), Sigmoid()], seed=7, dtype=dtype)
            net.fit(x, epochs=10, batch_size=16)
            return net.predict(x).astype(np.float64)

        a, b = train("float64"), train("float32")
        assert np.abs(a - b).max() < 1e-2

    def test_rejects_integer_dtype(self):
        with pytest.raises(ValueError):
            Sequential([Dense(2)], dtype="int32")
