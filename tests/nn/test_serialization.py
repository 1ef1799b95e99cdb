"""Network save/load round-trip tests."""

import numpy as np
import pytest

from repro.nn.layers import BatchNormalization, Dense, ReLU
from repro.nn.network import Sequential
from repro.nn.serialization import load_network, save_network

RNG = np.random.default_rng(9)


def make_net(seed=0):
    return Sequential([Dense(6), BatchNormalization(), ReLU(), Dense(4)], seed=seed).build(4)


def test_round_trip_preserves_predictions(tmp_path):
    net = make_net()
    net.fit(RNG.uniform(size=(32, 4)), epochs=3)
    path = tmp_path / "model.npz"
    save_network(net, path)

    fresh = make_net(seed=123)
    load_network(fresh, path)
    x = RNG.uniform(size=(8, 4))
    np.testing.assert_array_equal(net.predict(x), fresh.predict(x))


def test_round_trip_preserves_batchnorm_stats(tmp_path):
    net = make_net()
    net.fit(RNG.uniform(size=(32, 4)), epochs=2)
    path = tmp_path / "model.npz"
    save_network(net, path)
    fresh = make_net(seed=5)
    load_network(fresh, path)
    bn_old = net.layers[1]
    bn_new = fresh.layers[1]
    np.testing.assert_array_equal(bn_old.running_mean, bn_new.running_mean)
    np.testing.assert_array_equal(bn_old.running_var, bn_new.running_var)


def test_save_unbuilt_raises(tmp_path):
    with pytest.raises(ValueError):
        save_network(Sequential([Dense(2)]), tmp_path / "x.npz")


def test_load_into_unbuilt_raises(tmp_path):
    net = make_net()
    path = tmp_path / "model.npz"
    save_network(net, path)
    with pytest.raises(ValueError):
        load_network(Sequential([Dense(2)]), path)


def test_load_architecture_mismatch_raises(tmp_path):
    net = make_net()
    path = tmp_path / "model.npz"
    save_network(net, path)
    other = Sequential([Dense(6), ReLU(), Dense(3)], seed=0).build(4)
    with pytest.raises(ValueError, match="architecture mismatch"):
        load_network(other, path)


def test_load_input_dim_mismatch_raises(tmp_path):
    net = make_net()
    path = tmp_path / "model.npz"
    save_network(net, path)
    other = Sequential([Dense(6), BatchNormalization(), ReLU(), Dense(3)], seed=0).build(5)
    with pytest.raises(ValueError, match="input_dim mismatch"):
        load_network(other, path)
