"""Autoencoder architecture and anomaly-scoring tests."""

import numpy as np
import pytest

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import Dense

RNG = np.random.default_rng(5)

TINY = AutoencoderConfig(
    encoder_units=(16, 4),
    epochs=60,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=2,
)


class TestArchitecture:
    def test_paper_layer_stack(self):
        ae = Autoencoder(input_dim=100)
        dense_units = [l.units for l in ae.network.layers if isinstance(l, Dense)]
        assert dense_units == [512, 256, 128, 64, 128, 256, 512, 100]

    def test_batchnorm_between_hidden_layers(self):
        ae = Autoencoder(input_dim=10, config=AutoencoderConfig(encoder_units=(8, 4)))
        kinds = [type(l).__name__ for l in ae.network.layers]
        # Dense/BN/ReLU triplets for hidden layers, Dense+Sigmoid head.
        assert kinds[:3] == ["Dense", "BatchNormalization", "ReLU"]
        assert kinds[-2:] == ["Dense", "Sigmoid"]
        # Encoder 8/4, decoder 8, then the 10-wide head.
        assert kinds == ["Dense", "BatchNormalization", "ReLU"] * 3 + ["Dense", "Sigmoid"]

    def test_code_dim(self):
        """The bottleneck is the last encoder width."""
        ae = Autoencoder(6, AutoencoderConfig(encoder_units=(8, 3)))
        dense_units = [l.units for l in ae.network.layers if isinstance(l, Dense)]
        assert dense_units == [8, 3, 8, 6]

    def test_rejects_bad_input_dim(self):
        with pytest.raises(ValueError):
            Autoencoder(0)

    def test_config_rejects_empty_units(self):
        with pytest.raises(ValueError):
            AutoencoderConfig(encoder_units=())

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epochs", 0, "epochs must be >= 1"),
            ("epochs", -3, "epochs must be >= 1"),
            ("batch_size", 0, "batch_size must be >= 1"),
            ("validation_split", 1.0, r"validation_split must be in \[0, 1\)"),
            ("validation_split", -0.1, r"validation_split must be in \[0, 1\)"),
            ("dtype", "float16", "dtype must be 'float32' or 'float64'"),
            ("dtype", "int32", "dtype must be 'float32' or 'float64'"),
        ],
    )
    def test_config_rejects_invalid_training_settings(self, field, value, message):
        """Bad settings fail when the config is built, not inside a fit."""
        with pytest.raises(ValueError, match=message):
            AutoencoderConfig(**{field: value})

    def test_scaled_config(self):
        scaled = AutoencoderConfig().scaled(0.25)
        assert scaled.encoder_units == (128, 64, 32, 16)
        tiny = AutoencoderConfig(encoder_units=(4,)).scaled(0.01)
        assert tiny.encoder_units == (2,)  # floor at 2


class TestTrainingAndScoring:
    def test_reconstruction_error_shape(self):
        ae = Autoencoder(8, TINY)
        x = RNG.uniform(size=(20, 8))
        ae.fit(x)
        assert ae.reconstruction_error(x).shape == (20,)

    def test_anomaly_scores_higher_for_outliers(self):
        cfg = AutoencoderConfig(
            encoder_units=(16, 2),
            epochs=150,
            batch_size=32,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=2,
        )
        ae = Autoencoder(8, cfg)
        # Normal data lives on a 1-D manifold inside [0,1]^8.
        t = RNG.uniform(size=(300, 1))
        normal = np.clip(0.5 + 0.4 * np.sin(t + np.arange(8)), 0, 1)
        ae.fit(normal)
        anomalies = RNG.uniform(size=(50, 8))
        normal_scores = ae.reconstruction_error(normal)
        anomaly_scores = ae.reconstruction_error(anomalies)
        assert anomaly_scores.mean() > 3 * normal_scores.mean()

    def test_reconstruct_in_unit_interval(self):
        ae = Autoencoder(8, TINY)
        x = RNG.uniform(size=(12, 8))
        ae.fit(x)
        recon = ae.reconstruct(x)
        assert np.all(recon >= 0) and np.all(recon <= 1)

    def test_accepts_1d_row(self):
        ae = Autoencoder(4, TINY)
        assert ae.reconstruction_error(np.zeros(4)).shape == (1,)

    def test_rejects_wrong_width(self):
        ae = Autoencoder(4, TINY)
        with pytest.raises(ValueError):
            ae.reconstruct(np.zeros((2, 5)))

    def test_fitted_flag(self):
        ae = Autoencoder(4, TINY)
        assert not ae.fitted
        ae.fit(RNG.uniform(size=(12, 4)))
        assert ae.fitted
