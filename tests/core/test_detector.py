"""CompoundBehaviorModel tests on a small synthetic cube.

These tests exercise the model machinery (representations, aspects,
fitting, scoring, the zoo) on data small enough to train in seconds; the
detection-quality assertions live in tests/integration.
"""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.checkpoint import config_digest
from repro.core.critic import investigation_list
from repro.core.detector import (
    CompoundBehaviorModel,
    ModelConfig,
    make_acobe,
    make_all_in_one,
    make_base_ff,
    make_baseline,
    make_no_group,
    make_one_day,
)
from repro.eval.experiments import cert_config
from repro.eval.run import make_model
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=4,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 40
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]
TRAIN_DAYS = DAYS[:30]
TEST_DAYS = DAYS[30:]


@pytest.fixture(scope="module")
def cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(6)]
    values = np.random.default_rng(3).poisson(5.0, size=(6, 3, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def group_map(cube):
    return {u: ("g1" if i < 3 else "g2") for i, u in enumerate(cube.users)}


def small_config(**kwargs):
    defaults = dict(window=5, matrix_days=5, autoencoder=TINY_AE, critic_n=2)
    defaults.update(kwargs)
    return ModelConfig(**defaults)


class TestConfigValidation:
    def test_rejects_unknown_representation(self):
        with pytest.raises(ValueError):
            ModelConfig(representation="wavelet")

    @pytest.mark.parametrize("kwargs", [{"matrix_days": 0}, {"train_stride": 0}, {"critic_n": 0}])
    def test_rejects_bad_ints(self, kwargs):
        with pytest.raises(ValueError):
            ModelConfig(**kwargs)


class TestFitAndScore:
    def test_fit_trains_one_autoencoder_per_aspect(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        model.fit(cube, group_map, TRAIN_DAYS)
        assert model.aspect_names == ["a", "b"]
        assert model.autoencoder("a").fitted
        assert model.autoencoder("b").input_dim == 2 * 1 * 2 * 5

    def test_score_shapes(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        model.fit(cube, group_map, TRAIN_DAYS)
        scores = model.score(TEST_DAYS)
        assert set(scores) == {"a", "b"}
        assert scores["a"].shape == (6, len(TEST_DAYS))
        assert np.all(scores["a"] >= 0)

    def test_investigate_orders_all_users(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        model.fit(cube, group_map, TRAIN_DAYS)
        inv = model.investigate(TEST_DAYS)
        assert sorted(inv.users()) == sorted(cube.users)

    def test_investigate_ranks_each_aspect_by_its_peak_score(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        model.fit(cube, group_map, TRAIN_DAYS)
        scores = model.score(TEST_DAYS)
        peaks = {
            aspect: {user: float(array[i].max()) for i, user in enumerate(model.users)}
            for aspect, array in scores.items()
        }
        expected = investigation_list(peaks, model.config.critic_n)
        assert model.investigate(TEST_DAYS).entries == expected.entries

    def test_score_before_fit_raises(self, cube):
        model = CompoundBehaviorModel(small_config())
        with pytest.raises(RuntimeError):
            model.score(TEST_DAYS)

    def test_valid_anchor_days_drops_history(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        model.fit(cube, group_map, TRAIN_DAYS)
        # window 5 consumes 4 days; matrix 5 consumes 4 more.
        anchors = model.valid_anchor_days(DAYS)
        assert anchors[0] == DAYS[8]

    def test_no_valid_training_day_raises(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        with pytest.raises(ValueError, match="no training day"):
            model.fit(cube, group_map, DAYS[:4])

    def test_all_in_one_single_aspect(self, cube, group_map):
        model = CompoundBehaviorModel(small_config(all_in_one=True, critic_n=1))
        model.fit(cube, group_map, TRAIN_DAYS)
        assert model.aspect_names == ["all"]
        assert model.autoencoder("all").input_dim == 2 * 3 * 2 * 5

    def test_no_group_halves_dim(self, cube, group_map):
        model = CompoundBehaviorModel(small_config(include_group=False))
        model.fit(cube, group_map, TRAIN_DAYS)
        assert model.autoencoder("a").input_dim == 2 * 2 * 5

    def test_normalized_representation_uses_all_days(self, cube, group_map):
        cfg = small_config(representation="normalized", matrix_days=1, apply_weights=False)
        model = CompoundBehaviorModel(cfg)
        model.fit(cube, group_map, TRAIN_DAYS)
        anchors = model.valid_anchor_days(DAYS)
        assert anchors == DAYS  # no history consumed

    def test_normalized_representation_values_unit(self, cube, group_map):
        cfg = small_config(representation="normalized", matrix_days=1, apply_weights=False)
        model = CompoundBehaviorModel(cfg)
        model.fit(cube, group_map, TRAIN_DAYS)
        dev = model.deviations
        assert np.all(np.abs(dev.sigma) <= cfg.delta + 1e-12)
        assert np.all(dev.weights == 1.0)


class TestModelZoo:
    def test_acobe_defaults(self):
        model = make_acobe(TINY_AE)
        cfg = model.config
        assert cfg.name == "ACOBE"
        assert cfg.include_group and cfg.apply_weights
        assert cfg.representation == "deviation"
        assert cfg.window == 30 and cfg.matrix_days == 30
        assert cfg.critic_n == 3

    def test_no_group(self):
        assert make_no_group(TINY_AE).config.include_group is False

    def test_one_day(self):
        cfg = make_one_day(TINY_AE).config
        assert cfg.representation == "normalized"
        assert cfg.matrix_days == 1
        assert cfg.include_group is True

    def test_all_in_one(self):
        cfg = make_all_in_one(TINY_AE).config
        assert cfg.all_in_one is True

    def test_baseline(self):
        cfg = make_baseline(TINY_AE).config
        assert cfg.representation == "normalized"
        assert cfg.include_group is False
        assert cfg.apply_weights is False
        assert cfg.matrix_days == 1

    def test_base_ff(self):
        cfg = make_base_ff(TINY_AE).config
        assert cfg.name == "Base-FF"
        assert cfg.include_group is False

    def test_ae_config_threads_through(self):
        model = make_acobe(TINY_AE)
        assert model.config.autoencoder == TINY_AE


FACTORIES = {
    "acobe": make_acobe,
    "no-group": make_no_group,
    "one-day": make_one_day,
    "all-in-one": make_all_in_one,
    "baseline": make_baseline,
    "base-ff": make_base_ff,
}

#: ``config_digest`` of each zoo model with the factory's default arguments.
DEFAULT_DIGESTS = {
    "acobe": "b8ac57b17205e65b2fe2ceeb7057a8f38c8ed8641d6ed3fca1d7373beb8d1b04",
    "no-group": "02389c2e35ccfbf7c9b26bbc6e11dc84c4dfae87f522a01c359d2cd1e7860e14",
    "one-day": "60007508c3eed225de20a1eeb65843795c3301abc8aac6516956b31f10413ca6",
    "all-in-one": "22dc688b3aea68520bb5772ab3099108a14c43f0df0f54e51794b9a59ddb86f0",
    "baseline": "a2d4eb813d2c1166357010e96b4dd82229d7a203379a9bdc85ed61d3cf52b6d2",
    "base-ff": "1e489bb2299f8fe89b768173fd34f802b7115e6370538de9abbb7ee93edf1a9f",
}

#: ... built from the ``small`` CERT preset; its autoencoder is already
#: float32, so ``dtype=None`` and ``"float32"`` agree and float64 differs.
SMALL_DIGESTS = {
    "acobe": "8b6f061139940c63f3f0d31bda0fa0cd2e2af98a123493d3176dfa33f15d86b0",
    "no-group": "61b531e4e81ff68e62064e8798866872a11939d76e278b03b9a8ea3909cb5869",
    "one-day": "95d744f9fe1737a5ac8e5a0bb1e380337ad2816cadeec6cdbb8ba14d1625f041",
    "all-in-one": "7ada6a9b15a4d398f40e63f0937f9c50d8a7f5de536d41dff92e91adcf65b8de",
    "baseline": "f54cadc4c833f0fcd12224784a9ad741e540d93e1564b7faa26217c9b55810fc",
    "base-ff": "f5ca7bee96d155171b971823919542e4b707da5324628ad937f1f59f86363741",
}
SMALL_FLOAT64_DIGESTS = {
    "acobe": "703c660b6a9039a915fec34cb03ef8cb4402be383f6202ad54a54f443fc9d6a9",
    "no-group": "48194427f7bb896732009631bf1600860a793c166f801470dae5713f7c85f356",
    "one-day": "bd7d19c03d889767791235eac564c378329af858f64ae4aa117a0cf3271c1565",
    "all-in-one": "dbaa0d0ef0e59c6e1ea096380f12256d7ddaa0b5b02ecb5cfb5861f00907815c",
    "baseline": "3f80ef062ce7fba081e13fe917abc8a46da7a0bb8cffa2afd564255ff6dd418c",
    "base-ff": "30dc4c5ef80805558598558f2869cde53b9045769f45c8331e10d3bce82acfb4",
}


class TestZooDigests:
    """Every zoo configuration, field for field, as pinned digests."""

    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_default_arguments(self, name):
        assert config_digest(FACTORIES[name]().config) == DEFAULT_DIGESTS[name]

    @pytest.mark.parametrize("dtype", [None, "float32", "float64"])
    @pytest.mark.parametrize("name", sorted(FACTORIES))
    def test_small_preset(self, name, dtype):
        preset = cert_config("small")
        kwargs = dict(ae_config=preset.autoencoder, train_stride=preset.train_stride, dtype=dtype)
        if name in ("acobe", "no-group", "all-in-one"):
            kwargs.update(window=preset.window, matrix_days=preset.matrix_days)
        digest = config_digest(FACTORIES[name](**kwargs).config)
        expected = SMALL_FLOAT64_DIGESTS if dtype == "float64" else SMALL_DIGESTS
        assert digest == expected[name]
        assert config_digest(make_model(name, preset, dtype=dtype).config) == digest
