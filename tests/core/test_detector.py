"""CompoundBehaviorModel tests on a small synthetic cube.

These tests exercise the model machinery (representations, aspects,
fitting, scoring, the zoo) on data small enough to train in seconds; the
detection-quality assertions live in tests/integration.
"""

from datetime import date, timedelta

import numpy as np
import pytest

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

    def test_investigate_reduce_modes(self, cube, group_map):
        model = CompoundBehaviorModel(small_config())
        model.fit(cube, group_map, TRAIN_DAYS)
        assert model.investigate(TEST_DAYS, reduce="mean") is not None
        with pytest.raises(ValueError):
            model.investigate(TEST_DAYS, reduce="median")

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
