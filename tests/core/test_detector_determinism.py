"""Determinism regression tests for the detector stack.

Reproducibility is a stated contract (the parallel engine is only
usable because parallel == serial bit-for-bit): for a fixed seed, two
fits must produce identical loss curves, identical scores and identical
investigation rankings -- and ``n_jobs`` must never change any of them.
"""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.nn.parallel import derive_seed
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
            AspectSpec("c", (FeatureSpec("f4", "c"),)),
        ]
    )
    users = [f"u{i}" for i in range(6)]
    values = np.random.default_rng(3).poisson(5.0, size=(6, 4, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def group_map(cube):
    return {u: ("g1" if i < 3 else "g2") for i, u in enumerate(cube.users)}


def fit_model(cube, group_map, n_jobs=1, seed=1):
    config = ModelConfig(
        window=5,
        matrix_days=5,
        critic_n=2,
        n_jobs=n_jobs,
        autoencoder=AutoencoderConfig(
            encoder_units=TINY_AE.encoder_units,
            epochs=TINY_AE.epochs,
            batch_size=TINY_AE.batch_size,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=seed,
        ),
    )
    model = CompoundBehaviorModel(config)
    model.fit(cube, group_map, TRAIN_DAYS)
    return model


def ranking(model):
    return [entry.user for entry in model.investigate(TEST_DAYS).entries]


class TestSameSeedTwoRuns:
    def test_identical_training_histories(self, cube, group_map):
        first = fit_model(cube, group_map)
        second = fit_model(cube, group_map)
        assert list(first.training_histories) == list(second.training_histories)
        for aspect in first.aspect_names:
            assert (
                first.training_history(aspect).loss
                == second.training_history(aspect).loss
            )

    def test_identical_scores(self, cube, group_map):
        a = fit_model(cube, group_map).score(TEST_DAYS)
        b = fit_model(cube, group_map).score(TEST_DAYS)
        for aspect in a:
            np.testing.assert_array_equal(a[aspect], b[aspect])

    def test_identical_investigation_rankings(self, cube, group_map):
        assert ranking(fit_model(cube, group_map)) == ranking(fit_model(cube, group_map))

    def test_different_seed_changes_scores(self, cube, group_map):
        a = fit_model(cube, group_map, seed=1).score(TEST_DAYS)
        b = fit_model(cube, group_map, seed=2).score(TEST_DAYS)
        assert any(not np.array_equal(a[aspect], b[aspect]) for aspect in a)


class TestParallelEqualsSerial:
    def test_identical_scores_and_rankings(self, cube, group_map):
        serial = fit_model(cube, group_map, n_jobs=1)
        parallel = fit_model(cube, group_map, n_jobs=2)
        s_scores = serial.score(TEST_DAYS)
        p_scores = parallel.score(TEST_DAYS)
        assert set(s_scores) == set(p_scores)
        for aspect in s_scores:
            np.testing.assert_array_equal(s_scores[aspect], p_scores[aspect])
        assert ranking(serial) == ranking(parallel)

    def test_identical_training_histories(self, cube, group_map):
        serial = fit_model(cube, group_map, n_jobs=1)
        parallel = fit_model(cube, group_map, n_jobs=2)
        for aspect in serial.aspect_names:
            assert (
                serial.training_history(aspect).loss
                == parallel.training_history(aspect).loss
            )


class TestSeedingContract:
    def test_per_aspect_seeds_are_derived_in_ensemble_order(self, cube, group_map):
        model = fit_model(cube, group_map)
        base = model.config.autoencoder.seed
        for index, aspect in enumerate(model.aspect_names):
            assert model.autoencoder(aspect).config.seed == derive_seed(base, index)

    def test_aspects_train_from_distinct_seeds(self, cube, group_map):
        model = fit_model(cube, group_map)
        seeds = [model.autoencoder(a).config.seed for a in model.aspect_names]
        assert len(set(seeds)) == len(seeds)

    def test_model_config_keeps_base_seed(self, cube, group_map):
        model = fit_model(cube, group_map)
        assert model.config.autoencoder.seed == 1
