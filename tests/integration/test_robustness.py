"""Robustness / failure-injection tests.

A production detector meets broken inputs: missing users, empty days,
NaNs, degenerate populations.  These tests pin the library's behaviour
on each: fail loudly at the boundary, never mid-pipeline.
"""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.deviation import DeviationConfig, compute_deviations
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=2,
    batch_size=8,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=0,
)

DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(25)]


def make_cube(values=None, n_users=4):
    fs = FeatureSet([AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a")))])
    users = [f"u{i}" for i in range(n_users)]
    if values is None:
        values = np.random.default_rng(0).poisson(4.0, size=(n_users, 2, 2, len(DAYS))).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


class TestCorruptedInputs:
    def test_nan_measurements_rejected_at_cube_boundary(self):
        values = np.zeros((4, 2, 2, len(DAYS)))
        values[1, 0, 0, 3] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            make_cube(values=values)

    def test_infinite_measurements_rejected(self):
        values = np.zeros((4, 2, 2, len(DAYS)))
        values[0, 1, 1, 0] = np.inf
        with pytest.raises(ValueError):
            make_cube(values=values)

    def test_group_map_with_unknown_group_members_ok(self):
        """Extra entries in the group map are harmless; missing ones fail."""
        cube = make_cube()
        group_map = {u: "g" for u in cube.users}
        group_map["stranger"] = "g"
        dev = compute_deviations(cube, group_map, DeviationConfig(window=5))
        assert dev.groups == ["g"]


class TestDegeneratePopulations:
    def test_single_user_population(self):
        cube = make_cube(n_users=1)
        model = CompoundBehaviorModel(
            ModelConfig(window=5, matrix_days=5, critic_n=1, autoencoder=TINY_AE)
        )
        model.fit(cube, None, DAYS[:15])
        inv = model.investigate(model.valid_anchor_days(DAYS[15:]))
        assert inv.users() == ["u0"]

    def test_all_zero_measurements_score_finite(self):
        cube = make_cube(values=np.zeros((4, 2, 2, len(DAYS))))
        model = CompoundBehaviorModel(
            ModelConfig(window=5, matrix_days=5, critic_n=1, autoencoder=TINY_AE)
        )
        model.fit(cube, None, DAYS[:15])
        scores = model.score(model.valid_anchor_days(DAYS[15:]))
        for arr in scores.values():
            assert np.isfinite(arr).all()

    def test_constant_measurements_produce_zero_sigma(self):
        cube = make_cube(values=np.full((4, 2, 2, len(DAYS)), 7.0))
        dev = compute_deviations(cube, None, DeviationConfig(window=5))
        np.testing.assert_array_equal(dev.sigma, 0.0)


class TestBoundaryWindows:
    def test_scoring_day_without_history_rejected(self):
        cube = make_cube()
        model = CompoundBehaviorModel(
            ModelConfig(window=5, matrix_days=5, critic_n=1, autoencoder=TINY_AE)
        )
        model.fit(cube, None, DAYS[:15])
        with pytest.raises(KeyError):
            # Day 0 has no deviation value at all.
            model.score([DAYS[0]])

    def test_window_equal_to_available_days_rejected(self):
        cube = make_cube()
        model = CompoundBehaviorModel(
            ModelConfig(window=len(DAYS) + 5, matrix_days=5, autoencoder=TINY_AE)
        )
        with pytest.raises(ValueError):
            model.fit(cube, None, DAYS)

    def test_empty_train_days_rejected(self):
        cube = make_cube()
        model = CompoundBehaviorModel(
            ModelConfig(window=5, matrix_days=5, autoencoder=TINY_AE)
        )
        with pytest.raises(ValueError):
            model.fit(cube, None, [])
