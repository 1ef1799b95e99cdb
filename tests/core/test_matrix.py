"""Compound-matrix assembly tests (``RepresentationPipeline.view``)."""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.deviation import DeviationConfig, compute_deviations
from repro.core.representation import RepresentationPipeline
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.utils.timeutil import TWO_TIMEFRAMES

CFG = DeviationConfig(window=5, delta=3.0)


def make_deviations(n_users=4, n_days=20, seed=0, groups=2):
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(n_users)]
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(n_days)]
    values = np.random.default_rng(seed).poisson(6.0, size=(n_users, 3, 2, n_days)).astype(float)
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
    group_map = {u: f"g{i % groups}" for i, u in enumerate(users)}
    return compute_deviations(cube, group_map, CFG)


def build_view(dev, anchors, matrix_days, include_group=True, apply_weights=True,
               feature_indices=None):
    """The compound matrices anchored at ``anchors``, as a zero-copy view."""
    pipeline = RepresentationPipeline.from_deviations(
        dev, include_group=include_group, apply_weights=apply_weights
    )
    return pipeline.view(anchors, matrix_days, feature_indices=feature_indices)


class TestDimensions:
    def test_vector_dim_with_group(self):
        dev = make_deviations()
        view = build_view(dev, dev.days[4:7], matrix_days=5)
        # 2 blocks x 3 features x 2 frames x 5 days.
        assert view.dim == 2 * 3 * 2 * 5
        assert view.shape == (4, 3, 60)

    def test_vector_dim_without_group(self):
        dev = make_deviations()
        view = build_view(dev, dev.days[4:7], matrix_days=5, include_group=False)
        assert view.dim == 3 * 2 * 5

    def test_single_day_matrix(self):
        dev = make_deviations()
        view = build_view(dev, dev.days, matrix_days=1)
        assert view.dim == 2 * 3 * 2

    def test_aspect_restriction(self):
        dev = make_deviations()
        idx = dev.feature_set.aspect_indices("b")
        view = build_view(dev, dev.days[4:6], matrix_days=5, feature_indices=idx)
        assert view.feature_names == ["f3"]
        assert view.dim == 2 * 1 * 2 * 5


class TestValues:
    def test_values_in_unit_interval(self):
        dev = make_deviations()
        vectors = build_view(dev, dev.days[4:], matrix_days=5).materialize()
        assert vectors.min() >= 0.0
        assert vectors.max() <= 1.0

    def test_unweighted_matches_direct_transform(self):
        dev = make_deviations()
        day = dev.days[6]
        view = build_view(dev, [day], matrix_days=3, apply_weights=False)
        j = dev.day_index(day)
        expected_individual = (dev.sigma[0, :, :, j - 2 : j + 1] + 3.0) / 6.0
        got = view.matrix_of("u0", day)[:3]  # the individual block
        np.testing.assert_allclose(got, expected_individual)

    def test_weighting_shrinks_toward_center(self):
        dev = make_deviations()
        day = dev.days[6]
        raw = build_view(dev, [day], matrix_days=3, apply_weights=False).materialize()
        weighted = build_view(dev, [day], matrix_days=3, apply_weights=True).materialize()
        # Weighted deviations are closer to the 0.5 midpoint everywhere.
        assert np.all(np.abs(weighted - 0.5) <= np.abs(raw - 0.5) + 1e-12)

    def test_group_block_identical_for_group_members(self):
        dev = make_deviations(groups=1)
        day = dev.days[6]
        view = build_view(dev, [day], matrix_days=3)
        half = view.dim // 2
        group_blocks = view.materialize()[:, 0, half:]
        for row in group_blocks[1:]:
            np.testing.assert_array_equal(row, group_blocks[0])

    def test_matrix_of_unflattens(self):
        dev = make_deviations()
        day = dev.days[6]
        view = build_view(dev, [day], matrix_days=3)
        matrix = view.matrix_of("u0", day)
        assert matrix.shape == (6, 2, 3)  # 2 blocks x 3 features, T, D
        np.testing.assert_array_equal(matrix.reshape(-1), view.materialize()[0, 0])
        with pytest.raises(KeyError, match="unknown user"):
            view.matrix_of("nobody", day)
        with pytest.raises(KeyError, match="no matrix anchored"):
            view.matrix_of("u0", dev.days[7])


class TestValidation:
    def test_anchor_needs_enough_prior_days(self):
        dev = make_deviations()
        with pytest.raises(ValueError, match="prior deviation days"):
            build_view(dev, [dev.days[1]], matrix_days=5)

    def test_unknown_anchor_raises(self):
        dev = make_deviations()
        with pytest.raises(KeyError):
            build_view(dev, [date(2031, 1, 1)], matrix_days=3)

    def test_matrix_days_exceeding_available_raises(self):
        dev = make_deviations(n_days=10)
        with pytest.raises(ValueError, match="exceeds available"):
            build_view(dev, dev.days, matrix_days=100)

    def test_empty_features_raises(self):
        dev = make_deviations()
        with pytest.raises(ValueError):
            build_view(dev, [dev.days[6]], matrix_days=3, feature_indices=[])

    def test_training_set_pools_users_and_days(self):
        dev = make_deviations()
        view = build_view(dev, dev.days[4:9], matrix_days=5)
        train = view.materialize().reshape(-1, view.dim)
        assert train.shape == (4 * 5, view.dim)
        np.testing.assert_array_equal(view.rows(np.arange(len(view))), train)
