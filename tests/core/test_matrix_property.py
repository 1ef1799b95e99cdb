"""Property-based tests on the compound-matrix assembly."""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deviation import DeviationConfig, compute_deviations
from repro.core.representation import RepresentationPipeline
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.utils.timeutil import TWO_TIMEFRAMES


def cube_from_seed(seed, n_users=3, n_days=18):
    fs = FeatureSet([AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a")))])
    users = [f"u{i}" for i in range(n_users)]
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(n_days)]
    values = np.random.default_rng(seed).poisson(4.0, size=(n_users, 2, 2, n_days)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)


def build_view(dev, anchors, matrix_days, include_group=True, apply_weights=True):
    """The compound matrices anchored at ``anchors``, as a zero-copy view."""
    pipeline = RepresentationPipeline.from_deviations(
        dev, include_group=include_group, apply_weights=apply_weights
    )
    return pipeline.view(anchors, matrix_days)


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    window=st.integers(min_value=2, max_value=6),
    matrix_days=st.integers(min_value=1, max_value=5),
    include_group=st.booleans(),
    apply_weights=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_vectors_always_in_unit_interval(seed, window, matrix_days, include_group, apply_weights):
    cube = cube_from_seed(seed)
    dev = compute_deviations(cube, None, DeviationConfig(window=window))
    anchors = dev.days[matrix_days - 1 :]
    view = build_view(
        dev,
        anchors,
        matrix_days=matrix_days,
        include_group=include_group,
        apply_weights=apply_weights,
    )
    vectors = view.materialize()
    assert vectors.min() >= 0.0
    assert vectors.max() <= 1.0
    blocks = 2 if include_group else 1
    assert view.dim == blocks * 2 * 2 * matrix_days


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None)
def test_adjacent_anchor_windows_overlap_consistently(seed):
    """Matrix at anchor j shares D-1 columns with the matrix at j+1."""
    cube = cube_from_seed(seed)
    dev = compute_deviations(cube, None, DeviationConfig(window=4))
    D = 4
    anchors = dev.days[D - 1 :]
    view = build_view(dev, anchors, matrix_days=D, include_group=False)
    vectors = view.materialize()
    for u in range(len(view.users)):
        for j in range(len(anchors) - 1):
            a = vectors[u, j].reshape(2, 2, D)
            b = vectors[u, j + 1].reshape(2, 2, D)
            np.testing.assert_array_equal(a[..., 1:], b[..., :-1])


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    window=st.integers(min_value=2, max_value=6),
)
@settings(max_examples=25, deadline=None)
def test_deviation_outputs_finite_with_expected_shapes(seed, window):
    """compute_deviations never emits NaN/inf and shortens only the day axis."""
    cube = cube_from_seed(seed)
    dev = compute_deviations(cube, None, DeviationConfig(window=window))
    n_users, n_features, n_frames, n_days = cube.values.shape
    expected_days = n_days - (window - 1)
    assert dev.sigma.shape == (n_users, n_features, n_frames, expected_days)
    assert dev.weights.shape == dev.sigma.shape
    assert dev.group_sigma.shape == (1, n_features, n_frames, expected_days)
    assert len(dev.days) == expected_days
    for array in (dev.sigma, dev.weights, dev.group_sigma, dev.group_weights):
        assert np.all(np.isfinite(array))
    assert np.all(np.abs(dev.sigma) <= dev.config.delta)
    assert np.all((dev.weights > 0.0) & (dev.weights <= 1.0))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    matrix_days=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=25, deadline=None)
def test_matrix_outputs_finite_with_expected_shapes(seed, matrix_days):
    cube = cube_from_seed(seed)
    dev = compute_deviations(cube, None, DeviationConfig(window=3))
    anchors = dev.days[matrix_days - 1 :]
    view = build_view(dev, anchors, matrix_days=matrix_days)
    vectors = view.materialize()
    assert vectors.shape == (len(dev.users), len(anchors), view.dim)
    assert np.all(np.isfinite(vectors))


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    include_group=st.booleans(),
    apply_weights=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_permutation_of_users_equivariance(seed, include_group, apply_weights):
    """Relabelling users permutes the outputs and changes nothing else.

    With one global group, the group-average behaviour is symmetric in
    the users, so both the deviation cube and the compound matrices must
    commute with any permutation of the user axis.
    """
    cube = cube_from_seed(seed, n_users=4)
    perm = np.random.default_rng(seed + 1).permutation(len(cube.users))
    permuted = MeasurementCube(
        cube.values[perm],
        [cube.users[i] for i in perm],
        cube.feature_set,
        cube.timeframes,
        cube.days,
    )
    cfg = DeviationConfig(window=3)
    dev = compute_deviations(cube, None, cfg)
    dev_p = compute_deviations(permuted, None, cfg)
    np.testing.assert_array_equal(dev.sigma[perm], dev_p.sigma)
    np.testing.assert_array_equal(dev.weights[perm], dev_p.weights)
    np.testing.assert_array_equal(dev.group_sigma, dev_p.group_sigma)

    anchors = dev.days[1:]
    kwargs = dict(
        matrix_days=2, include_group=include_group, apply_weights=apply_weights
    )
    view = build_view(dev, anchors, **kwargs)
    view_p = build_view(dev_p, anchors, **kwargs)
    np.testing.assert_array_equal(view.materialize()[perm], view_p.materialize())


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    scale=st.floats(min_value=0.5, max_value=20.0),
)
@settings(max_examples=20, deadline=None)
def test_deviation_scale_invariance_of_sigma(seed, scale):
    """Multiplying all measurements by a constant leaves sigma unchanged
    wherever the history std is above the epsilon floor."""
    cube = cube_from_seed(seed)
    cfg = DeviationConfig(window=5)
    dev_a = compute_deviations(cube, None, cfg)
    scaled = MeasurementCube(
        cube.values * scale, cube.users, cube.feature_set, cube.timeframes, cube.days
    )
    dev_b = compute_deviations(scaled, None, cfg)
    # Compare only where both histories had real variance.
    mask = (np.abs(dev_a.sigma) < cfg.delta) & (np.abs(dev_b.sigma) < cfg.delta)
    np.testing.assert_allclose(dev_a.sigma[mask], dev_b.sigma[mask], atol=1e-8)
