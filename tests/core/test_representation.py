"""Representation-pipeline tests: zero-copy views == the seed algorithm.

The refactor's contract is *bit-exactness*: every vector a
:class:`~repro.core.representation.MatrixView` hands out -- through
``materialize()``, ``batches()`` or arbitrary ``rows()`` -- must equal
the pre-refactor eager implementation to the last bit, and a model
trained/scored through views must produce the same floats as one
trained on materialized matrices.  The reference implementation below
is a line-for-line reimplementation of the seed algorithm
(slice-features-first, per-anchor day slices), kept independent of the
production code on purpose.
"""

import pickle
from dataclasses import replace
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.deviation import DeviationConfig, compute_deviations
from repro.core.representation import MatrixView, RepresentationPipeline
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
import repro.nn.autoencoder as autoencoder_module
from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.parallel import derive_seed
from repro.utils.timeutil import TWO_TIMEFRAMES


def make_deviations(seed=0, n_users=4, n_days=18, window=4, groups=2):
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(n_users)]
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(n_days)]
    values = (
        np.random.default_rng(seed).poisson(6.0, size=(n_users, 3, 2, n_days)).astype(float)
    )
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
    group_map = {u: f"g{i % groups}" for i, u in enumerate(users)}
    return compute_deviations(cube, group_map, DeviationConfig(window=window))


def reference_vectors(dev, anchor_days, matrix_days, include_group, apply_weights, feature_indices):
    """The seed algorithm: slice features first, then cut one window per anchor."""
    idx = list(feature_indices)
    sigma = dev.sigma[:, idx]
    weights = dev.weights[:, idx]
    values = sigma * weights if apply_weights else sigma
    if include_group:
        g_sigma = dev.group_sigma[:, idx]
        g_weights = dev.group_weights[:, idx]
        g_values = g_sigma * g_weights if apply_weights else g_sigma
        g_values = g_values[np.asarray(dev.group_of_user)]
        values = np.concatenate([values, g_values], axis=1)
    values = (values + dev.config.delta) / (2.0 * dev.config.delta)

    n_users = len(dev.users)
    dim = values.shape[1] * values.shape[2] * matrix_days
    out = np.empty((n_users, len(anchor_days), dim))
    for a, day in enumerate(anchor_days):
        j = dev.day_index(day)
        out[:, a, :] = values[..., j - matrix_days + 1 : j + 1].reshape(n_users, -1)
    return out


def view_of(dev, anchors, matrix_days, include_group, apply_weights, feature_indices):
    pipeline = RepresentationPipeline.from_deviations(
        dev, include_group=include_group, apply_weights=apply_weights
    )
    return pipeline.view(anchors, matrix_days, feature_indices=feature_indices)


FEATURE_SLICES = [None, [0, 1], [2], [0, 2]]


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    matrix_days=st.integers(min_value=1, max_value=5),
    include_group=st.booleans(),
    apply_weights=st.booleans(),
    slice_index=st.integers(min_value=0, max_value=len(FEATURE_SLICES) - 1),
)
@settings(max_examples=40, deadline=None)
def test_view_is_bit_identical_to_seed_algorithm(
    seed, matrix_days, include_group, apply_weights, slice_index
):
    dev = make_deviations(seed)
    anchors = dev.days[matrix_days - 1 :]
    indices = FEATURE_SLICES[slice_index]
    view = view_of(dev, anchors, matrix_days, include_group, apply_weights, indices)
    ref = reference_vectors(
        dev, anchors, matrix_days, include_group, apply_weights, indices or range(3)
    )

    # Full materialization, sequential batches and arbitrary row gathers
    # all read the same strided windows -- each must be bit-exact.
    np.testing.assert_array_equal(view.materialize(), ref)

    flat = ref.reshape(-1, view.dim)
    batched = np.concatenate(list(view.batches(batch_size=7)), axis=0)
    np.testing.assert_array_equal(batched, flat)

    perm = np.random.default_rng(seed).permutation(len(view))
    np.testing.assert_array_equal(view.rows(perm), flat[perm])


@given(
    seed=st.integers(min_value=0, max_value=10_000),
    matrix_days=st.integers(min_value=1, max_value=5),
    include_group=st.booleans(),
    apply_weights=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_matrix_of_matches_seed_algorithm(seed, matrix_days, include_group, apply_weights):
    """``matrix_of`` unflattens exactly the seed algorithm's vectors."""
    dev = make_deviations(seed)
    anchors = dev.days[matrix_days - 1 :]
    view = view_of(dev, anchors, matrix_days, include_group, apply_weights, None)
    ref = reference_vectors(dev, anchors, matrix_days, include_group, apply_weights, range(3))
    blocks = 2 if include_group else 1
    for u, user in enumerate(dev.users):
        for a, day in enumerate(anchors):
            matrix = view.matrix_of(user, day)
            assert matrix.shape == (blocks * 3, 2, matrix_days)
            np.testing.assert_array_equal(matrix.reshape(-1), ref[u, a])


class TestViewShape:
    def test_row_source_protocol(self):
        dev = make_deviations()
        view = view_of(dev, dev.days[4:9], 5, True, True, None)
        assert len(view) == 4 * 5
        assert view.dim == 2 * 3 * 2 * 5
        assert view.shape == (4, 5, 60)
        assert view.rows(np.array([0, 19])).shape == (2, 60)

    def test_vectors_for_anchor(self):
        dev = make_deviations()
        view = view_of(dev, dev.days[4:9], 5, True, True, None)
        ref = reference_vectors(dev, dev.days[4:9], 5, True, True, range(3))
        np.testing.assert_array_equal(view.vectors_for_anchor(2), ref[:, 2, :])

    def test_error_messages_match_seed_pipeline(self):
        dev = make_deviations()
        pipeline = RepresentationPipeline.from_deviations(dev)
        with pytest.raises(ValueError, match="prior deviation days"):
            pipeline.view([dev.days[1]], 5)
        with pytest.raises(KeyError):
            pipeline.view([date(2031, 1, 1)], 3)
        with pytest.raises(ValueError, match="exceeds available"):
            pipeline.view(dev.days, 100)
        with pytest.raises(ValueError, match="at least one feature"):
            pipeline.view([dev.days[6]], 3, feature_indices=[])

    def test_full_feature_view_shares_pipeline_array(self):
        """The all-features view must alias the pipeline's array (zero copy)."""
        dev = make_deviations()
        pipeline = RepresentationPipeline.from_deviations(dev)
        view = pipeline.view(dev.days[4:], 5)
        assert view._values is pipeline.values

    def test_pickle_ships_compact_base_array(self):
        """Pickling must serialize the base array, never the strided windows."""
        dev = make_deviations(n_days=30)
        pipeline = RepresentationPipeline.from_deviations(dev)
        view = pipeline.view(dev.days[9:], 10)
        payload = pickle.dumps(view)
        materialized_bytes = len(view) * view.dim * 8
        assert len(payload) < materialized_bytes / 2
        restored = pickle.loads(payload)
        idx = np.arange(len(view))
        np.testing.assert_array_equal(restored.rows(idx), view.rows(idx))


TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=4,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=3,
)


class TestTrainingEquivalence:
    def test_row_source_fit_bit_identical_to_dense_fit(self):
        """Training on a MatrixView == training on its materialized array."""
        dev = make_deviations(seed=5, n_days=24)
        view = view_of(dev, dev.days[4:], 5, True, True, None)
        dense = view.materialize().reshape(-1, view.dim)

        ae_view = Autoencoder(input_dim=view.dim, config=TINY_AE)
        hist_view = ae_view.fit(view)
        ae_dense = Autoencoder(input_dim=view.dim, config=TINY_AE)
        hist_dense = ae_dense.fit(dense)

        assert hist_view.loss == hist_dense.loss
        for p_view, p_dense in zip(
            ae_view.network.parameters(), ae_dense.network.parameters()
        ):
            np.testing.assert_array_equal(p_view.value, p_dense.value)
        np.testing.assert_array_equal(
            ae_view.reconstruction_error(view), ae_dense.reconstruction_error(dense)
        )

    def test_row_source_fit_with_validation_split(self):
        """The held-out split must select the same rows either way."""
        dev = make_deviations(seed=9, n_days=24)
        view = view_of(dev, dev.days[4:], 5, True, True, None)
        dense = view.materialize().reshape(-1, view.dim)
        cfg = replace(TINY_AE, validation_split=0.25, epochs=3)

        hist_view = Autoencoder(input_dim=view.dim, config=cfg).fit(view)
        hist_dense = Autoencoder(input_dim=view.dim, config=cfg).fit(dense)
        assert hist_view.loss == hist_dense.loss
        assert hist_view.val_loss == hist_dense.val_loss

    def test_scoring_chunks_match_dense_predict(self, monkeypatch):
        dev = make_deviations(seed=11, n_days=24)
        view = view_of(dev, dev.days[4:], 5, True, True, None)
        ae = Autoencoder(input_dim=view.dim, config=TINY_AE)
        ae.fit(view)
        dense = view.materialize().reshape(-1, view.dim)
        expected = ae.reconstruction_error(dense)
        monkeypatch.setattr(autoencoder_module, "SCORE_BATCH", 13)
        np.testing.assert_array_equal(ae.reconstruction_error(view), expected)


class TestModelEquivalence:
    """Fit + score through the pipeline == the hand-rolled seed pipeline."""

    @pytest.fixture(scope="class")
    def setup(self):
        fs = FeatureSet(
            [
                AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
                AspectSpec("b", (FeatureSpec("f3", "b"),)),
            ]
        )
        n_users, n_days = 5, 30
        users = [f"u{i}" for i in range(n_users)]
        days = [date(2010, 1, 1) + timedelta(days=i) for i in range(n_days)]
        values = (
            np.random.default_rng(21)
            .poisson(5.0, size=(n_users, 3, 2, n_days))
            .astype(float)
        )
        cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
        group_map = {u: ("g1" if i < 3 else "g2") for i, u in enumerate(users)}
        config = ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
        model = CompoundBehaviorModel(config)
        model.fit(cube, group_map, days[:22])
        return cube, group_map, config, model

    def test_scores_match_hand_rolled_seed_pipeline(self, setup):
        cube, group_map, config, model = setup
        dev = compute_deviations(
            cube,
            group_map,
            DeviationConfig(window=config.window, delta=config.delta, epsilon=config.epsilon),
        )
        train_anchors = model.valid_anchor_days(cube.days[:22])
        test_anchors = model.valid_anchor_days(cube.days[22:])
        scores = model.score(test_anchors)

        for index, aspect in enumerate(cube.feature_set.aspects):
            idx = cube.feature_set.aspect_indices(aspect.name)
            train = reference_vectors(dev, train_anchors, config.matrix_days, True, True, idx)
            test = reference_vectors(dev, test_anchors, config.matrix_days, True, True, idx)
            dim = train.shape[2]
            ae = Autoencoder(
                input_dim=dim,
                config=replace(config.autoencoder, seed=derive_seed(config.autoencoder.seed, index)),
            )
            ae.fit(train.reshape(-1, dim))
            expected = ae.reconstruction_error(test.reshape(-1, dim)).reshape(
                len(dev.users), len(test_anchors)
            )
            np.testing.assert_array_equal(scores[aspect.name], expected)

    def test_investigation_stable_across_batch_sizes(self, setup, monkeypatch):
        # The scoring chunk size bounds memory only: errors are per-row.
        cube, group_map, config, model = setup
        test_anchors = model.valid_anchor_days(cube.days[22:])
        baseline = model.investigate(test_anchors)
        for batch_size in (1, 7, 4096):
            monkeypatch.setattr(autoencoder_module, "SCORE_BATCH", batch_size)
            other = model.investigate(test_anchors)
            assert [(e.user, e.priority) for e in other.entries] == [
                (e.user, e.priority) for e in baseline.entries
            ]
