"""Property test: checkpoint/restore at ANY cut points == uninterrupted stream.

The headline durability claim of the streaming subsystem, pinned with
hypothesis: for a random day-sequence and a random set of
checkpoint/restore cut points (each restore rebuilds the detector from
the serialized state on disk, as a crashed process would), every
emitted day's scores and investigation list are bit-identical to a
stream that never died -- including sequences with quarantined days in
the middle.
"""

from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.checkpoint import resume_streaming, save_checkpoint
from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.streaming import DailyResult, StreamingDetector
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.testing.faults import poison_slab
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=2,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 24
DAYS = [date(2011, 3, 1) + timedelta(days=i) for i in range(N_DAYS)]
N_USERS = 5


@pytest.fixture(scope="module")
def cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(N_USERS)]
    values = (
        np.random.default_rng(13).poisson(5.0, size=(N_USERS, 3, 2, N_DAYS)).astype(float)
    )
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def group_map(cube):
    return {u: ("g1" if i < 2 else "g2") for i, u in enumerate(cube.users)}


@pytest.fixture(scope="module")
def fitted(cube, group_map):
    model = CompoundBehaviorModel(
        ModelConfig(window=4, matrix_days=4, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, group_map, DAYS[:18])
    return model


def make_slabs(cube, slab_seed, bad_days):
    """A derived day-sequence: rescaled cube days, some poisoned."""
    rng = np.random.default_rng(slab_seed)
    scale = rng.uniform(0.5, 2.0)
    slabs = []
    for d in range(N_DAYS):
        slab = cube.values[:, :, :, d] * scale
        if d in bad_days:
            slab = poison_slab(slab, n_values=2, seed=slab_seed + d)
        slabs.append(slab)
    return slabs


def run_stream(stream, slabs, start, stop, checkpoint_dir=None, cuts=()):
    """Feed days [start, stop); checkpoint+rebuild at each cut index."""
    results = {}
    for d in range(start, stop):
        out = stream.observe_day(DAYS[d], slabs[d])
        if isinstance(out, DailyResult):
            results[DAYS[d]] = out
        if checkpoint_dir is not None and d in cuts:
            save_checkpoint(stream, checkpoint_dir)
            stream = resume_streaming(stream.model, checkpoint_dir)  # "crash"
    return results


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    slab_seed=st.integers(0, 2**16),
    cuts=st.sets(st.integers(0, N_DAYS - 1), min_size=1, max_size=4),
    bad_days=st.sets(st.integers(5, N_DAYS - 2), max_size=2),
)
def test_interleaved_checkpoint_restore_equals_uninterrupted(
    cube, group_map, fitted, tmp_path_factory, slab_seed, cuts, bad_days
):
    slabs = make_slabs(cube, slab_seed, bad_days)
    checkpoint_dir = tmp_path_factory.mktemp("ckpt")

    uninterrupted = run_stream(
        StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip"),
        slabs, 0, N_DAYS,
    )
    chopped = run_stream(
        StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip"),
        slabs, 0, N_DAYS, checkpoint_dir=checkpoint_dir, cuts=cuts,
    )

    assert set(chopped) == set(uninterrupted)
    for day, result in chopped.items():
        expected = uninterrupted[day]
        for aspect in expected.scores:
            assert np.array_equal(result.scores[aspect], expected.scores[aspect])
        assert [e.user for e in result.investigation.entries] == [
            e.user for e in expected.investigation.entries
        ]
        assert [e.priority for e in result.investigation.entries] == [
            e.priority for e in expected.investigation.entries
        ]
