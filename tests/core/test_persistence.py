"""Model save/load round-trip tests."""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.persistence import attach_representation, load_model, save_model
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=3,
    batch_size=16,
    optimizer="adam",
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 30
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]


@pytest.fixture(scope="module")
def cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(5)]
    values = np.random.default_rng(0).poisson(5.0, size=(5, 3, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def fitted(cube):
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, None, DAYS[:20])
    return model


def test_round_trip_preserves_scores(tmp_path, cube, fitted):
    save_model(fitted, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    attach_representation(loaded, cube, None, DAYS[:20])

    test_days = fitted.valid_anchor_days(DAYS[20:])
    original = fitted.score(test_days)
    restored = loaded.score(test_days)
    assert set(original) == set(restored)
    for aspect in original:
        np.testing.assert_array_equal(original[aspect], restored[aspect])


def test_round_trip_preserves_config(tmp_path, fitted):
    save_model(fitted, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    assert loaded.config == fitted.config


def test_loaded_model_requires_representation(tmp_path, fitted):
    save_model(fitted, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    with pytest.raises(RuntimeError):
        loaded.score(DAYS[-3:])


def test_save_unfitted_raises(tmp_path):
    model = CompoundBehaviorModel(ModelConfig(window=5, matrix_days=5, autoencoder=TINY_AE))
    with pytest.raises(ValueError):
        save_model(model, tmp_path / "m")


def test_load_missing_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nothing")


def test_attach_rejects_mismatched_cube(tmp_path, cube, fitted):
    save_model(fitted, tmp_path / "model")
    loaded = load_model(tmp_path / "model")
    # A cube with different aspects must be rejected.
    fs = FeatureSet([AspectSpec("z", (FeatureSpec("zz", "z"),))])
    other = MeasurementCube(
        np.zeros((5, 1, 2, N_DAYS)), cube.users, fs, TWO_TIMEFRAMES, DAYS
    )
    with pytest.raises(ValueError, match="aspect mismatch"):
        attach_representation(loaded, other, None, DAYS[:20])


def _edit_saved_config(directory, edit):
    import json

    config_path = directory / "config.json"
    payload = json.loads(config_path.read_text())
    edit(payload["config"])
    config_path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "edit",
    [
        lambda config: config.update(n_shards=3),
        lambda config: config["autoencoder"].update(arena=True),
    ],
    ids=["model-config", "autoencoder-config"],
)
def test_load_drops_removed_config_keys(tmp_path, cube, fitted, edit):
    # Models saved by older builds carry knobs this build removed.
    save_model(fitted, tmp_path / "model")
    _edit_saved_config(tmp_path / "model", edit)
    loaded = load_model(tmp_path / "model")
    assert loaded.config == fitted.config
    attach_representation(loaded, cube, None, DAYS[:20])
    test_days = fitted.valid_anchor_days(DAYS[20:])
    original = fitted.score(test_days)
    restored = loaded.score(test_days)
    for aspect in original:
        np.testing.assert_array_equal(original[aspect], restored[aspect])


@pytest.mark.parametrize(
    "edit",
    [
        lambda config: config.update(bogus=1),
        lambda config: config["autoencoder"].update(bogus=1),
    ],
    ids=["config", "autoencoder"],
)
def test_load_rejects_unknown_config_keys(tmp_path, fitted, edit):
    from repro.core.persistence import PersistenceError

    save_model(fitted, tmp_path / "model")
    _edit_saved_config(tmp_path / "model", edit)
    with pytest.raises(PersistenceError, match="bogus"):
        load_model(tmp_path / "model")


# ---------------------------------------------------------------------------
# Fault tolerance: saved artifacts must fail with typed errors, not
# stack traces from deep inside NumPy/zipfile (issue 6 satellite).
# ---------------------------------------------------------------------------

import json as _json
import os as _os

from repro.core.persistence import (
    PersistenceError,
    atomic_write_bytes,
    atomic_write_json,
    file_sha256,
)
from repro.testing.faults import (
    FaultInjectionError,
    flip_bit,
    transient_io_errors,
    truncate_file,
)


@pytest.mark.faults
class TestModelPersistenceFaults:
    def test_truncated_weight_archive(self, tmp_path, fitted):
        save_model(fitted, tmp_path / "model")
        truncate_file(tmp_path / "model" / "ae_a.npz", drop_bytes=64)
        with pytest.raises(PersistenceError, match="corrupt or truncated"):
            load_model(tmp_path / "model")

    def test_bit_flipped_archive_header(self, tmp_path, fitted):
        # A flip in the zip header breaks the archive structurally.  (A
        # flip in the *payload* is undetectable by plain .npz -- which
        # is why stream checkpoints add content checksums on top.)
        save_model(fitted, tmp_path / "model")
        flip_bit(tmp_path / "model" / "ae_b.npz", offset=0)
        with pytest.raises(PersistenceError):
            load_model(tmp_path / "model")

    def test_missing_config_is_file_not_found(self, tmp_path, fitted):
        save_model(fitted, tmp_path / "model")
        (tmp_path / "model" / "config.json").unlink()
        with pytest.raises(FileNotFoundError):
            load_model(tmp_path / "model")

    def test_corrupt_config_json(self, tmp_path, fitted):
        save_model(fitted, tmp_path / "model")
        (tmp_path / "model" / "config.json").write_text("{oops")
        with pytest.raises(PersistenceError, match="corrupt model config"):
            load_model(tmp_path / "model")

    def test_partially_written_model_directory(self, tmp_path, fitted):
        # config.json names an aspect whose weight file never made it to
        # disk -- the signature of a crash between the two writes.
        save_model(fitted, tmp_path / "model")
        (tmp_path / "model" / "ae_a.npz").unlink()
        with pytest.raises(PersistenceError, match="partially written"):
            load_model(tmp_path / "model")

    def test_malformed_config_payload(self, tmp_path, fitted):
        save_model(fitted, tmp_path / "model")
        config_path = tmp_path / "model" / "config.json"
        payload = _json.loads(config_path.read_text())
        del payload["config"]["autoencoder"]
        config_path.write_text(_json.dumps(payload))
        with pytest.raises(PersistenceError, match="malformed model config"):
            load_model(tmp_path / "model")


@pytest.mark.faults
class TestAtomicWrites:
    def test_failed_write_leaves_no_artifact(self, tmp_path):
        target = tmp_path / "doc.json"
        with transient_io_errors(1, targets=("replace",)):
            with pytest.raises(FaultInjectionError):
                atomic_write_json(target, {"k": 1})
        assert not target.exists()
        # No temp-file litter either.
        assert list(tmp_path.iterdir()) == []

    def test_failed_rewrite_preserves_old_content(self, tmp_path):
        target = tmp_path / "doc.json"
        atomic_write_json(target, {"generation": 1})
        with transient_io_errors(1, targets=("replace",)):
            with pytest.raises(FaultInjectionError):
                atomic_write_json(target, {"generation": 2})
        assert _json.loads(target.read_text()) == {"generation": 1}

    def test_atomic_write_round_trip_and_checksum(self, tmp_path):
        payload = _os.urandom(1 << 12)
        path = atomic_write_bytes(tmp_path / "blob.bin", payload)
        assert path.read_bytes() == payload
        import hashlib

        assert file_sha256(path) == hashlib.sha256(payload).hexdigest()
