"""Checkpoint/resume tests: durability, corruption detection, bit-identity."""

import json
from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.checkpoint import (
    CHECKPOINT_VERSION,
    GROUP_STATE_FILE,
    MANIFEST_FILE,
    USER_STATE_FILE,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    config_digest,
    load_checkpoint,
    resume_streaming,
    save_checkpoint,
)
from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.streaming import StreamingDetector
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import Telemetry, set_telemetry
from repro.testing.faults import corrupt_checkpoint_state, transient_io_errors
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=3,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 35
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]


@pytest.fixture(scope="module")
def cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(6)]
    values = np.random.default_rng(7).poisson(5.0, size=(6, 3, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def group_map(cube):
    return {u: ("g1" if i < 3 else "g2") for i, u in enumerate(cube.users)}


@pytest.fixture(scope="module")
def fitted(cube, group_map):
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, group_map, DAYS[:25])
    return model


@pytest.fixture
def no_sleep(monkeypatch):
    monkeypatch.setattr("repro.core.checkpoint._SLEEP", lambda seconds: None)


def feed(stream, cube, start, stop):
    """Feed cube days [start, stop) through the stream; collect outputs."""
    results = {}
    for d in range(start, stop):
        out = stream.observe_day(DAYS[d], cube.values[:, :, :, d])
        if out is not None:
            results[DAYS[d]] = out
    return results


class TestRoundTrip:
    def test_state_round_trips_bit_exactly(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 20)
        save_checkpoint(stream, tmp_path / "ckpt")

        loaded = load_checkpoint(tmp_path / "ckpt")
        original = stream.export_state()
        assert loaded.last_day == DAYS[19]
        assert loaded.users == cube.users
        assert loaded.group_map == group_map
        assert len(loaded.state.history) == len(original.history)
        for a, b in zip(loaded.state.history, original.history):
            np.testing.assert_array_equal(a, b)
        for (s1, w1), (s2, w2) in zip(loaded.state.sigma_buffer, original.sigma_buffer):
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(w1, w2)
        for (s1, w1), (s2, w2) in zip(
            loaded.state.group_sigma_buffer, original.group_sigma_buffer
        ):
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(w1, w2)

    @pytest.mark.parametrize("cut", [3, 9, 20, 28])
    def test_kill_and_resume_is_bit_identical(self, tmp_path, cube, group_map, fitted, cut):
        # Uninterrupted reference run.
        reference = feed(StreamingDetector(fitted, cube.users, group_map), cube, 0, N_DAYS)

        # Crash after `cut` days, then resume from the checkpoint.
        dying = StreamingDetector(fitted, cube.users, group_map)
        feed(dying, cube, 0, cut)
        save_checkpoint(dying, tmp_path / "ckpt")
        del dying

        resumed = resume_streaming(fitted, tmp_path / "ckpt")
        tail = feed(resumed, cube, cut, N_DAYS)

        expected_tail = {d: r for d, r in reference.items() if d >= DAYS[cut]}
        assert set(tail) == set(expected_tail)
        for day, result in tail.items():
            expected = expected_tail[day]
            for aspect in expected.scores:
                assert np.array_equal(result.scores[aspect], expected.scores[aspect])
            assert [e.user for e in result.investigation.entries] == [
                e.user for e in expected.investigation.entries
            ]
            assert [e.priority for e in result.investigation.entries] == [
                e.priority for e in expected.investigation.entries
            ]

    def test_resume_restores_day_cursor_and_counters(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
        feed(stream, cube, 0, 12)
        bad = cube.values[:, :, :, 12].copy()
        bad[0, 0, 0] = np.nan
        stream.observe_day(DAYS[12], bad)  # quarantined
        save_checkpoint(stream, tmp_path / "ckpt")

        resumed = resume_streaming(fitted, tmp_path / "ckpt")
        assert resumed.last_day == DAYS[12]
        assert resumed.days_observed == 13
        assert resumed.days_quarantined == 1
        assert resumed.on_bad_day == "skip"
        # Day ordering is still enforced across the resume boundary.
        with pytest.raises(ValueError, match="strictly increasing"):
            resumed.observe_day(DAYS[12], cube.values[:, :, :, 12])

    def test_resume_policy_override(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
        feed(stream, cube, 0, 5)
        save_checkpoint(stream, tmp_path / "ckpt")
        resumed = resume_streaming(fitted, tmp_path / "ckpt", on_bad_day="impute-group-mean")
        assert resumed.on_bad_day == "impute-group-mean"

    def test_checkpoint_mid_warmup_resumes(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 2)  # far from ready
        save_checkpoint(stream, tmp_path / "ckpt")
        resumed = resume_streaming(fitted, tmp_path / "ckpt")
        assert not resumed.ready
        tail = feed(resumed, cube, 2, N_DAYS)
        reference = feed(StreamingDetector(fitted, cube.users, group_map), cube, 0, N_DAYS)
        assert set(tail) == set(reference)
        for day in tail:
            for aspect in tail[day].scores:
                assert np.array_equal(tail[day].scores[aspect], reference[day].scores[aspect])

    def test_save_overwrites_previous_checkpoint(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        feed(stream, cube, 10, 20)
        save_checkpoint(stream, tmp_path / "ckpt")
        assert load_checkpoint(tmp_path / "ckpt").last_day == DAYS[19]


class TestValidation:
    def test_missing_directory(self, tmp_path):
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "nope")

    @pytest.mark.faults
    def test_partially_written_no_manifest(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        (tmp_path / "ckpt" / MANIFEST_FILE).unlink()
        # State without manifest == uncommitted == absent, not corrupt.
        with pytest.raises(CheckpointNotFoundError, match="never committed"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.faults
    @pytest.mark.parametrize("missing", [USER_STATE_FILE, GROUP_STATE_FILE])
    def test_partially_written_no_state(self, tmp_path, cube, group_map, fitted, missing):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        (tmp_path / "ckpt" / missing).unlink()
        with pytest.raises(CheckpointCorruptionError, match="partially written"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.faults
    def test_bit_flip_fails_checksum(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        corrupt_checkpoint_state(tmp_path / "ckpt")
        with pytest.raises(CheckpointCorruptionError, match="checksum mismatch"):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.faults
    def test_corrupt_manifest_json(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        (tmp_path / "ckpt" / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(CheckpointCorruptionError, match="corrupt checkpoint manifest"):
            load_checkpoint(tmp_path / "ckpt")

    def test_foreign_schema_rejected(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["schema"] = "acobe.run_report"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointCorruptionError, match="not a stream checkpoint"):
            load_checkpoint(tmp_path / "ckpt")

    def test_future_version_rejected(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["version"] = CHECKPOINT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatchError, match="newer"):
            load_checkpoint(tmp_path / "ckpt")

    def test_config_digest_mismatch_blocks_resume(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        manifest_path = tmp_path / "ckpt" / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["config_digest"] = "0" * 64
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(CheckpointMismatchError, match="digest"):
            resume_streaming(fitted, tmp_path / "ckpt")

    def test_config_digest_is_config_equality(self, fitted):
        assert config_digest(fitted.config) == config_digest(fitted.config)
        other = ModelConfig(window=6, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
        assert config_digest(other) != config_digest(fitted.config)

    def test_config_digest_ignores_worker_count(self):
        # Training is bit-identical for every n_jobs, so a checkpoint
        # resumes under any worker count.
        digests = {config_digest(ModelConfig(n_jobs=n)) for n in (-1, 0, 1, 4)}
        assert digests == {config_digest(ModelConfig())}

    @pytest.mark.parametrize(
        "autoencoder,digest",
        [
            (
                AutoencoderConfig(),
                "b8ac57b17205e65b2fe2ceeb7057a8f38c8ed8641d6ed3fca1d7373beb8d1b04",
            ),
            (
                AutoencoderConfig(dtype="float32"),
                "bb31349152fe167f9aa54ea4250f088c0ff3f125b26cf6541346ffa2624b4ec6",
            ),
        ],
        ids=["float64", "float32"],
    )
    def test_config_digest_is_pinned(self, autoencoder, digest):
        # Literal digests of already written checkpoints: any change to
        # the config fields or the digest recipe would orphan them.
        assert config_digest(ModelConfig(autoencoder=autoencoder)) == digest


def write_v1_checkpoint(directory, stream):
    """Hand-write the legacy single-slab (version 1) checkpoint layout."""
    import hashlib
    import io

    directory.mkdir(parents=True, exist_ok=True)
    state = stream.export_state()
    arrays = {}
    for i, slab in enumerate(state.history):
        arrays[f"history_{i}"] = slab
    for i, (sigma, weight) in enumerate(state.sigma_buffer):
        arrays[f"sigma_{i}"] = sigma
        arrays[f"sigweight_{i}"] = weight
    for i, (sigma, weight) in enumerate(state.group_sigma_buffer):
        arrays[f"gsigma_{i}"] = sigma
        arrays[f"gweight_{i}"] = weight
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    payload = buffer.getvalue()
    (directory / "state.npz").write_bytes(payload)
    manifest = {
        "schema": "acobe.stream_checkpoint",
        "version": 1,
        "config_digest": config_digest(stream.model.config),
        "last_day": state.last_day.isoformat() if state.last_day else None,
        "users": list(stream.users),
        "groups": list(stream.groups),
        "group_map": dict(stream.group_map),
        "on_bad_day": stream.on_bad_day,
        "counts": {
            "history": len(state.history),
            "sigma": len(state.sigma_buffer),
            "group_sigma": len(state.group_sigma_buffer),
        },
        "counters": {
            "days_observed": state.days_observed,
            "days_quarantined": state.days_quarantined,
            "days_imputed": state.days_imputed,
            "values_imputed": state.values_imputed,
        },
        "checksums": {"state.npz": hashlib.sha256(payload).hexdigest()},
    }
    (directory / MANIFEST_FILE).write_text(json.dumps(manifest))
    return directory


def set_manifest_version(directory, version):
    """Rewrite a committed manifest's layout version (None drops the field)."""
    manifest_path = directory / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    if version is None:
        del manifest["version"]
    else:
        manifest["version"] = version
    manifest_path.write_text(json.dumps(manifest))


class TestLegacyVersionsRejected:
    """Layouts before version 4 are refused, never migrated."""

    def test_v1_checkpoint_refused(self, tmp_path, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 15)
        write_v1_checkpoint(tmp_path / "v1", stream)
        with pytest.raises(CheckpointMismatchError, match="layout version 1.*fresh stream"):
            load_checkpoint(tmp_path / "v1")

    @pytest.mark.parametrize("version", [2, 3])
    def test_older_layout_refused(self, tmp_path, cube, group_map, fitted, version):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 15)
        save_checkpoint(stream, tmp_path / "old")
        set_manifest_version(tmp_path / "old", version)
        with pytest.raises(
            CheckpointMismatchError, match=f"layout version {version}.*fresh stream"
        ):
            resume_streaming(fitted, tmp_path / "old")

    def test_versionless_manifest_refused(self, tmp_path, cube, group_map, fitted):
        # A manifest without a version used to be read as version 1.
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 15)
        write_v1_checkpoint(tmp_path / "old", stream)
        set_manifest_version(tmp_path / "old", None)
        with pytest.raises(CheckpointMismatchError, match="no layout version.*fresh stream"):
            load_checkpoint(tmp_path / "old")

    def test_fresh_save_replaces_legacy_checkpoint(self, tmp_path, cube, group_map, fitted):
        # Starting a fresh stream in the old directory commits a v4
        # checkpoint and removes the legacy state file.
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 15)
        write_v1_checkpoint(tmp_path / "v1", stream)
        save_checkpoint(stream, tmp_path / "v1")
        assert not (tmp_path / "v1" / "state.npz").exists()
        assert load_checkpoint(tmp_path / "v1").last_day == DAYS[14]


class TestStateLayout:
    def test_fresh_save_writes_exactly_the_core_files(
        self, tmp_path, cube, group_map, fitted
    ):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 12)
        save_checkpoint(stream, tmp_path / "ckpt", extra_files={"state_cursor.json": b"{}"})
        assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == sorted(
            [MANIFEST_FILE, USER_STATE_FILE, GROUP_STATE_FILE, "state_cursor.json"]
        )
        manifest = json.loads((tmp_path / "ckpt" / MANIFEST_FILE).read_text())
        assert manifest["version"] == CHECKPOINT_VERSION == 4
        assert manifest["user_file"] == USER_STATE_FILE
        assert manifest["group_file"] == GROUP_STATE_FILE

    def test_state_files_hold_one_stacked_member_per_kind(
        self, tmp_path, cube, group_map, fitted
    ):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 12)
        save_checkpoint(stream, tmp_path / "ckpt")
        state = stream.export_state()
        with np.load(tmp_path / "ckpt" / USER_STATE_FILE) as archive:
            assert sorted(archive.files) == ["history", "sigma", "sigweight"]
            np.testing.assert_array_equal(archive["history"], np.stack(state.history))
        with np.load(tmp_path / "ckpt" / GROUP_STATE_FILE) as archive:
            assert sorted(archive.files) == ["gsigma", "gweight"]
            assert len(archive["gsigma"]) == len(state.group_sigma_buffer)

    def test_empty_buffers_round_trip(self, tmp_path, cube, group_map, fitted):
        # Before the first day every buffer is empty: a zero-length
        # leading axis, which must load back as empty buffers.
        stream = StreamingDetector(fitted, cube.users, group_map)
        save_checkpoint(stream, tmp_path / "ckpt")
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.state.history == []
        assert loaded.state.sigma_buffer == []
        assert loaded.state.group_sigma_buffer == []
        resumed = resume_streaming(fitted, tmp_path / "ckpt")
        tail = feed(resumed, cube, 0, N_DAYS)
        reference = feed(StreamingDetector(fitted, cube.users, group_map), cube, 0, N_DAYS)
        assert set(tail) == set(reference)


class TestRetries:
    @pytest.mark.faults
    def test_transient_failures_are_retried(
        self, tmp_path, cube, group_map, fitted, no_sleep
    ):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            with transient_io_errors(2, targets=("replace",)) as stats:
                save_checkpoint(stream, tmp_path / "ckpt", retries=3)
        finally:
            set_telemetry(previous)
        assert stats["injected"] == 2
        assert telemetry.metrics.counter("checkpoint.retries").value == 2
        # The save committed despite the faults.
        assert load_checkpoint(tmp_path / "ckpt").last_day == DAYS[9]

    @pytest.mark.faults
    def test_exhausted_retries_raise_typed_error(
        self, tmp_path, cube, group_map, fitted, no_sleep
    ):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        with transient_io_errors(100, targets=("replace",)):
            with pytest.raises(CheckpointError, match="still failing"):
                save_checkpoint(stream, tmp_path / "ckpt", retries=2)
        # The directory holds no committed checkpoint afterwards.
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.faults
    def test_operational_counters_appear_in_run_report(
        self, tmp_path, cube, group_map, fitted, no_sleep
    ):
        # The counters operators alert on must survive the full export
        # path: telemetry capture -> build_run_report -> JSON document.
        from repro.obs import build_run_report, validate_run_report

        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
            feed(stream, cube, 0, 10)
            bad = cube.values[:, :, :, 10].copy()
            bad[0, 0, 0] = np.inf
            stream.observe_day(DAYS[10], bad)  # quarantined
            with transient_io_errors(1, targets=("replace",)):
                save_checkpoint(stream, tmp_path / "ckpt", retries=2)
        finally:
            set_telemetry(previous)

        document = json.loads(
            json.dumps(build_run_report(telemetry, name="stream", meta={"scale": "tiny"}))
        )
        validate_run_report(document)
        counters = document["metrics"]["counters"]
        assert counters["stream.days_quarantined"] == 1
        assert counters["checkpoint.retries"] == 1
        assert counters["checkpoint.saves"] == 1

    @pytest.mark.faults
    def test_interrupted_save_preserves_previous_checkpoint(
        self, tmp_path, cube, group_map, fitted, no_sleep
    ):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt")
        feed(stream, cube, 10, 20)
        with transient_io_errors(100, targets=("replace",)):
            with pytest.raises(CheckpointError):
                save_checkpoint(stream, tmp_path / "ckpt", retries=1)
        # The old checkpoint is still complete and loadable.
        assert load_checkpoint(tmp_path / "ckpt").last_day == DAYS[9]

    @pytest.mark.faults
    def test_crash_before_manifest_keeps_previous_checkpoint(
        self, tmp_path, cube, group_map, fitted, no_sleep
    ):
        # Only the manifest replace fails: every state file of the new
        # save lands, but none may overwrite a file the committed
        # manifest lists, or the previous checkpoint would fail its
        # checksums.
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        save_checkpoint(stream, tmp_path / "ckpt", extra_files={"state_cursor.json": b"one"})
        feed(stream, cube, 10, 20)
        with transient_io_errors(100, path_substring=MANIFEST_FILE):
            with pytest.raises(CheckpointError):
                save_checkpoint(
                    stream, tmp_path / "ckpt", retries=1,
                    extra_files={"state_cursor.json": b"two"},
                )
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.last_day == DAYS[9]
        assert loaded.payload("state_cursor.json") == b"one"
        # The next save commits and removes the crashed save's files.
        save_checkpoint(stream, tmp_path / "ckpt", extra_files={"state_cursor.json": b"two"})
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert loaded.last_day == DAYS[19]
        assert loaded.payload("state_cursor.json") == b"two"
        on_disk = {path.name for path in (tmp_path / "ckpt").glob("state*")}
        assert on_disk == set(loaded.manifest["checksums"])


class TestExtraSidecars:
    """Generic extra_files / extra_manifest support (used by repro.ingest)."""

    def _stream(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        feed(stream, cube, 0, 10)
        return stream

    def test_extra_files_round_trip_with_checksums(
        self, tmp_path, cube, group_map, fitted
    ):
        stream = self._stream(cube, group_map, fitted)
        payload = b'{"cursor": "2010-01-05"}'
        save_checkpoint(
            stream, tmp_path / "ckpt",
            extra_files={"state_cursor.json": payload},
            extra_manifest={"cursor": {"kind": "demo"}},
        )
        loaded = load_checkpoint(tmp_path / "ckpt")
        assert (tmp_path / "ckpt" / "state_cursor.json").read_bytes() == payload
        assert "state_cursor.json" in loaded.manifest["checksums"]
        assert loaded.manifest["cursor"] == {"kind": "demo"}

    def test_corrupt_extra_file_fails_load(self, tmp_path, cube, group_map, fitted):
        stream = self._stream(cube, group_map, fitted)
        save_checkpoint(
            stream, tmp_path / "ckpt", extra_files={"state_cursor.json": b"abc"}
        )
        (tmp_path / "ckpt" / "state_cursor.json").write_bytes(b"abd")
        with pytest.raises(CheckpointCorruptionError, match="checksum mismatch"):
            load_checkpoint(tmp_path / "ckpt")

    def test_missing_extra_file_fails_load(self, tmp_path, cube, group_map, fitted):
        stream = self._stream(cube, group_map, fitted)
        save_checkpoint(
            stream, tmp_path / "ckpt", extra_files={"state_cursor.json": b"abc"}
        )
        (tmp_path / "ckpt" / "state_cursor.json").unlink()
        with pytest.raises(CheckpointCorruptionError):
            load_checkpoint(tmp_path / "ckpt")

    @pytest.mark.parametrize(
        "filename",
        ["cursor.json", "sub/state_x.json", "state.npz", GROUP_STATE_FILE,
         USER_STATE_FILE],
    )
    def test_invalid_extra_filenames_rejected(
        self, tmp_path, cube, group_map, fitted, filename
    ):
        stream = self._stream(cube, group_map, fitted)
        with pytest.raises(ValueError):
            save_checkpoint(
                stream, tmp_path / "ckpt", extra_files={filename: b"x"}
            )
        assert not (tmp_path / "ckpt" / MANIFEST_FILE).exists()

    def test_core_manifest_keys_protected(self, tmp_path, cube, group_map, fitted):
        stream = self._stream(cube, group_map, fitted)
        with pytest.raises(ValueError, match="collides"):
            save_checkpoint(
                stream, tmp_path / "ckpt", extra_manifest={"users": ["evil"]}
            )
        assert not (tmp_path / "ckpt" / MANIFEST_FILE).exists()

    def test_resave_without_extras_cleans_stale_sidecars(
        self, tmp_path, cube, group_map, fitted
    ):
        stream = self._stream(cube, group_map, fitted)
        save_checkpoint(
            stream, tmp_path / "ckpt", extra_files={"state_cursor.json": b"abc"}
        )
        save_checkpoint(stream, tmp_path / "ckpt")
        assert not (tmp_path / "ckpt" / "state_cursor.json").exists()
        load_checkpoint(tmp_path / "ckpt")  # still consistent

    def test_kept_sidecar_is_carried_without_rewrite(self, tmp_path, cube, group_map, fitted):
        stream = self._stream(cube, group_map, fitted)
        save_checkpoint(stream, tmp_path / "ckpt", extra_files={"state_log.json": b"rows"})
        path = tmp_path / "ckpt" / "state_log.json"
        before = path.stat()
        save_checkpoint(stream, tmp_path / "ckpt", keep_files=["state_log.json"])
        after = path.stat()
        assert (after.st_ino, after.st_mtime_ns) == (before.st_ino, before.st_mtime_ns)
        assert load_checkpoint(tmp_path / "ckpt").payload("state_log.json") == b"rows"

    def test_keeping_an_unlisted_sidecar_rejected(self, tmp_path, cube, group_map, fitted):
        stream = self._stream(cube, group_map, fitted)
        save_checkpoint(stream, tmp_path / "ckpt")
        with pytest.raises(ValueError, match="does not list"):
            save_checkpoint(stream, tmp_path / "ckpt", keep_files=["state_log.json"])
        load_checkpoint(tmp_path / "ckpt")  # the committed checkpoint is untouched

    def test_expected_manifest_mismatch_blocks_resume(
        self, tmp_path, cube, group_map, fitted
    ):
        stream = self._stream(cube, group_map, fitted)
        binding = {"dataset": {"preset": "small", "seed": 7}}
        save_checkpoint(stream, tmp_path / "ckpt", extra_manifest=binding)
        with pytest.raises(CheckpointMismatchError, match="dataset"):
            resume_streaming(
                fitted, tmp_path / "ckpt",
                expected_manifest={"dataset": {"preset": "small", "seed": 8}},
            )

    def test_expected_manifest_match_resumes(self, tmp_path, cube, group_map, fitted):
        stream = self._stream(cube, group_map, fitted)
        binding = {"dataset": {"preset": "small", "seed": 7}}
        save_checkpoint(stream, tmp_path / "ckpt", extra_manifest=binding)
        resumed = resume_streaming(
            fitted, tmp_path / "ckpt", expected_manifest=binding
        )
        assert resumed.days_observed == stream.days_observed

    def test_expected_manifest_tolerates_legacy_checkpoints(
        self, tmp_path, cube, group_map, fitted
    ):
        # A checkpoint saved before the binding existed records nothing;
        # resuming with an expectation must not fail on the absent key.
        stream = self._stream(cube, group_map, fitted)
        save_checkpoint(stream, tmp_path / "ckpt")
        resumed = resume_streaming(
            fitted, tmp_path / "ckpt",
            expected_manifest={"dataset": {"preset": "small", "seed": 7}},
        )
        assert resumed.days_observed == stream.days_observed
