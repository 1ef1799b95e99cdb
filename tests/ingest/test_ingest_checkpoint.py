"""Ingest checkpoint: mid-day kill-and-resume bit-identity, seen-set
segments, fault drills."""

import json
from dataclasses import replace
from datetime import date

import numpy as np
import pytest

from repro.core.checkpoint import (
    MANIFEST_FILE,
    CheckpointCorruptionError,
    CheckpointError,
    CheckpointMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.streaming import DailyResult, StreamingDetector
from repro.datagen.calendar import SimulationCalendar
from repro.datagen.org import build_organization
from repro.datagen.simulator import simulate_cert_dataset
from repro.features.cert import extract_cert_measurements
from repro.ingest import (
    INGEST_MANIFEST_KEY,
    INGEST_STATE_FILE,
    IngestConfig,
    Ingestor,
    SlabBuilder,
    arrival_order,
    resume_ingest,
    save_ingest_checkpoint,
    shuffled_arrival,
)
from repro.nn.autoencoder import AutoencoderConfig
from repro.testing.faults import flip_bit, transient_io_errors

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=2,
    batch_size=16,
    optimizer="adam",
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

LATENESS = 1


@pytest.fixture(scope="module")
def setup(tiny_dataset, tiny_org, tiny_calendar):
    users = tiny_org.user_ids()
    days = tiny_calendar.days()
    cube = extract_cert_measurements(tiny_dataset.store, users, days)
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
    )
    group_map = tiny_org.group_map()
    model.fit(cube, group_map, days[:35])
    records = shuffled_arrival(arrival_order(tiny_dataset.store), seed=9,
                               max_lateness_days=LATENESS)
    return {
        "users": users,
        "days": days,
        "model": model,
        "group_map": group_map,
        "records": records,
    }


def fresh_ingestor(setup):
    stream = StreamingDetector(setup["model"], setup["users"], setup["group_map"])
    config = IngestConfig(allowed_lateness_days=LATENESS, start_day=setup["days"][0])
    return Ingestor(SlabBuilder(setup["users"]), stream, config)


def push_through(ingestor, records):
    results = []
    for record in records:
        results.extend(ingestor.push(record.event, record.fingerprint))
    return results


def manifest_of(directory):
    return json.loads((directory / MANIFEST_FILE).read_text())


def seen_segments(directory):
    return manifest_of(directory)[INGEST_MANIFEST_KEY]["seen_segments"]


def builder_doc(ingestor):
    return ingestor.builder.export_state()[0]


@pytest.fixture
def no_sleep(monkeypatch):
    monkeypatch.setattr("repro.core.checkpoint._SLEEP", lambda seconds: None)


def run_all(setup, ingestor, skip=0):
    results = []
    for index, record in enumerate(setup["records"]):
        if index < skip:
            continue
        results.extend(ingestor.push(record.event, record.fingerprint))
    results.extend(ingestor.flush(until=setup["days"][-1]))
    return results


def assert_results_equal(got, expected):
    assert [r.day for r in got] == [r.day for r in expected]
    for a, b in zip(got, expected):
        assert isinstance(a, DailyResult) and isinstance(b, DailyResult)
        assert a.scores.keys() == b.scores.keys()
        for aspect in a.scores:
            np.testing.assert_array_equal(a.scores[aspect], b.scores[aspect])
        assert [(e.user, e.priority) for e in a.investigation.entries] == [
            (e.user, e.priority) for e in b.investigation.entries
        ]


@pytest.fixture(scope="module")
def uninterrupted(setup):
    return run_all(setup, fresh_ingestor(setup))


class TestKillAndResume:
    def test_mid_day_kill_resume_bit_identical(self, setup, uninterrupted, tmp_path):
        cut = int(len(setup["records"]) * 0.6)
        ingestor = fresh_ingestor(setup)
        results = []
        for record in setup["records"][:cut]:
            results.extend(ingestor.push(record.event, record.fingerprint))
        # The cut must land mid-day for the test to mean anything: the
        # checkpoint has to carry partial slabs and pending novelties.
        assert ingestor.builder.open_days(), "cut landed on a day boundary"
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")

        resumed = resume_ingest(setup["model"], tmp_path / "ckpt")
        assert resumed.events_pushed == cut
        assert resumed.cursor == ingestor.cursor
        results.extend(run_all(setup, resumed, skip=resumed.events_pushed))
        assert_results_equal(results, uninterrupted)

    def test_redelivery_after_resume_is_idempotent(self, setup, uninterrupted, tmp_path):
        # An at-least-once replayer may re-send records the killed run
        # already consumed; restored fingerprints absorb re-deliveries
        # of still-open days, late-policy drop absorbs the sealed ones.
        cut = int(len(setup["records"]) * 0.6)
        ingestor = fresh_ingestor(setup)
        results = []
        for record in setup["records"][:cut]:
            results.extend(ingestor.push(record.event, record.fingerprint))
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")

        resumed = resume_ingest(setup["model"], tmp_path / "ckpt")
        overlap = 50  # replay the last records before the cut again
        results.extend(run_all(setup, resumed, skip=cut - overlap))
        assert_results_equal(results, uninterrupted)
        assert resumed.events_duplicate + resumed.events_late >= overlap

    def test_counters_survive_resume(self, setup, tmp_path):
        cut = 500
        ingestor = fresh_ingestor(setup)
        for record in setup["records"][:cut]:
            ingestor.push(record.event, record.fingerprint)
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")
        resumed = resume_ingest(setup["model"], tmp_path / "ckpt")
        assert resumed.events_pushed == ingestor.events_pushed
        assert resumed.days_sealed == ingestor.days_sealed
        assert resumed.detector.days_observed == ingestor.detector.days_observed


class TestMismatches:
    def test_plain_stream_checkpoint_rejected(self, setup, tmp_path):
        stream = StreamingDetector(setup["model"], setup["users"], setup["group_map"])
        save_checkpoint(stream, tmp_path / "ckpt")
        with pytest.raises(CheckpointMismatchError, match="no ingest cursor"):
            resume_ingest(setup["model"], tmp_path / "ckpt")

    def test_changed_lateness_rejected(self, setup, tmp_path):
        ingestor = fresh_ingestor(setup)
        ingestor.push(setup["records"][0].event, setup["records"][0].fingerprint)
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")
        with pytest.raises(CheckpointMismatchError, match="allowed_lateness_days"):
            resume_ingest(
                setup["model"], tmp_path / "ckpt",
                config=replace(ingestor.config, allowed_lateness_days=LATENESS + 1),
            )

    def test_operational_knobs_may_change(self, setup, tmp_path):
        ingestor = fresh_ingestor(setup)
        ingestor.push(setup["records"][0].event, setup["records"][0].fingerprint)
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")
        resumed = resume_ingest(
            setup["model"], tmp_path / "ckpt",
            config=replace(ingestor.config, max_open_days=30),
        )
        assert resumed.config.max_open_days == 30

    def test_dataset_binding_mismatch_rejected(self, setup, tmp_path):
        ingestor = fresh_ingestor(setup)
        ingestor.push(setup["records"][0].event, setup["records"][0].fingerprint)
        save_ingest_checkpoint(
            ingestor, tmp_path / "ckpt",
            extra_manifest={"dataset": {"preset": "small", "seed": 7}},
        )
        with pytest.raises(CheckpointMismatchError, match="dataset"):
            resume_ingest(
                setup["model"], tmp_path / "ckpt",
                expected_manifest={"dataset": {"preset": "small", "seed": 8}},
            )

    def test_detector_config_mismatch_rejected(self, setup, tmp_path):
        ingestor = fresh_ingestor(setup)
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")
        other = CompoundBehaviorModel(
            ModelConfig(window=7, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
        )
        with pytest.raises(CheckpointMismatchError, match="digest"):
            resume_ingest(other, tmp_path / "ckpt")


@pytest.mark.faults
class TestFaultDrills:
    def test_transient_io_errors_retried(self, setup, tmp_path):
        ingestor = fresh_ingestor(setup)
        for record in setup["records"][:200]:
            ingestor.push(record.event, record.fingerprint)
        with transient_io_errors(2, path_substring="state_ingest") as stats:
            save_ingest_checkpoint(ingestor, tmp_path / "ckpt", retries=3)
        assert stats["injected"] == 2
        resumed = resume_ingest(setup["model"], tmp_path / "ckpt")
        assert resumed.events_pushed == 200

    def test_corrupt_ingest_sidecar_detected(self, setup, tmp_path):
        ingestor = fresh_ingestor(setup)
        for record in setup["records"][:200]:
            ingestor.push(record.event, record.fingerprint)
        save_ingest_checkpoint(ingestor, tmp_path / "ckpt")
        flip_bit(tmp_path / "ckpt" / INGEST_STATE_FILE)
        with pytest.raises(CheckpointCorruptionError, match="checksum mismatch"):
            load_checkpoint(tmp_path / "ckpt")
        with pytest.raises(CheckpointCorruptionError):
            resume_ingest(setup["model"], tmp_path / "ckpt")

    def test_crash_between_segment_and_manifest(self, setup, uninterrupted, tmp_path, no_sleep):
        ckpt = tmp_path / "ckpt"
        records = setup["records"]
        first_cut, crash_cut = int(len(records) * 0.4), int(len(records) * 0.7)
        ingestor = fresh_ingestor(setup)
        results = push_through(ingestor, records[:first_cut])
        save_ingest_checkpoint(ingestor, ckpt)
        committed_rows = manifest_of(ckpt)[INGEST_MANIFEST_KEY]["seen_rows"]
        push_through(ingestor, records[first_cut:crash_cut])
        assert ingestor.builder.seen_rows > committed_rows

        # Every file of the next save lands except the manifest.
        with transient_io_errors(100, path_substring=MANIFEST_FILE):
            with pytest.raises(CheckpointError):
                save_ingest_checkpoint(ingestor, ckpt, retries=1)
        orphans = {path.name for path in ckpt.glob("state_seen_*")}
        orphans -= set(manifest_of(ckpt)["checksums"])
        assert orphans, "the crashed save never wrote its segment"

        # The previous checkpoint loads and resumes bit-identically.
        assert load_checkpoint(ckpt).manifest[INGEST_MANIFEST_KEY]["seen_rows"] == committed_rows
        resumed = resume_ingest(setup["model"], ckpt)
        assert resumed.events_pushed == first_cut
        results.extend(run_all(setup, resumed, skip=first_cut))
        assert_results_equal(results, uninterrupted)

        # The next save neither references nor keeps the orphan.
        save_ingest_checkpoint(resumed, ckpt)
        assert not orphans & set(manifest_of(ckpt)["checksums"])
        assert not any((ckpt / name).exists() for name in orphans)
        load_checkpoint(ckpt)

    def test_bit_flip_in_carried_segment(self, setup, tmp_path):
        ckpt = tmp_path / "ckpt"
        records = setup["records"]
        ingestor = fresh_ingestor(setup)
        done = 0
        for fraction in (0.2, 0.4, 0.6):
            cut = int(len(records) * fraction)
            push_through(ingestor, records[done:cut])
            done = cut
            save_ingest_checkpoint(ingestor, ckpt)
        manifest = manifest_of(ckpt)
        segments = manifest[INGEST_MANIFEST_KEY]["seen_segments"]
        assert len(segments) == 3
        flip_bit(ckpt / manifest["files"][segments[0]["file"]])
        with pytest.raises(CheckpointCorruptionError, match="checksum mismatch"):
            load_checkpoint(ckpt)

        # The next save cannot carry the damaged segment: a fresh base.
        push_through(ingestor, records[done:int(len(records) * 0.8)])
        save_ingest_checkpoint(ingestor, ckpt)
        assert seen_segments(ckpt) == [
            {"file": seen_segments(ckpt)[0]["file"], "start": 0,
             "stop": ingestor.builder.seen_rows},
        ]
        resumed = resume_ingest(setup["model"], ckpt)
        assert builder_doc(resumed) == builder_doc(ingestor)

    def test_foreign_lineage_directory_gets_a_full_base(self, setup, tmp_path):
        ckpt = tmp_path / "ckpt"
        records = setup["records"]
        # The other stream's segments cover a prefix as long as this
        # stream's log could use; only the lineage tells them apart.
        other = fresh_ingestor(setup)
        push_through(other, records[:int(len(records) * 0.15)])
        save_ingest_checkpoint(other, ckpt)
        push_through(other, records[int(len(records) * 0.15):int(len(records) * 0.3)])
        save_ingest_checkpoint(other, ckpt)
        foreign = [segment["file"] for segment in seen_segments(ckpt)]
        assert len(foreign) == 2

        ingestor = fresh_ingestor(setup)
        push_through(ingestor, records[:int(len(records) * 0.5)])
        save_ingest_checkpoint(ingestor, ckpt)
        entry = manifest_of(ckpt)[INGEST_MANIFEST_KEY]
        assert entry["lineage"] == ingestor.lineage != other.lineage
        assert other.builder.seen_rows < ingestor.builder.seen_rows
        assert [(s["start"], s["stop"]) for s in entry["seen_segments"]] == [
            (0, ingestor.builder.seen_rows)
        ]
        assert not any((ckpt / name).exists() for name in foreign)
        resumed = resume_ingest(setup["model"], ckpt)
        assert resumed.lineage == ingestor.lineage
        assert builder_doc(resumed) == builder_doc(ingestor)


@pytest.fixture(scope="module")
def long_setup():
    """Eleven weeks of a six-user org: enough sealed days to see growth."""
    org = build_organization([3, 3], seed=3)
    calendar = SimulationCalendar.with_default_holidays(date(2010, 3, 1), date(2010, 5, 16))
    dataset = simulate_cert_dataset(org, calendar, seed=5)
    users, days = org.user_ids(), calendar.days()
    cube = extract_cert_measurements(dataset.store, users, days)
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, org.group_map(), days[:30])
    records = shuffled_arrival(arrival_order(dataset.store), seed=9,
                               max_lateness_days=LATENESS)
    return {
        "users": users,
        "days": days,
        "model": model,
        "group_map": org.group_map(),
        "records": records,
    }


class TestSeenSegments:
    def test_bytes_per_save_stay_flat(self, long_setup, tmp_path, monkeypatch):
        # Save after every sealed day, as the CLI does.  A save writes
        # the rolling detector state, the cursor sidecars, one segment
        # with the day's new seen-set rows, and the manifest -- not the
        # whole seen-set history.
        monkeypatch.setattr("repro.ingest.checkpoint.SEEN_COMPACT_SEGMENTS", 8)
        ckpt = tmp_path / "ckpt"
        ingestor = fresh_ingestor(long_setup)
        saves = []  # (carried rows, bytes written, wrote a base segment)
        listed = set()
        for record in long_setup["records"]:
            sealed = ingestor.days_sealed
            ingestor.push(record.event, record.fingerprint)
            if ingestor.days_sealed == sealed:
                continue
            save_ingest_checkpoint(ingestor, ckpt)
            manifest = manifest_of(ckpt)
            written = set(manifest["checksums"]) - listed
            nbytes = sum((ckpt / name).stat().st_size for name in written)
            nbytes += (ckpt / MANIFEST_FILE).stat().st_size
            segments = manifest[INGEST_MANIFEST_KEY]["seen_segments"]
            base = bool(segments) and manifest["files"][segments[0]["file"]] in written
            saves.append((manifest[INGEST_MANIFEST_KEY]["seen_rows"], nbytes, base))
            assert len(list(ckpt.glob("state_seen_*"))) <= 8
            listed = set(manifest["checksums"])
        assert len(saves) >= 60
        assert sum(base for _, _, base in saves) >= 5  # compaction folded segments

        # Past the detector's warm-up, non-compaction saves write about
        # the same number of bytes however long the stream has run.
        steady = [(rows, nbytes) for rows, nbytes, base in saves[10:] if not base]
        early, late = steady[:15], steady[-15:]
        assert late[-1][0] >= 1.5 * early[0][0]
        assert max(nbytes for _, nbytes in late) <= 1.25 * max(nbytes for _, nbytes in early)

    def test_resume_carries_segments_into_the_next_save(self, setup, tmp_path):
        ckpt = tmp_path / "ckpt"
        records = setup["records"]
        ingestor = fresh_ingestor(setup)
        push_through(ingestor, records[:int(len(records) * 0.3)])
        save_ingest_checkpoint(ingestor, ckpt)
        push_through(ingestor, records[int(len(records) * 0.3):int(len(records) * 0.5)])
        save_ingest_checkpoint(ingestor, ckpt)
        carried = seen_segments(ckpt)

        resumed = resume_ingest(setup["model"], ckpt)
        push_through(resumed, records[int(len(records) * 0.5):int(len(records) * 0.7)])
        save_ingest_checkpoint(resumed, ckpt)
        segments = seen_segments(ckpt)
        assert segments[:len(carried)] == carried
        assert segments[-1]["stop"] == resumed.builder.seen_rows
