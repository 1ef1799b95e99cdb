"""The run driver's contract: every source, order and cut emits the same days.

A day source, an event source in canonical and in shuffled arrival
order, and any of them stopped and resumed from its checkpoint must
write identical ``--out`` day documents; a backpressure failure exits 1
with a checkpoint, tears the monitoring plane down, and resumes
bit-identically.
"""

import json
from dataclasses import replace

import pytest

from repro.eval.experiments import cert_config
from repro.eval.run import DaySource, EventSource, Feed, RunOptions, run
from repro.features.cert import extract_cert_measurements
from repro.ingest import IngestConfig
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import get_telemetry, set_telemetry

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=2,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

SHUFFLE_SEED = 9


@pytest.fixture(scope="module")
def config():
    return replace(cert_config("small"), autoencoder=TINY_AE, window=5, matrix_days=5)


@pytest.fixture(scope="module")
def feed(tiny_dataset, tiny_org, tiny_calendar):
    days = tiny_calendar.days()
    cube = extract_cert_measurements(tiny_dataset.store, tiny_org.user_ids(), days)
    return Feed(tiny_dataset.store, cube, tiny_org.group_map(), days[:35])


@pytest.fixture(autouse=True)
def restore_telemetry():
    previous = get_telemetry()
    yield
    set_telemetry(previous)


def make_source(kind, config, feed, **ingest):
    if kind == "day":
        return DaySource(config, feed)
    shuffle_seed = SHUFFLE_SEED if kind == "shuffled" else None
    return EventSource(config, feed, shuffle_seed=shuffle_seed, ingest=IngestConfig(**ingest))


def run_days(path, source, **options):
    """Run once with ``--out path``; returns (exit code, day documents or None)."""
    code = run(source, RunOptions(out=str(path), **options))
    days = json.loads(path.read_text())["days"] if path.exists() else None
    return code, days


@pytest.fixture(scope="module")
def uninterrupted(config, feed, tmp_path_factory):
    code, days = run_days(
        tmp_path_factory.mktemp("reference") / "day.json", make_source("day", config, feed)
    )
    assert code == 0 and days
    return days


@pytest.mark.parametrize("kind", ["event", "shuffled"])
def test_sources_emit_identical_day_documents(kind, config, feed, uninterrupted, tmp_path):
    code, days = run_days(tmp_path / "out.json", make_source(kind, config, feed))
    assert code == 0
    assert days == uninterrupted


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("kind, stop_after", [("day", 17), ("shuffled", 20000)])
def test_stop_and_resume_matches_uninterrupted(
    kind, stop_after, every, config, feed, uninterrupted, tmp_path
):
    checkpoints = str(tmp_path / "ckpt")
    code, first = run_days(
        tmp_path / "first.json", make_source(kind, config, feed),
        checkpoint_dir=checkpoints, checkpoint_every=every, stop_after=stop_after,
    )
    assert code == 0
    assert len(first) < len(uninterrupted)
    resumed = make_source(kind, config, feed)
    code, rest = run_days(
        tmp_path / "rest.json", resumed,
        checkpoint_dir=checkpoints, checkpoint_every=every, resume=True,
    )
    assert code == 0
    assert first + rest == uninterrupted
    if kind != "day":  # the resume skipped exactly the consumed deliveries
        ingestor = resumed.ingestor
        assert ingestor.events_pushed == feed.store.count()
        assert (ingestor.events_late, ingestor.events_duplicate) == (0, 0)


def test_backpressure_failure_checkpoints_and_resumes(
    config, feed, uninterrupted, tmp_path, capsys
):
    checkpoints = tmp_path / "ckpt"
    source = make_source("shuffled", config, feed, max_buffered_events=2300)
    code, days = run_days(
        tmp_path / "failed.json", source, checkpoint_dir=str(checkpoints),
        metrics_export=str(tmp_path / "metrics"), log=str(tmp_path / "run.jsonl"),
    )
    assert code == 1
    assert days is None  # no result documents from a failed run
    assert "error:" in capsys.readouterr().err
    assert (checkpoints / "ingest" / "manifest.json").exists()
    # Teardown ran: the log sink is detached, the last export holds the
    # lifetime counters at the failure point.
    assert get_telemetry().log_sink is None
    lines = (tmp_path / "metrics" / "metrics.jsonl").read_text().splitlines()
    assert json.loads(lines[-1])["durable"] == source.ingestor.durable_counters()
    assert source.ingestor.days_sealed > 0  # failed mid-stream, not at the first seal

    code, rest = run_days(
        tmp_path / "rest.json", make_source("shuffled", config, feed),
        checkpoint_dir=str(checkpoints), resume=True,
    )
    assert code == 0
    cursor = source.ingestor.cursor.isoformat()
    assert rest == [doc for doc in uninterrupted if doc["day"] > cursor]
    assert rest


def test_resume_with_another_arrival_order_is_refused(config, feed, tmp_path, capsys):
    checkpoints = str(tmp_path / "ckpt")
    code, _ = run_days(
        tmp_path / "first.json", make_source("shuffled", config, feed),
        checkpoint_dir=checkpoints, stop_after=20000,
    )
    assert code == 0
    other = EventSource(config, feed, shuffle_seed=SHUFFLE_SEED + 1)
    code, days = run_days(tmp_path / "rest.json", other, checkpoint_dir=checkpoints, resume=True)
    assert code == 2
    assert days is None
    assert "shuffle_seed" in capsys.readouterr().err
