"""The run driver's contract: every source, order and cut emits the same days.

A day source, an event source in canonical and in shuffled arrival
order, and any of them stopped and resumed from its checkpoint must
write identical ``--out`` day documents; a backpressure failure exits 1
with a checkpoint, tears the monitoring plane down, and resumes
bit-identically.

The observers (metrics export, drift and ingest-quality monitors) run in
the driver only: they leave the day documents unchanged, export once per
consumed step, build the durable counters only for a due flush, and
carry those counters across a stop and resume.
"""

import json
from dataclasses import replace
from itertools import cycle, islice

import pytest

from repro.eval.experiments import cert_config
from repro.eval.run import DaySource, EventSource, Feed, RunOptions, run
from repro.features.cert import extract_cert_measurements
from repro.ingest import ArrivalRecord, IngestConfig, Ingestor
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import Telemetry, get_telemetry, set_telemetry, validate_alert

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


# -- observers ----------------------------------------------------------------


def run_fresh(source, **options):
    """Run as a new process would: the telemetry registry starts empty."""
    set_telemetry(Telemetry(enabled=False))
    return run(source, RunOptions(**options))


def exports(directory):
    """The ``metrics.jsonl`` documents of a metrics-export directory."""
    return [json.loads(line) for line in (directory / "metrics.jsonl").read_text().splitlines()]


@pytest.mark.parametrize("kind, export_every", [("day", 1), ("shuffled", 500)])
def test_observers_do_not_change_day_documents(
    kind, export_every, config, feed, uninterrupted, tmp_path
):
    code, days = run_days(
        tmp_path / "out.json", make_source(kind, config, feed),
        metrics_export=str(tmp_path / "metrics"), export_every=export_every,
        drift_monitor=True, log=str(tmp_path / "run.jsonl"),
    )
    assert code == 0
    assert days == uninterrupted


@pytest.mark.parametrize("kind, stop_after", [("day", None), ("shuffled", 300)])
def test_one_export_per_consumed_step_plus_teardown(kind, stop_after, config, feed, tmp_path):
    source = make_source(kind, config, feed)
    assert run_fresh(source, metrics_export=str(tmp_path), stop_after=stop_after) == 0
    lines = exports(tmp_path)
    steps = len(feed.cube.days) if stop_after is None else stop_after
    assert [line["seq"] for line in lines] == list(range(steps + 1))
    assert lines[-1]["durable"] == source.monitored.durable_counters()
    assert lines[-2]["durable"] == lines[-1]["durable"]  # nothing moved after the last step


def test_durable_counters_built_only_for_due_flushes(config, feed, tmp_path, monkeypatch):
    built = []
    durable_counters = Ingestor.durable_counters

    def counting(ingestor):
        built.append(ingestor.events_pushed)
        return durable_counters(ingestor)

    monkeypatch.setattr(Ingestor, "durable_counters", counting)
    code = run_fresh(make_source("shuffled", config, feed), metrics_export=str(tmp_path),
                     export_every=50, stop_after=230)
    assert code == 0
    assert built == [50, 100, 150, 200, 230]  # four due flushes, then the teardown
    assert len(exports(tmp_path)) == 5


def test_sparse_exports_equal_per_step_exports_at_the_same_steps(config, feed, tmp_path):
    for every in (1, 500):
        code = run_fresh(make_source("shuffled", config, feed),
                         metrics_export=str(tmp_path / f"every{every}"),
                         export_every=every, stop_after=2300)
        assert code == 0
    dense, sparse = exports(tmp_path / "every1"), exports(tmp_path / "every500")
    assert len(dense) == 2301 and len(sparse) == 5
    for line, reference in zip(sparse, dense[499::500]):
        assert line["counters"] == reference["counters"]
        assert line["durable"] == reference["durable"]
        assert line["gauges"] == reference["gauges"]
    assert sparse[-1]["durable"] == dense[-1]["durable"]
    assert sparse[-1]["durable"]["ingest.days_sealed"] > 0


@pytest.mark.parametrize("kind, stop_after", [("day", 17), ("shuffled", 20000)])
def test_resumed_final_durable_export_matches_full_run(
    kind, stop_after, config, feed, tmp_path
):
    """After a stop at any point, the resumed run's last export carries the
    uninterrupted run's durable counters, though its telemetry restarted."""

    def final_durable(name, **options):
        metrics = tmp_path / name
        code = run_fresh(make_source(kind, config, feed), metrics_export=str(metrics),
                         export_every=1000, **options)
        assert code == 0
        return exports(metrics)[-1]["durable"]

    full = final_durable("full")
    checkpoints = str(tmp_path / "ckpt")
    first = final_durable("first", checkpoint_dir=checkpoints, stop_after=stop_after)
    resumed = final_durable("resumed", checkpoint_dir=checkpoints, resume=True)
    assert first != full
    assert resumed == full
    assert full["stream.days_observed"] == len(feed.cube.days)


class LateBurstSource(EventSource):
    """Canonical arrival, plus a burst of late re-sent first-day events.

    The burst arrives once ``late_after`` days have sealed, so the
    watermark has long passed the first day and every re-sent event is
    late; it holds one late delivery for every nine before it.
    """

    late_after = 15

    def pending(self):
        records = list(super().pending())
        first_day, burst_day = self.feed.cube.days[0], self.feed.cube.days[self.late_after]
        at = next(i for i, r in enumerate(records) if r.event.timestamp.date() > burst_day)
        resent = [r.event for r in records if r.event.timestamp.date() == first_day]
        burst = [ArrivalRecord(event, f"late-{n}")
                 for n, event in enumerate(islice(cycle(resent), at // 9))]
        return records[:at] + burst + records[at:]


def test_late_burst_raises_one_late_rate_alert(config, feed, uninterrupted, tmp_path):
    source = LateBurstSource(config, feed)
    report = tmp_path / "report.json"
    code, days = run_days(tmp_path / "out.json", source, drift_monitor=True,
                          metrics_out=str(report))
    assert code == 0
    assert days == uninterrupted  # late deliveries are dropped, not scored
    assert source.ingestor.events_late > 0
    alerts = [a for a in json.loads(report.read_text())["alerts"]
              if a["kind"] == "ingest-quality"]
    assert [a["metric"] for a in alerts] == ["late-rate"]
    validate_alert(alerts[0])
    # Checked on the counters after the step that sealed the next day:
    # the whole burst is in them.
    assert alerts[0]["context"]["events_late"] == source.ingestor.events_late


@pytest.mark.parametrize("kind, stop_after", [("day", 30), ("shuffled", 30000)])
def test_resumed_monitors_raise_the_uninterrupted_alerts(kind, stop_after, config, feed, tmp_path):
    """The monitors' windows and fire-once flags travel in the checkpoint:
    after a stop and resume, the resumed run raises exactly the alerts the
    uninterrupted run raised for the days after the cut."""

    def monitored(name, **options):
        report = tmp_path / f"{name}-report.json"
        code, days = run_days(tmp_path / f"{name}.json", make_source(kind, config, feed),
                              drift_monitor=True, metrics_out=str(report), **options)
        assert code == 0
        return days, json.loads(report.read_text())["alerts"]

    _, full = monitored("full")
    checkpoints = str(tmp_path / "ckpt")
    first, _ = monitored("first", checkpoint_dir=checkpoints, stop_after=stop_after)
    rest, resumed = monitored("resumed", checkpoint_dir=checkpoints, resume=True)
    cut = first[-1]["day"]
    assert rest[0]["day"] > cut
    after_cut = [alert for alert in full if alert["day"] > cut]
    # A monitor that started empty would stay silent for the resumed run's
    # first reference_days + current_days - 1 (16) scored days.
    silent = {doc["day"] for doc in rest[:16]}
    assert any(alert["day"] in silent for alert in after_cut)
    assert resumed == after_cut
