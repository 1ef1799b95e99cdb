"""The run driver behind ``repro stream`` and ``repro ingest``.

ACOBE runs as a daily service: each day's logs come in, and that day's
investigation list goes out.  :func:`run` is that loop, once:

* a **source** feeds a :class:`~repro.core.streaming.StreamingDetector`
  and keeps only what differs between feeds -- how it advances and
  checkpoints, its summary line and its extra result fields.
  :class:`DaySource` feeds sealed day slabs (checkpoints under
  ``<dir>/stream``); :class:`EventSource` feeds raw deliveries through an
  :class:`~repro.ingest.Ingestor` (checkpoints under ``<dir>/ingest``).
* the **driver** owns the rest: option checks, telemetry, build-or-resume,
  the observers, the checkpoint cadence, the stop-after cut, the failure
  path, teardown, and the sinks (per-day lines, summary table, ``--out``
  document, span tree, run report).

The observers (``--metrics-export``, ``--drift-monitor``) run here and
nowhere else, after each consumed step -- one day for a
:class:`DaySource`, one delivery for an :class:`EventSource` -- and
before that step's checkpoint save: the :class:`ScoreDriftMonitor` reads
every scored day, the :class:`IngestQualityMonitor` (event sources only)
reads the lifetime delivery counters when the step sealed a day, then
the :class:`MetricsExporter` ticks.  The days a final ``finish`` seals
get the drift and quality checks but no tick.  The detector and the
ingestor hold no observers, so no observer can change a score.  Each
checkpoint save carries the two monitors' windows and fire-once flags
in a sidecar (:data:`MONITORS_FILE`), and ``--resume`` restores them, so
a resumed run alerts on the same days as one that never stopped.

Callers need no argparse: ``run(DaySource(cert_config("small")),
RunOptions(checkpoint_dir="ckpt", out="days.json"))``.  Every source,
arrival order and stop/resume cut emits the same day documents
(``tests/eval/test_run_driver.py``).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, replace
from datetime import date
from itertools import islice
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.core.checkpoint import (
    CheckpointMismatchError,
    CheckpointNotFoundError,
    LoadedCheckpoint,
    load_checkpoint,
    resume_streaming,
    save_checkpoint,
)
from repro.core.detector import ZOO, zoo_model
from repro.core.persistence import attach_representation, load_model, save_model
from repro.core.streaming import DailyResult, StreamingDetector
from repro.eval.experiments import CertBenchmarkConfig, build_cert_benchmark, cert_population
from repro.eval.reporting import format_table
from repro.features.cert import extract_cert_measurements
from repro.features.measurements import MeasurementCube
from repro.ingest import (
    IngestBackpressureError,
    IngestConfig,
    Ingestor,
    LateEventError,
    SlabBuilder,
    arrival_order,
    resume_ingest,
    save_ingest_checkpoint,
    shuffled_arrival,
)
from repro.logs.csvio import read_store
from repro.logs.store import LogStore
from repro.obs import (
    IngestQualityMonitor,
    MetricsExporter,
    ScoreDriftMonitor,
    Telemetry,
    attach_log_sink,
    build_run_report,
    detach_log_sink,
    format_span_tree,
    get_telemetry,
    set_telemetry,
    write_report,
)

#: Models with the deviation representation -- the ones that can stream.
STREAMING_MODELS = tuple(key for key, row in ZOO.items() if row.representation == "deviation")

#: Checkpoint sidecar holding the drift and ingest-quality monitors' state.
MONITORS_FILE = "state_monitors.json"


def make_model(name: str, config: CertBenchmarkConfig, dtype=None):
    """An unfitted model of the zoo, configured from a CERT preset."""
    return zoo_model(name, config.autoencoder, train_stride=config.train_stride, dtype=dtype,
                     window=config.window, matrix_days=config.matrix_days)


def open_telemetry(enable: bool, log: Optional[str] = None):
    """Enable telemetry when asked and install the ``--log`` sink; returns both.

    Call it before any training: forked ensemble workers buffer their
    events only when the parent already has a sink.
    """
    telemetry = get_telemetry()
    if enable and not telemetry.enabled:
        telemetry = Telemetry(enabled=True, trace_memory=telemetry.trace_memory)
        set_telemetry(telemetry)
    return telemetry, attach_log_sink(telemetry, log) if log else None


def close_log(telemetry, log_sink) -> None:
    """Detach and close the ``--log`` sink (a no-op without one)."""
    if log_sink is not None:
        detach_log_sink(telemetry)
        log_sink.close()
        print(f"wrote {log_sink.records_written} structured log record(s) "
              f"to {log_sink.path}")


def report_run(telemetry, *, trace: bool, metrics_out: Optional[str], name: str,
               meta: Mapping[str, Any], alerts: Iterable[Mapping[str, Any]] = (),
               training_histories=None) -> None:
    """Print the span tree (``--trace``) and write the run report (``--metrics-out``)."""
    if trace:
        print("\n-- span tree ".ljust(40, "-"))
        print(format_span_tree(telemetry))
    if metrics_out:
        report = build_run_report(
            telemetry, training_histories=training_histories, name=name,
            meta=meta, alerts=alerts,
        )
        print(f"wrote run report to {write_report(metrics_out, report)}")


def print_investigation(entries, top: int, abnormal) -> None:
    """The first ``top`` entries of an investigation list, insiders marked."""
    rows = [
        (position, entry.user, entry.priority, "insider" if entry.user in abnormal else "")
        for position, entry in enumerate(entries[:top], start=1)
    ]
    print(format_table(["#", "user", "priority", ""], rows))


@dataclass
class RunOptions:
    """What the driver does around a source (the shared CLI flags)."""

    model: str = "acobe"
    dtype: Optional[str] = None
    checkpoint_dir: Optional[str] = None
    resume: bool = False
    checkpoint_every: int = 1
    #: consume at most this many source steps (days or deliveries), then stop
    stop_after: Optional[int] = None
    on_bad_day: Optional[str] = None
    top: int = 10
    out: Optional[str] = None
    trace: bool = False
    metrics_out: Optional[str] = None
    metrics_export: Optional[str] = None
    export_every: int = 1
    log: Optional[str] = None
    drift_monitor: bool = False

    def problem(self, stop_flag: str = "--stop-after") -> Optional[str]:
        """The first invalid option, as an error message; None when all are valid."""
        if self.resume and not self.checkpoint_dir:
            return "--resume requires --checkpoint-dir"
        for flag, value, low in (
            ("--checkpoint-every", self.checkpoint_every, 1),
            ("--export-every", self.export_every, 1),
            ("--top", self.top, 0),
            (stop_flag, self.stop_after, 0),
        ):
            if value is not None and value < low:
                return f"{flag} must be >= {low}"
        return None


@dataclass
class Feed:
    """What a run streams: the events and their features, groups, training days and labels."""

    store: LogStore
    cube: MeasurementCube
    group_map: Dict[str, str]
    train_days: List[date]
    abnormal: Set[str] = field(default_factory=set)


class Source:
    """What the driver needs from a source; the base of both sources.

    ``config`` names the run and configures the model; :meth:`load`
    builds the ``feed`` unless one was given (by default, the preset's
    simulation); ``start``/``resume`` set ``detector`` and ``monitored``,
    the object whose ``durable_counters`` the metrics exports carry.  A
    source implements ``resume`` (from a loaded checkpoint), ``pending``/
    ``advance`` (the steps the stop-after cut counts), ``save`` (with the
    driver's sidecars), ``stop_message``, ``summary`` and ``report_meta``.
    """

    name = ""  # checkpoint subdirectory, run-report prefix
    schema = ""  # the ``--out`` document's schema
    stop_flag = ""
    failures: Tuple[type, ...] = ()  # operational errors: save, then exit 1

    def __init__(self, config: CertBenchmarkConfig, feed: Optional[Feed] = None) -> None:
        self.config, self.feed = config, feed

    def load(self) -> Feed:
        if self.feed is None:  # the preset's benchmark, insiders injected
            benchmark = build_cert_benchmark(self.config)
            self.feed = Feed(benchmark.dataset.store, benchmark.cube, benchmark.group_map,
                             benchmark.train_days, set(benchmark.abnormal_users))
        return self.feed

    def start(self, detector: StreamingDetector) -> None:
        self.detector = self.monitored = detector

    def delivery_counters(self) -> Optional[Dict[str, int]]:
        """The lifetime counters an ingest-quality check reads; None without deliveries."""
        return None

    def finish(self) -> list:
        return []

    def out_fields(self) -> Dict[str, Any]:
        return {}

    def binding(self) -> Dict[str, Any]:
        """Checkpoint-manifest entries beyond the dataset: the arrival order."""
        return {}


class DaySource(Source):
    """Sealed day slabs of the feed's cube, in calendar order."""

    name = "stream"
    schema = "acobe.stream_results"
    stop_flag = "--stop-after-days"

    def resume(self, model, directory: Path, checkpoint: LoadedCheckpoint, on_bad_day,
               binding) -> None:
        self.start(resume_streaming(
            model, directory, on_bad_day=on_bad_day, checkpoint=checkpoint,
            expected_manifest=binding,
        ))
        last = self.detector.last_day
        if last is not None and last >= self.feed.cube.days[-1]:
            print(f"checkpoint already covers the final day ({last}); nothing to do")
        print(f"resumed from {directory} at day cursor {last} "
              f"({self.detector.days_observed} days observed so far)")

    def pending(self) -> Iterable[int]:
        last = self.detector.last_day
        return [d for d, day in enumerate(self.feed.cube.days) if last is None or day > last]

    def advance(self, d: int) -> list:
        cube = self.feed.cube
        result = self.detector.observe_day(cube.days[d], cube.values[:, :, :, d])
        return [] if result is None else [result]

    def save(self, directory: Path, binding, files) -> None:
        save_checkpoint(self.detector, directory, extra_files=files, extra_manifest=binding)

    def stop_message(self, consumed: int) -> str:
        return (f"stopping after {consumed} day(s) as requested "
                f"(day cursor at {self.detector.last_day})")

    def summary(self, consumed: int, scored: int) -> str:
        stream = self.detector
        return (f"observed {consumed} day(s): {scored} scored, "
                f"{stream.days_quarantined} quarantined, {stream.days_imputed} imputed")

    def report_meta(self, consumed: int, scored: int) -> Dict[str, Any]:
        stream = self.detector
        return {"days_consumed": consumed, "days_scored": scored,
                "days_quarantined": stream.days_quarantined, "days_imputed": stream.days_imputed}


class EventSource(Source):
    """The feed's events as deliveries, through event-time ingestion.

    Without a ``feed``, events come from CERT-style CSVs in ``logs`` or
    else from the preset's simulation; ``shuffle_seed`` delivers them in
    a bounded-lateness permutation instead of timestamp order.  The
    feed's first day becomes the ``ingest`` config's ``start_day``.
    """

    name = "ingest"
    schema = "acobe.ingest_results"
    stop_flag = "--stop-after-events"
    failures = (LateEventError, IngestBackpressureError)

    def __init__(self, config: CertBenchmarkConfig, feed: Optional[Feed] = None,
                 logs: Optional[str] = None, shuffle_seed: Optional[int] = None,
                 ingest: IngestConfig = IngestConfig()) -> None:
        super().__init__(config, feed)
        self.logs, self.shuffle_seed, self.ingest_config = logs, shuffle_seed, ingest

    def load(self) -> Feed:
        if self.feed is None and self.logs:
            store = read_store(self.logs)
            organization, calendar = cert_population(self.config)
            days = calendar.days()
            cube = extract_cert_measurements(store, organization.user_ids(), days)
            train_days = [d for d in days if d <= self.config.train_end]
            self.feed = Feed(store, cube, organization.group_map(), train_days)
        feed = super().load()
        self.ingest_config = replace(self.ingest_config, start_day=feed.cube.days[0])
        return feed

    def start(self, detector: StreamingDetector) -> None:
        self._open(Ingestor(SlabBuilder(detector.users), detector, self.ingest_config))

    def _open(self, ingestor: Ingestor) -> None:
        self.monitored = self.ingestor = ingestor
        self.detector = ingestor.detector

    def resume(self, model, directory: Path, checkpoint: LoadedCheckpoint, on_bad_day,
               binding) -> None:
        self._open(resume_ingest(
            model, directory, on_bad_day=on_bad_day, config=self.ingest_config,
            expected_manifest=binding, checkpoint=checkpoint,
        ))
        print(f"resumed from {directory} at seal cursor {self.ingestor.cursor} "
              f"({self.ingestor.days_sealed} days sealed, "
              f"{self.ingestor.events_pushed:,} deliveries consumed so far)")

    def delivery_counters(self) -> Dict[str, int]:
        ingestor = self.ingestor
        return {"events_pushed": ingestor.events_pushed, "events_late": ingestor.events_late,
                "events_duplicate": ingestor.events_duplicate,
                "days_sealed": ingestor.days_sealed,
                "days_quarantined": self.detector.days_quarantined}

    def pending(self) -> Iterable:
        records = arrival_order(self.feed.store)
        if self.shuffle_seed is not None:
            records = shuffled_arrival(
                records, seed=self.shuffle_seed,
                max_lateness_days=self.ingest_config.allowed_lateness_days,
            )
        return islice(records, self.ingestor.events_pushed, None)

    def advance(self, record) -> list:
        return self.ingestor.push(record.event, record.fingerprint)

    def finish(self) -> list:
        return self.ingestor.flush(until=self.feed.cube.days[-1])

    def save(self, directory: Path, binding, files) -> None:
        save_ingest_checkpoint(self.ingestor, directory, extra_manifest=binding,
                               extra_files=files)

    def stop_message(self, consumed: int) -> str:
        return (f"stopping after {consumed:,} deliveries as requested "
                f"(seal cursor at {self.ingestor.cursor}, "
                f"{len(self.ingestor.builder.open_days())} open day(s))")

    def summary(self, consumed: int, scored: int) -> str:
        ingestor = self.ingestor
        return (f"consumed {consumed:,} deliveries: {ingestor.days_sealed} day(s) sealed, "
                f"{scored} scored, {ingestor.events_late} late, "
                f"{ingestor.events_duplicate} duplicate(s), "
                f"{self.detector.days_quarantined} quarantined")

    def out_fields(self) -> Dict[str, Any]:
        return {"allowed_lateness_days": self.ingest_config.allowed_lateness_days}

    def binding(self) -> Dict[str, Any]:
        # A resume skips the deliveries already consumed, so it must replay
        # the same events in the same order.
        logs = str(Path(self.logs).resolve()) if self.logs else None
        return {"arrival": {"logs": logs, "shuffle_seed": self.shuffle_seed}}

    def report_meta(self, consumed: int, scored: int) -> Dict[str, Any]:
        ingestor, config = self.ingestor, self.ingest_config
        return {"allowed_lateness_days": config.allowed_lateness_days,
                "late_policy": config.late_policy, "events_pushed": ingestor.events_pushed,
                "events_late": ingestor.events_late, "events_duplicate": ingestor.events_duplicate,
                "days_sealed": ingestor.days_sealed, "days_scored": scored}


def _day_document(result) -> dict:
    """One emitted day as a JSON-able dict (exact float round-trip)."""
    if not isinstance(result, DailyResult):
        return {
            "day": result.day.isoformat(),
            "degraded": True,
            "reason": result.reason,
            "policy": result.policy,
            "n_bad_values": result.n_bad_values,
        }
    return {
        "day": result.day.isoformat(),
        "users": [e.user for e in result.investigation.entries],
        "priorities": {e.user: e.priority for e in result.investigation.entries},
        "scores": {aspect: [float(v) for v in arr] for aspect, arr in result.scores.items()},
        "imputed_values": result.imputed_values,
    }


_RUN_FRESH = "run once without --resume first"


def _error(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def run(source: Source, options: RunOptions) -> int:
    """Drive ``source`` through its detector into the sinks; returns an exit code.

    0 on success (stopped early included), 1 on one of the source's
    operational ``failures`` (after a checkpoint save), 2 on invalid
    options or a missing/mismatched checkpoint.  Monitoring teardown
    (the last metrics export, closing the ``--log`` sink) runs on every
    exit once telemetry is up.
    """
    problem = options.problem(source.stop_flag)
    if problem:
        return _error(problem, 2)
    telemetry, log_sink = open_telemetry(
        bool(options.trace or options.metrics_out or options.metrics_export or options.log),
        options.log,
    )
    exporter = drift = quality = checkpoint = None
    emitted: list = []
    consumed = 0
    failed = False
    try:
        checkpoint_dir = Path(options.checkpoint_dir) if options.checkpoint_dir else None
        model_dir = checkpoint_dir / "model" if checkpoint_dir else None
        state_dir = checkpoint_dir / source.name if checkpoint_dir else None
        if options.resume:  # before the feed: a missing model fails fast
            try:
                model = load_model(model_dir)
            except FileNotFoundError:
                return _error(f"no saved model at {model_dir}; {_RUN_FRESH}", 2)
        feed = source.load()
        # Bound to the checkpoint so --resume against a different preset,
        # seed or arrival order fails typed instead of feeding different
        # data into the same rolling state.
        binding = {"dataset": {"preset": source.config.name, "seed": source.config.seed},
                   **source.binding()}
        if options.resume:
            attach_representation(model, feed.cube, feed.group_map, feed.train_days)
            try:
                checkpoint = load_checkpoint(state_dir)
                source.resume(model, state_dir, checkpoint, options.on_bad_day, binding)
            except CheckpointNotFoundError:
                return _error(f"no checkpoint at {state_dir}; {_RUN_FRESH}", 2)
            except CheckpointMismatchError as exc:
                return _error(str(exc), 2)
        else:
            model = make_model(options.model, source.config, options.dtype)
            print(f"fitting {model.config.name} on {len(feed.cube.users)} users ...")
            model.fit(feed.cube, feed.group_map, feed.train_days)
            if model_dir is not None:
                save_model(model, model_dir)
                print(f"saved model to {model_dir}")
            source.start(StreamingDetector(
                model, feed.cube.users, feed.group_map, on_bad_day=options.on_bad_day or "strict",
            ))

        if options.metrics_export:
            exporter = MetricsExporter(options.metrics_export, every=options.export_every)
        if options.drift_monitor:
            drift = ScoreDriftMonitor()
            if source.delivery_counters() is not None:
                quality = IngestQualityMonitor()
            if checkpoint is not None and checkpoint.has(MONITORS_FILE):
                saved = json.loads(checkpoint.payload(MONITORS_FILE))
                drift.restore_state(saved["drift"])
                if quality is not None and saved["quality"] is not None:
                    quality.restore_state(saved["quality"])
        # Days the detector advanced (scored, warming up or quarantined);
        # an event-source step that moved it sealed a day.
        observed = source.detector.days_observed

        def observe(results) -> None:
            """Keep and print one step's results, then check drift and ingest quality."""
            nonlocal observed
            for result in results:
                emitted.append(result)
                if isinstance(result, DailyResult):
                    top = [e.user for e in result.investigation.entries[:3]]
                    print(f"  {result.day}  top: {', '.join(top)}")
                    if drift is not None:
                        drift.observe(result.day, {aspect: scores.tolist()
                                                   for aspect, scores in result.scores.items()})
                else:
                    print(f"  {result.day}  QUARANTINED ({result.reason}: "
                          f"{result.n_bad_values} bad value(s))")
            days = source.detector.days_observed
            if quality is not None and days != observed:
                quality.observe(source.detector.last_day, **source.delivery_counters())
            observed = days

        def save() -> None:
            """Checkpoint the source, with the monitors' state when they run."""
            files = {}
            if drift is not None:
                monitors = {"drift": drift.export_state(),
                            "quality": quality.export_state() if quality is not None else None}
                files[MONITORS_FILE] = json.dumps(monitors).encode("utf-8")
            source.save(state_dir, binding, files)

        # The cadence counts days the detector advanced since the last
        # save; the final save happens when anything moved since then.
        saved_days, unsaved_steps = observed, 0
        try:
            for step in source.pending():
                if options.stop_after is not None and consumed >= options.stop_after:
                    print(source.stop_message(consumed))
                    break
                observe(source.advance(step))
                if exporter is not None:  # the dict is built only when a flush is due
                    exporter.tick(telemetry, source.monitored.durable_counters)
                consumed += 1
                unsaved_steps += 1
                if state_dir is not None and observed - saved_days >= options.checkpoint_every:
                    save()
                    saved_days, unsaved_steps = observed, 0
            else:
                observe(source.finish())
        except source.failures as exc:
            failed = True
            _error(str(exc), 1)
            if state_dir is not None:
                save()
                print(f"saved checkpoint to {state_dir}", file=sys.stderr)
        else:
            moved = unsaved_steps or observed != saved_days
            if state_dir is not None and moved:
                save()
    finally:
        if exporter is not None:
            exporter.flush(telemetry, source.monitored.durable_counters())
            print(f"exported metrics to {exporter.prom_path} and {exporter.jsonl_path}")
        close_log(telemetry, log_sink)

    scored = [r for r in emitted if isinstance(r, DailyResult)]
    if not failed:
        print(source.summary(consumed, len(scored)))
    alerts = [alert for monitor in (drift, quality) if monitor is not None
              for alert in monitor.alerts]
    for alert in alerts:
        print(f"  ALERT [{alert['severity']}] {alert['message']}")
    if failed:
        return 1
    if scored:
        print(f"investigation list for {scored[-1].day}:")
        print_investigation(scored[-1].investigation.entries, options.top, source.feed.abnormal)

    if options.out:
        document = {"schema": source.schema, "version": 1, "scale": source.config.name,
                    "model": model.config.name, **source.out_fields(),
                    "days": [_day_document(r) for r in emitted]}
        out_path = Path(options.out)
        out_path.parent.mkdir(parents=True, exist_ok=True)
        out_path.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote per-day results to {out_path}")

    meta = {"model": model.config.name, "scale": source.config.name,
            "seed": source.config.seed, "resumed": options.resume,
            **source.report_meta(consumed, len(scored))}
    report_run(telemetry, trace=options.trace, metrics_out=options.metrics_out,
               name=f"{source.name}-{options.model}", meta=meta, alerts=alerts)
    return 0
