"""The three workloads: ``replay``, ``replay-durable`` and ``retrain``.

All three run on one simulated organization per seed (see
:mod:`inputs`), with the paper's windows (``window=30``,
``matrix_days=30``) and its 512/256/128/64 float32 autoencoder.

* ``replay`` -- catch-up on a backlog: every delivery, shuffled within
  one day of lateness and with a few percent redelivered, is pushed from
  one producer at full speed (a closed loop, as ``repro ingest`` replays
  a log export) through ``Ingestor`` -> ``StreamingDetector``, in
  whole passes over the backlog (:func:`repeats`).
* ``replay-durable`` -- the same inputs plus the CLI's default
  durability: ``save_ingest_checkpoint`` after every sealed day, and
  every 7th sealed day the in-memory ingestor is dropped and the stream
  continues from ``resume_ingest`` (a weekly restart).  Two passes.
* ``retrain`` -- the batch path: ``CompoundBehaviorModel.fit`` on the
  training period with a fixed epoch count (no early stopping, no
  validation split), then ``score`` and ``investigate`` over the test
  period, repeated (:func:`repeats`).

Every workload reports every end-to-end metric; README.md says what
each one means on each workload.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.features.cert as cert
import repro.ingest.checkpoint as ingest_checkpoint
from repro.core.checkpoint import CheckpointError
from repro.core.detector import CompoundBehaviorModel, make_acobe
from repro.core.streaming import DailyResult, StreamingDetector
from repro.eval.experiments import ModelRun, evaluate_run
from repro.ingest import IngestBackpressureError, IngestConfig, Ingestor, SlabBuilder
from repro.nn.autoencoder import AutoencoderConfig

from inputs import ALLOWED_LATENESS_DAYS, Inputs
from tracing import NN_LAYER_CLASSES, Tracer

WORKLOADS = ("replay", "replay-durable", "retrain")

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: Epochs of the model the stream workloads score with (scoring cost
#: does not depend on it).
STREAM_EPOCHS = 2
#: Fixed training length of the ``retrain`` workload.
RETRAIN_EPOCHS = 10
#: ``replay-durable`` restarts from its checkpoint every this many sealed days.
RESUME_EVERY_DAYS = 7
#: Scored days a stream pass must produce (p95 needs ten samples beyond it).
MIN_SCORED_DAYS = 200
#: Passes (stream workloads) and repetitions (``retrain``) a run makes
#: at least, so that each day and repetition is timed more than once.
MIN_REPEATS = 2
#: Nominal seconds of one ``replay`` pass or ``retrain`` repetition on
#: a 2-core x86 VM.  The count of passes or repetitions is fixed by
#: ``--seconds`` through it, never by how fast a run goes, so a faster
#: commit is measured the same way.
NOMINAL_REPEAT_S = 3.0


def repeats(workload: str, seconds: float) -> int:
    """Passes or repetitions a run makes (``replay-durable``: a pass alone
    outlasts ``--seconds``, so it makes the minimum)."""
    if workload == "replay-durable":
        return MIN_REPEATS
    return max(MIN_REPEATS, round(seconds / NOMINAL_REPEAT_S))


def make_model(epochs: int) -> CompoundBehaviorModel:
    return make_acobe(
        ae_config=AutoencoderConfig(
            encoder_units=(512, 256, 128, 64),
            epochs=epochs,
            batch_size=256,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=11,
            dtype="float32",
        ),
        window=30,
        matrix_days=30,
        train_stride=3,
    )


def new_ingestor(model: CompoundBehaviorModel, inputs: Inputs) -> Ingestor:
    """A fresh stream, configured like the CLI's ``repro ingest``."""
    config = IngestConfig(allowed_lateness_days=ALLOWED_LATENESS_DAYS, start_day=inputs.days[0])
    return Ingestor(
        SlabBuilder(inputs.users), StreamingDetector(model, inputs.users, inputs.group_map), config
    )


@dataclass
class Run:
    """What one benchmark run measured and checked."""

    workload: str
    inputs: Inputs
    seconds: float
    setup_s: List[float] = field(default_factory=list)
    extract_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    end_to_end: Dict[str, float] = field(default_factory=dict)
    #: informational figures printed beside the result (sample counts)
    info: Dict[str, float] = field(default_factory=dict)
    untraced_walls: List[float] = field(default_factory=list)
    traced_wall: float = 0.0
    #: the traced wall's share spent in the harness's own loop
    harness_s: float = 0.0
    #: per-layer figures read off the traced pass's objects
    layer_extra: Dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1
        self.checks.append((name, bool(ok), detail))

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


# ---------------------------------------------------------------------------
# stream workloads
# ---------------------------------------------------------------------------


@dataclass
class StreamPass:
    wall: float
    latencies: List[float]
    results: List[DailyResult]
    ingestor: Ingestor
    refused: int = 0
    quarantined: int = 0
    saves: int = 0
    resumes: int = 0
    failed_saves: int = 0
    failed_resumes: int = 0

    @property
    def failures(self) -> int:
        return (
            self.refused + self.ingestor.events_late + self.quarantined
            + self.failed_saves + self.failed_resumes
        )

    def score_matrix(self, aspect: str) -> np.ndarray:
        return np.stack([r.scores[aspect] for r in self.results], axis=1)


def stream_pass(
    model: CompoundBehaviorModel,
    inputs: Inputs,
    ingestor: Ingestor,
    checkpoint_dir: Optional[Path] = None,
    after_save: Optional[Callable[[Path], None]] = None,
) -> StreamPass:
    """Push every delivery, then flush; durable when given a directory.

    The timed wall runs from the first push to the end of the final
    flush (and, when durable, its checkpoint).  A push or flush that
    returns ``k`` scored days adds its duration divided by ``k`` to the
    day latencies once per day.
    """
    clock = time.perf_counter
    out_pass = StreamPass(0.0, [], [], ingestor)
    latencies, results = out_pass.latencies, out_pass.results
    durable = checkpoint_dir is not None
    sealed = 0
    next_resume = RESUME_EVERY_DAYS

    def collect(out, elapsed: float) -> None:
        scored = [r for r in out if isinstance(r, DailyResult)]
        out_pass.quarantined += len(out) - len(scored)
        latencies.extend([elapsed / len(out)] * len(scored))
        results.extend(scored)

    def save() -> None:
        try:
            ingest_checkpoint.save_ingest_checkpoint(ingestor, checkpoint_dir)
        except (OSError, CheckpointError):
            out_pass.failed_saves += 1
        out_pass.saves += 1
        if after_save is not None:
            after_save(checkpoint_dir)

    push = ingestor.push
    start = clock()
    for record in inputs.deliveries:
        t0 = clock()
        try:
            out = push(record.event, record.fingerprint)
        except IngestBackpressureError:
            out_pass.refused += 1
            continue
        if out:
            collect(out, clock() - t0)
        if not durable or ingestor.days_sealed == sealed:
            continue
        sealed = ingestor.days_sealed
        save()
        if sealed >= next_resume:
            next_resume += RESUME_EVERY_DAYS
            out_pass.resumes += 1
            try:
                ingestor = ingest_checkpoint.resume_ingest(model, checkpoint_dir)
                push = ingestor.push
            except (OSError, CheckpointError):
                out_pass.failed_resumes += 1
    t0 = clock()
    out = ingestor.flush(until=inputs.days[-1])
    if out:
        collect(out, clock() - t0)
    if durable:
        save()
    out_pass.wall = clock() - start
    out_pass.ingestor = ingestor
    return out_pass


class _NullIngestor:
    """Accepts every delivery and seals nothing: times the harness loop alone."""

    days_sealed = 0

    def push(self, event, fingerprint):
        return []

    def flush(self, until=None):
        return []


def harness_loop_s(inputs: Inputs) -> float:
    """Seconds a traced pass spends in the harness's loop, outside any span.

    The same loop runs over the same deliveries into a no-op ingestor
    whose calls are wrapped like the real ones; its wall minus its span
    time is the loop's own cost plus the wrappers' call overhead.
    """
    tracer = Tracer()
    null = _NullIngestor()
    null.push = tracer.wrap("harness.null_push", null.push)
    null.flush = tracer.wrap("harness.null_flush", null.flush)
    return stream_pass(None, inputs, null).wall - tracer.attributed()


def _stream_setup(run: Run) -> Tuple[CompoundBehaviorModel, Ingestor, List[float]]:
    """Extraction, model fit and construction, ``SETUPS`` times."""
    inputs = run.inputs
    fits = []
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cube = cert.extract_cert_measurements(inputs.store, inputs.users, inputs.days)
        t1 = time.perf_counter()
        model = make_model(STREAM_EPOCHS)
        model.fit(cube, inputs.group_map, inputs.train_days)
        t2 = time.perf_counter()
        ingestor = new_ingestor(model, inputs)
        t3 = time.perf_counter()
        run.extract_s.append(t1 - t0)
        fits.append(t2 - t1)
        run.setup_s.append(t3 - t0)
    return model, ingestor, fits


def _stream_quality(model: CompoundBehaviorModel, run: Run, ref: StreamPass) -> Dict[str, float]:
    """AUC / AP of the streamed lists over the test period (pooled)."""
    test = set(run.inputs.test_days)
    keep = [j for j, r in enumerate(ref.results) if r.day in test]
    scores = {a: ref.score_matrix(a)[:, keep] for a in model.aspect_names}
    investigation = model.engine.critic.investigate(
        {a: s.max(axis=1) for a, s in scores.items()}, run.inputs.users, model.config.critic_n
    )
    model_run = ModelRun(
        name="ACOBE-stream",
        users=list(run.inputs.users),
        test_days=[ref.results[j].day for j in keep],
        scores=scores,
        investigation=investigation,
    )
    metrics = evaluate_run(model_run, run.inputs.labels)
    return {"auc": metrics.auc, "ap": metrics.average_precision}


def _check_pass(run: Run, label: str, p: StreamPass) -> None:
    inputs = run.inputs
    ing = p.ingestor
    run.attempted += len(inputs.deliveries) + p.saves + p.resumes
    run.failed += p.failures
    run.check(f"{label}: no late deliveries", ing.events_late == 0, f"late={ing.events_late}")
    run.check(
        f"{label}: duplicates == injected",
        ing.events_duplicate == inputs.injected_duplicates,
        f"{ing.events_duplicate} vs {inputs.injected_duplicates}",
    )
    run.check(
        f"{label}: days sealed == calendar days",
        ing.days_sealed == len(inputs.days),
        f"{ing.days_sealed} vs {len(inputs.days)}",
    )
    run.check(
        f"{label}: scored days >= {MIN_SCORED_DAYS}",
        len(p.results) >= MIN_SCORED_DAYS,
        f"{len(p.results)} scored",
    )
    run.check(
        f"{label}: no failed operations",
        p.failures == 0,
        f"refused={p.refused} quarantined={p.quarantined} failed_saves={p.failed_saves} "
        f"failed_resumes={p.failed_resumes}",
    )


def _same_scores(a: StreamPass, b: StreamPass, aspects) -> bool:
    return [r.day for r in a.results] == [r.day for r in b.results] and all(
        np.array_equal(a.score_matrix(x), b.score_matrix(x)) for x in aspects
    )


def _check_against_batch(run: Run, model: CompoundBehaviorModel, p: StreamPass) -> None:
    """Per-day stream scores equal batch ``model.score`` within the dtype's tolerance."""
    anchors = [r.day for r in p.results]
    batch = model.score(anchors)
    rtol = 100 * np.finfo(np.dtype(model.config.autoencoder.dtype)).eps
    worst = 0.0
    for aspect, expected in batch.items():
        got = p.score_matrix(aspect)
        worst = max(worst, float(np.max(np.abs(got - expected) / np.maximum(np.abs(expected), 1e-30))))
    run.check("stream scores == batch model.score", worst <= rtol, f"max rel diff {worst:.3g} (tol {rtol:.3g})")


def run_stream(run: Run, work_dir: Path, tracer: Optional[Tracer]) -> None:
    durable = run.workload == "replay-durable"
    checkpoint_dir = work_dir / "checkpoint" if durable else None
    model, ingestor, fits = _stream_setup(run)
    aspects = model.aspect_names

    passes: List[StreamPass] = []
    for i in range(repeats(run.workload, run.seconds)):
        if durable:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        if i:
            ingestor = new_ingestor(model, run.inputs)
        passes.append(stream_pass(model, run.inputs, ingestor, checkpoint_dir))
    run.untraced_walls = [p.wall for p in passes]
    for i, p in enumerate(passes):
        _check_pass(run, f"pass {i}", p)
    first = passes[0]
    run.check(
        "passes bit-identical",
        all(_same_scores(first, p, aspects) for p in passes[1:]),
    )

    if durable:
        reference = stream_pass(model, run.inputs, new_ingestor(model, run.inputs))
        _check_pass(run, "reference replay", reference)
        run.check("durable scores bit-identical to replay", _same_scores(first, reference, aspects))
    else:
        reference = first
    _check_against_batch(run, model, reference)

    # The shared host slows down by up to 2x for a second or more at a
    # time.  Taking each day's latency as its minimum over the passes keeps
    # such a slowdown from moving the tail.
    day_latency = np.min([p.latencies for p in passes], axis=0)
    quality = _stream_quality(model, run, first)
    run.end_to_end = {
        "setup_s": statistics.median(run.setup_s),
        "events_per_s": len(run.inputs.deliveries) * len(passes) / sum(run.untraced_walls),
        "day_latency_p50_ms": float(np.percentile(day_latency, 50)) * 1e3,
        "day_latency_p95_ms": float(np.percentile(day_latency, 95)) * 1e3,
        "retrain_s": min(fits),
        **quality,
    }
    run.info = {"passes": len(passes), "scored_days": len(day_latency)}

    if tracer is not None:
        if durable:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        sizes: List[int] = []

        def checkpoint_bytes(directory: Path) -> None:
            sizes.append(sum(f.stat().st_size for f in directory.iterdir() if f.is_file()))

        after_save = tracer.wrap("harness.checkpoint_bytes", checkpoint_bytes) if durable else None
        with tracer.installed():
            traced = stream_pass(
                model, run.inputs, new_ingestor(model, run.inputs), checkpoint_dir, after_save
            )
        run.harness_s = harness_loop_s(run.inputs)
        _check_pass(run, "traced pass", traced)
        run.check("traced scores bit-identical to untraced", _same_scores(first, traced, aspects))
        run.traced_wall = traced.wall
        ing = traced.ingestor
        run.layer_extra = {
            "ingest.deliveries": ing.events_pushed,
            "ingest.duplicates": ing.events_duplicate,
            "ingest.late": ing.events_late,
            "ingest.days_sealed": ing.days_sealed,
            "checkpoint.bytes_p50": float(np.median(sizes)) if sizes else 0.0,
            "checkpoint.bytes_last": sizes[-1] if sizes else 0,
        }


# ---------------------------------------------------------------------------
# retrain
# ---------------------------------------------------------------------------


def _retrain_once(run: Run, cube) -> Tuple[float, CompoundBehaviorModel, ModelRun]:
    """Fit, then score and investigate the test period: ``retrain_s``."""
    inputs = run.inputs
    model = make_model(RETRAIN_EPOCHS)
    t0 = time.perf_counter()
    model.fit(cube, inputs.group_map, inputs.train_days)
    anchors = model.valid_anchor_days(inputs.test_days)
    scores = model.score(anchors)
    investigation = model.investigate(anchors)
    elapsed = time.perf_counter() - t0
    return elapsed, model, ModelRun(model.config.name, model.users, anchors, scores, investigation)


def run_retrain(run: Run, work_dir: Path, tracer: Optional[Tracer]) -> None:
    inputs = run.inputs
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        cube = cert.extract_cert_measurements(inputs.store, inputs.users, inputs.days)
        elapsed = time.perf_counter() - t0
        run.extract_s.append(elapsed)
        run.setup_s.append(elapsed)

    # Each repetition is a whole batch cycle from raw events to the
    # investigation list (extraction, then the retrain), followed by the
    # day-latency sweep: one day's investigation list from the fresh
    # model, for every day with enough history.  Only the first repetition's run is kept: each
    # model holds its own representation, and peak_rss_mb should not
    # grow with the count.
    sweeps = []
    runs = []
    cycles = []
    for _ in range(repeats(run.workload, run.seconds)):
        t0 = time.perf_counter()
        cube = cert.extract_cert_measurements(inputs.store, inputs.users, inputs.days)
        extract_s = time.perf_counter() - t0
        elapsed, model, later = _retrain_once(run, cube)
        cycles.append(extract_s + elapsed)
        run.untraced_walls.append(elapsed)
        runs.append(later)
        days = model.valid_anchor_days(inputs.days)
        sweep = []
        for day in days:
            t0 = time.perf_counter()
            model.investigate([day])
            sweep.append(time.perf_counter() - t0)
        sweeps.append(sweep)
        run.attempted += 1 + len(days)
    first = runs[0]
    run.check(
        "retrain scores finite",
        all(np.isfinite(s).all() for r in runs for s in r.scores.values()),
    )
    run.check(
        "retrain repetitions bit-identical",
        all(np.array_equal(first.scores[a], r.scores[a]) for r in runs[1:] for a in first.scores),
    )
    day_latency = np.min(sweeps, axis=0)

    quality = evaluate_run(first, inputs.labels)
    run.end_to_end = {
        "setup_s": statistics.median(run.setup_s),
        "events_per_s": inputs.n_events * len(cycles) / sum(cycles),
        "day_latency_p50_ms": float(np.percentile(day_latency, 50)) * 1e3,
        "day_latency_p95_ms": float(np.percentile(day_latency, 95)) * 1e3,
        "retrain_s": min(run.untraced_walls),
        "auc": quality.auc,
        "ap": quality.average_precision,
    }
    run.info = {"repetitions": len(runs), "scored_days": len(days)}

    if tracer is not None:
        with tracer.installed():
            traced_wall, _, traced = _retrain_once(run, cube)
        run.attempted += 1
        run.check(
            "traced scores bit-identical to untraced",
            all(np.array_equal(first.scores[a], traced.scores[a]) for a in first.scores),
        )
        run.traced_wall = traced_wall


# ---------------------------------------------------------------------------
# per-layer metrics of a traced run
# ---------------------------------------------------------------------------


def layer_metrics(run: Run, tracer: Tracer) -> Dict[str, float]:
    incl, calls, counts = tracer.inclusive, tracer.calls, tracer.counts
    extra = run.layer_extra
    deliveries = extra.get("ingest.deliveries", 0)
    wasted = extra.get("ingest.duplicates", 0) + extra.get("ingest.late", 0)
    fit_samples = counts["nn.autoencoder_fit"]
    metrics = {
        "ingest.push_self_s": incl["ingest.push"] + incl["ingest.flush"] - incl["stream.observe_day"],
        "ingest.seal_ms_p50": tracer.sample_ms("ingest.seal", 50),
        "ingest.deliveries": deliveries,
        "ingest.duplicates": extra.get("ingest.duplicates", 0),
        "ingest.late": extra.get("ingest.late", 0),
        "ingest.days_sealed": extra.get("ingest.days_sealed", 0),
        "ingest.useful_ratio": (deliveries - wasted) / deliveries if deliveries else 0.0,
        "stream.observe_day_s": incl["stream.observe_day"],
        "stream.observe_day_ms_p50": tracer.sample_ms("stream.observe_day", 50),
        "stream.observe_day_ms_p95": tracer.sample_ms("stream.observe_day", 95),
        "stream.days_scored": len(tracer.samples["stream.observe_day"]),
        "repr.deviate_s": incl["repr.deviate"],
        "repr.compound_s": incl["repr.compound"],
        "repr.build_s": incl["repr.build"],
        "pipeline.score_s": incl["pipeline.score"],
        "pipeline.rows_scored": counts["pipeline.score"],
        "pipeline.critic_s": incl["pipeline.critic"],
        "nn.predict_s": incl["nn.predict"],
        "nn.predict_rows": counts["nn.predict"],
        "nn.fit_s": incl["nn.fit"],
        "nn.steps": counts["nn.optimizer"],
        "nn.samples_per_s": fit_samples / incl["nn.autoencoder_fit"] if fit_samples else 0.0,
        "nn.forward_s": sum(incl[f"nn.{c}.forward"] for c in NN_LAYER_CLASSES),
        "nn.backward_s": sum(incl[f"nn.{c}.backward"] for c in NN_LAYER_CLASSES),
        "nn.optimizer_s": incl["nn.optimizer"],
        **{
            f"nn.{c}.{m}_s": incl[f"nn.{c}.{m}"]
            for c in NN_LAYER_CLASSES
            for m in ("forward", "backward")
        },
        "checkpoint.saves": calls["checkpoint.save"],
        "checkpoint.save_s": incl["checkpoint.save"],
        "checkpoint.save_ms_p50": tracer.sample_ms("checkpoint.save", 50),
        "checkpoint.ingest_export_s": incl["checkpoint.ingest_export"],
        "checkpoint.write_s": incl["checkpoint.write"],
        "checkpoint.bytes_p50": extra.get("checkpoint.bytes_p50", 0.0),
        "checkpoint.bytes_last": extra.get("checkpoint.bytes_last", 0),
        "checkpoint.resumes": calls["checkpoint.resume"],
        "checkpoint.resume_ms_p50": tracer.sample_ms("checkpoint.resume", 50),
        "features.extract_s": statistics.median(run.extract_s),
        "detector.fit_s": incl["detector.fit"],
        "detector.score_s": incl["detector.score"],
        "detector.investigate_s": incl["detector.investigate"],
        "trace.wall_s": run.traced_wall,
        "trace.overhead_ratio": run.traced_wall / statistics.median(run.untraced_walls),
        "trace.harness_s": run.harness_s,
        "trace.unattributed_s": run.traced_wall - tracer.attributed() - run.harness_s,
    }
    return metrics
