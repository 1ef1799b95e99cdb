"""Event-time ingestion: watermarks, lateness policies, backpressure.

The :class:`Ingestor` is the subsystem façade: raw
:class:`~repro.logs.schema.Event` deliveries go in (any order within a
bounded window), sealed per-day slabs come out -- scored through a
:class:`~repro.core.streaming.StreamingDetector` when one is attached,
or as bare :class:`SealedSlab` results when not.

Event time, not arrival time, drives everything.  A
:class:`WatermarkClock` tracks the highest event day seen; day ``d``
seals once the watermark passes it, i.e. once an event of day
``> d + allowed_lateness_days`` arrives (or :meth:`Ingestor.flush`
forces the tail).  Until then the day buffers in the open-day window.
Deliveries for already-sealed days are *late* and never reach the
slab builder; they route through the configured policy instead
(``drop`` | ``quarantine-file`` | ``raise``).

Memory is bounded by construction: the open-day window cannot exceed
``max_open_days`` and the buffered unique records cannot exceed
``max_buffered_events`` -- crossing either bound raises a typed
:class:`IngestBackpressureError` *before* the offending delivery is
consumed, so a caller can slow its source and retry the same delivery.
"""

from __future__ import annotations

import json
import time
import uuid
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.streaming import DailyResult, DegradedDayResult, StreamingDetector
from repro.ingest.arrival import content_fingerprint
from repro.ingest.slab import SlabBuilder
from repro.logs.schema import Event, event_to_row, event_type_name
from repro.obs import get_telemetry

__all__ = [
    "IngestBackpressureError",
    "IngestConfig",
    "IngestError",
    "IngestResult",
    "Ingestor",
    "LATE_POLICIES",
    "LateEventError",
    "SealedSlab",
    "WatermarkClock",
]

#: What to do with a delivery whose event-time day has already sealed.
LATE_POLICIES = ("drop", "quarantine-file", "raise")

_ONE_DAY = timedelta(days=1)


class IngestError(RuntimeError):
    """Base class for every ingestion failure."""


class LateEventError(IngestError):
    """A delivery arrived past the watermark and the policy is ``raise``."""


class IngestBackpressureError(IngestError):
    """Consuming the delivery would exceed a configured memory bound.

    The offending delivery was *not* consumed: the cursor, buffers and
    counters are exactly as before the ``push``, so the caller can
    drain (e.g. ``flush()``), slow the source, and retry the same
    delivery.
    """


@dataclass(frozen=True)
class IngestConfig:
    """Knobs of the event-time ingestion pipeline.

    Args:
        allowed_lateness_days: how many days behind the newest event day
            a delivery may be before it counts as late.  ``1`` (default)
            tolerates the previous day still trickling in while today's
            events arrive; ``0`` seals a day as soon as the next day's
            first event shows up.
        late_policy: what to do with late deliveries -- ``drop`` (count
            and discard), ``quarantine-file`` (append the event row as a
            JSON line to ``quarantine_path`` for offline reconciliation),
            or ``raise`` (:class:`LateEventError`; the delivery is not
            consumed).
        quarantine_path: destination for quarantined rows; required
            exactly when ``late_policy`` is ``quarantine-file``.
        max_open_days: hard bound on the open-day window (newest event
            day back to the seal cursor).  Must leave room for the
            watermark: at least ``allowed_lateness_days + 1``.
        max_buffered_events: hard bound on unique buffered records
            across all open days (None = unbounded).
        start_day: the first day of the detection range.  When set, the
            cursor starts just before it: days before ``start_day`` are
            late by definition, and a leading run of *empty* calendar
            days still seals (as all-zero slabs) when the watermark
            passes them.  When None, the first delivery's day anchors
            the range.
    """

    allowed_lateness_days: int = 1
    late_policy: str = "drop"
    quarantine_path: Optional[Union[str, Path]] = None
    max_open_days: int = 8
    max_buffered_events: Optional[int] = None
    start_day: Optional[date] = None

    def __post_init__(self) -> None:
        if self.allowed_lateness_days < 0:
            raise ValueError(
                f"allowed_lateness_days must be >= 0, got {self.allowed_lateness_days}"
            )
        if self.late_policy not in LATE_POLICIES:
            raise ValueError(
                f"late_policy must be one of {LATE_POLICIES}, got {self.late_policy!r}"
            )
        if (self.late_policy == "quarantine-file") != (self.quarantine_path is not None):
            raise ValueError(
                "quarantine_path is required exactly when late_policy is 'quarantine-file'"
            )
        if self.max_open_days < self.allowed_lateness_days + 1:
            raise ValueError(
                f"max_open_days={self.max_open_days} cannot hold the watermark window: "
                f"allowed_lateness_days={self.allowed_lateness_days} needs at least "
                f"{self.allowed_lateness_days + 1} open day(s)"
            )
        if self.max_buffered_events is not None and self.max_buffered_events < 1:
            raise ValueError(
                f"max_buffered_events must be >= 1 or None, got {self.max_buffered_events}"
            )


class WatermarkClock:
    """Event-time watermark: which days are final, given what we've seen.

    Tracks the maximum event day observed; with allowed lateness ``L``,
    the watermark is ``max_event_day - L`` and every day strictly before
    it (``seal_through``) is final -- no in-tolerance delivery can still
    touch it.
    """

    def __init__(self, allowed_lateness_days: int) -> None:
        if allowed_lateness_days < 0:
            raise ValueError(f"allowed_lateness_days must be >= 0, got {allowed_lateness_days}")
        self.allowed_lateness_days = allowed_lateness_days
        self.max_event_day: Optional[date] = None

    def advance(self, day: date) -> None:
        """Fold one observed event day into the clock (monotone)."""
        if self.max_event_day is None or day > self.max_event_day:
            self.max_event_day = day

    @property
    def watermark(self) -> Optional[date]:
        """No event of a day before this can still be in tolerance."""
        if self.max_event_day is None:
            return None
        return self.max_event_day - timedelta(days=self.allowed_lateness_days)

    @property
    def seal_through(self) -> Optional[date]:
        """The newest day that is final (strictly before the watermark)."""
        watermark = self.watermark
        return None if watermark is None else watermark - _ONE_DAY


@dataclass(frozen=True)
class SealedSlab:
    """A sealed day from an ingestor running without a detector."""

    day: date
    slab: np.ndarray
    n_records: int


#: What a push/flush yields per sealed day: a detector result when a
#: detector is attached (warm-up days yield nothing), a bare
#: :class:`SealedSlab` otherwise.
IngestResult = Union[DailyResult, DegradedDayResult, SealedSlab]


class Ingestor:
    """Push-based event-time ingestion in front of a streaming detector.

    Example::

        builder = SlabBuilder(users)
        ingestor = Ingestor(builder, detector, IngestConfig(start_day=days[0]))
        for record in deliveries:
            for result in ingestor.push(record.event, record.fingerprint):
                handle(result)          # a day sealed and was scored
        for result in ingestor.flush(until=days[-1]):
            handle(result)              # the tail of the range

    The headline property: for any delivery order whose lateness stays
    within ``allowed_lateness_days``, the sealed slabs -- and therefore
    the detector results -- are bit-identical to the batch extractor on
    the same events (``tests/ingest/test_ingest_property.py``).
    """

    def __init__(
        self,
        builder: SlabBuilder,
        detector: Optional[StreamingDetector] = None,
        config: Optional[IngestConfig] = None,
    ) -> None:
        if detector is not None and list(detector.users) != list(builder.users):
            raise ValueError(
                "builder and detector disagree on the user axis "
                f"({len(builder.users)} vs {len(detector.users)} users)"
            )
        self._builder = builder
        self._detector = detector
        self.config = config or IngestConfig()
        self._clock = WatermarkClock(self.config.allowed_lateness_days)
        self._cursor: Optional[date] = (
            self.config.start_day - _ONE_DAY if self.config.start_day else None
        )
        self.events_pushed = 0
        self.events_late = 0
        self.events_duplicate = 0
        self.days_sealed = 0
        #: The telemetry that last received the ``ingest.open_days`` gauge
        #: from a push; a push republishes it when the span moved or the
        #: telemetry changed.
        self._open_days_published_to = None
        #: Identifies this stream across checkpoints: minted here, restored
        #: on resume.  A checkpoint directory whose manifest carries another
        #: lineage belongs to a different stream, so none of its files are
        #: carried into this stream's next save.
        self.lineage = uuid.uuid4().hex
        # Register the lifetime counters at zero: a run report then says
        # "0 late deliveries" instead of omitting the counter.
        telemetry = get_telemetry()
        for name in ("ingest.events", "ingest.events_late", "ingest.events_duplicate",
                     "ingest.days_sealed"):
            telemetry.counter(name)
        #: ``(day, cause)`` once sealing a day failed; the stream is then
        #: torn (the builder sealed the day, the cursor did not move) and
        #: every later push, flush or export raises (:meth:`_raise_closed`).
        self._failure: Optional[Tuple[date, BaseException]] = None

    def durable_counters(self) -> Dict[str, int]:
        """Checkpoint-backed lifetime totals (survive process restarts).

        These travel through :meth:`export_state` / :meth:`restore_state`
        rather than the process-local telemetry registry, so the
        ``durable`` section of a metrics export equals the uninterrupted
        run's after any kill-and-resume.
        """
        counters = {
            "ingest.events_pushed": self.events_pushed,
            "ingest.events_late": self.events_late,
            "ingest.events_duplicate": self.events_duplicate,
            "ingest.days_sealed": self.days_sealed,
        }
        if self._detector is not None:
            counters.update(self._detector.durable_counters())
        return counters

    @property
    def detector(self) -> Optional[StreamingDetector]:
        return self._detector

    @property
    def builder(self) -> SlabBuilder:
        return self._builder

    @property
    def cursor(self) -> Optional[date]:
        """The newest sealed day (days up to and including it are final)."""
        return self._cursor

    @property
    def watermark(self) -> Optional[date]:
        return self._clock.watermark

    @property
    def open_day_span(self) -> int:
        """Days in the open window (newest event day back to the cursor)."""
        if self._clock.max_event_day is None or self._cursor is None:
            return 0
        return max(0, (self._clock.max_event_day - self._cursor).days)

    # ------------------------------------------------------------------
    # pushing
    # ------------------------------------------------------------------

    def push(self, event: Event, fingerprint: Optional[str] = None) -> List[IngestResult]:
        """Consume one delivery; return results for any days that sealed.

        Args:
            event: the delivered event (its ``day`` is event time).
            fingerprint: delivery identity for dedup.  Callers reading
                from a source with stable record identities (CSV row
                index, message offset) should pass one; the fallback is
                the event's :func:`content_fingerprint`, which also
                collapses naturally-identical events.

        Returns:
            Zero or more sealed-day results, oldest first (a delivery
            that advances the watermark can seal several days at once,
            including empty calendar days between events).

        Raises:
            LateEventError: the delivery is late and the policy is
                ``raise`` (the delivery is not consumed).
            IngestBackpressureError: consuming the delivery would exceed
                ``max_open_days`` / ``max_buffered_events`` (the
                delivery is not consumed).
            ValueError: no time-frame of the builder covers the event's
                hour (the delivery is not consumed).
            IngestError: an earlier seal failed (see :meth:`_seal_until`).
        """
        if self._failure is not None:
            self._raise_closed()
        telemetry = get_telemetry()
        day = event.timestamp.date()
        if fingerprint is None:
            fingerprint = content_fingerprint(event)
        if self._cursor is None:
            # First delivery anchors the day axis when no start_day set.
            self._cursor = day - _ONE_DAY
        if day <= self._cursor:
            return self._handle_late(event, day, telemetry)

        # Only a delivery that moves the clock can widen the open-day
        # window or seal anything; every other one skips that work.
        max_event_day = self._clock.max_event_day
        advances = max_event_day is None or day > max_event_day
        if advances:
            span = (day - self._cursor).days
            if span > self.config.max_open_days:
                raise IngestBackpressureError(
                    f"delivery for {day.isoformat()} would stretch the open-day window to "
                    f"{span} day(s) (max_open_days={self.config.max_open_days}, "
                    f"cursor at {self._cursor.isoformat()}); drain with flush() or raise the bound"
                )
        builder = self._builder
        max_buffered = self.config.max_buffered_events
        if (
            max_buffered is not None
            and builder.buffered_records >= max_buffered
            and not builder.is_duplicate(day, fingerprint)
        ):
            raise IngestBackpressureError(
                f"{builder.buffered_records} record(s) already buffered "
                f"(max_buffered_events={max_buffered}); "
                "drain with flush() or raise the bound"
            )

        # The builder refuses (ValueError) before changing anything, and
        # the new day is past every day this delivery can seal, so adding
        # first keeps a refused delivery from half-consuming: no clock
        # move, no seal.
        if not builder.add(event, fingerprint, day):
            self.events_pushed += 1
            self.events_duplicate += 1
            telemetry.counter("ingest.events").inc()
            telemetry.counter("ingest.events_duplicate").inc()
            return []

        results: List[IngestResult] = []
        if advances:
            self._clock.advance(day)
            target = self._clock.seal_through
            if target is not None and target > self._cursor:
                results = self._seal_until(target, telemetry)
        self.events_pushed += 1
        telemetry.counter("ingest.events").inc()
        if advances or self._open_days_published_to is not telemetry:
            # The span moves only with the clock (or a seal, which only
            # an advancing delivery or flush() triggers).
            telemetry.gauge("ingest.open_days").set(self.open_day_span)
            self._open_days_published_to = telemetry
        return results

    def flush(self, until: Optional[date] = None) -> List[IngestResult]:
        """Seal everything the watermark allows -- and then some.

        The watermark only moves when newer events arrive, so the last
        days of a finite source never seal on their own.  ``flush``
        force-seals through the newest observed event day, or through
        ``until`` when that is later (backfilling trailing empty
        calendar days up to a known range end).

        Raises:
            IngestError: an earlier seal failed (see :meth:`_seal_until`).
        """
        if self._failure is not None:
            self._raise_closed()
        telemetry = get_telemetry()
        if self._cursor is None:
            # Nothing pushed and no start_day: no day axis to seal along.
            return []
        target = self._clock.max_event_day or self._cursor
        if until is not None and until > target:
            target = until
        if target <= self._cursor:
            return []
        results = self._seal_until(target, telemetry)
        telemetry.gauge("ingest.open_days").set(self.open_day_span)
        return results

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _handle_late(self, event: Event, day: date, telemetry) -> List[IngestResult]:
        if self.config.late_policy == "raise":
            raise LateEventError(
                f"delivery for sealed day {day.isoformat()} "
                f"(cursor at {self._cursor.isoformat()}, "
                f"allowed_lateness_days={self.config.allowed_lateness_days})"
            )
        self.events_pushed += 1
        self.events_late += 1
        telemetry.counter("ingest.events").inc()
        telemetry.counter("ingest.events_late").inc()
        telemetry.log_event(
            "ingest.event_late",
            level="warning",
            day=day.isoformat(),
            cursor=self._cursor.isoformat(),
            policy=self.config.late_policy,
        )
        if self.config.late_policy == "quarantine-file":
            self._quarantine(event)
        return []

    def _quarantine(self, event: Event) -> None:
        path = Path(self.config.quarantine_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        row = {"type": event_type_name(event)}
        row.update(event_to_row(event))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")

    def _raise_closed(self) -> None:
        day, cause = self._failure
        raise IngestError(
            f"ingestor closed: sealing day {day.isoformat()} failed "
            f"({type(cause).__name__}: {cause}); resume from the last checkpoint"
        ) from cause

    def _seal_until(self, target: date, telemetry) -> List[IngestResult]:
        """Seal and score every day through ``target``, oldest first.

        Fails closed: an exception from sealing or scoring a day (the
        detector's, say) propagates unchanged, and the ingestor refuses
        every later push, flush and export with :class:`IngestError`,
        because the builder may already have sealed a day the cursor has
        not passed.
        """
        results: List[IngestResult] = []
        day = self._cursor + _ONE_DAY
        while day <= target:
            started = time.perf_counter()
            n_records = self._builder.records_in(day)
            try:
                slab = self._builder.seal(day)
                if self._detector is not None:
                    result = self._detector.observe_day(day, slab)
                else:
                    result = SealedSlab(day=day, slab=slab, n_records=n_records)
            except BaseException as exc:
                self._failure = (day, exc)
                raise
            self._cursor = day
            self.days_sealed += 1
            telemetry.counter("ingest.days_sealed").inc()
            telemetry.histogram("ingest.seal_latency_seconds").observe(
                time.perf_counter() - started
            )
            telemetry.log_event(
                "ingest.day_sealed",
                day=day.isoformat(),
                n_records=n_records,
                scored=isinstance(result, DailyResult),
            )
            if result is not None:  # detector warm-up days emit nothing
                results.append(result)
            day += _ONE_DAY
        return results

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------

    def export_state(self, seen_offset: int = 0) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serialize the ingest cursor as ``(json doc, npz arrays)``.

        Covers the lineage, watermark clock, seal cursor, lifetime
        counters and the builder's buffered state; the detector's rolling
        state is checkpointed separately (``repro.core.checkpoint``).
        ``seen_offset`` skips the seen-set rows a checkpoint already holds
        (see :meth:`SlabBuilder.export_state`); 0 exports them all.

        Raises:
            IngestError: an earlier seal failed, so the state is torn and
                must not be checkpointed (see :meth:`_seal_until`).
        """
        if self._failure is not None:
            self._raise_closed()
        builder_doc, arrays = self._builder.export_state(seen_offset)
        doc = {
            "lineage": self.lineage,
            "cursor": self._cursor.isoformat() if self._cursor else None,
            "max_event_day": (
                self._clock.max_event_day.isoformat() if self._clock.max_event_day else None
            ),
            "events_pushed": self.events_pushed,
            "events_late": self.events_late,
            "events_duplicate": self.events_duplicate,
            "days_sealed": self.days_sealed,
            "builder": builder_doc,
        }
        return doc, arrays

    def restore_state(self, doc: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`export_state` (exact)."""
        self.lineage = doc["lineage"]
        self._cursor = date.fromisoformat(doc["cursor"]) if doc["cursor"] else None
        self._clock.max_event_day = (
            date.fromisoformat(doc["max_event_day"]) if doc["max_event_day"] else None
        )
        self.events_pushed = int(doc["events_pushed"])
        self.events_late = int(doc["events_late"])
        self.events_duplicate = int(doc["events_duplicate"])
        self.days_sealed = int(doc["days_sealed"])
        self._builder.restore_state(doc["builder"], arrays)
        self._open_days_published_to = None
