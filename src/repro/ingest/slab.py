"""Incremental per-day slab building with delivery deduplication.

:class:`SlabBuilder` wraps the shared
:class:`~repro.features.cert.CertSlabAccumulator` counting path (the
same code the batch extractor drives, which is what makes sealed slabs
bit-identical to cube columns) and adds the ingestion-side concerns:

* **dedup fingerprints** -- one set per open day; an event whose
  fingerprint was already recorded for its day is rejected before it
  can double-count.  Fingerprints identify *deliveries*, not content:
  real logs legitimately contain identical events (two uploads of the
  same file in the same second), so callers assign a fingerprint per
  source record (e.g. the CSV row index) and only re-deliveries of the
  same record collapse.  :func:`repro.ingest.arrival.content_fingerprint`
  is the fallback for callers without a delivery identity.
* **buffered-record accounting** -- the number of fingerprints held
  across open days, the quantity the ingestor's ``max_buffered_events``
  backpressure bound is measured in.
* **state export/restore** -- everything above plus the accumulator's
  committed seen-sets and open-day buffers round-trips exactly through
  ``(json doc, npz arrays)`` for the ingest checkpoint.
"""

from __future__ import annotations

from datetime import date
from typing import Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.features.cert import CertSlabAccumulator
from repro.logs.schema import Event
from repro.utils.timeutil import TWO_TIMEFRAMES, TimeFrame

__all__ = ["SlabBuilder"]


class SlabBuilder:
    """Aggregates raw events into per-day CERT slabs, incrementally.

    Thin stateful façade over :class:`CertSlabAccumulator`: callers
    :meth:`add` events (any order within the open-day window) and
    :meth:`seal` days oldest-first; each seal returns the finished
    ``(users, features, timeframes)`` float64 slab.
    """

    def __init__(
        self,
        users: Sequence[str],
        timeframes: Sequence[TimeFrame] = TWO_TIMEFRAMES,
    ) -> None:
        self._accumulator = CertSlabAccumulator(users, timeframes)
        self._fingerprints: Dict[date, Set[str]] = {}

    @property
    def users(self) -> List[str]:
        return self._accumulator.users

    @property
    def timeframes(self) -> Tuple[TimeFrame, ...]:
        return self._accumulator.timeframes

    @property
    def feature_set(self):
        return self._accumulator.feature_set

    @property
    def last_sealed(self):
        """The most recent sealed day, or None."""
        return self._accumulator.last_sealed

    def open_days(self) -> List[date]:
        """Days with buffered records, ascending."""
        days = set(self._accumulator.open_days())
        days.update(self._fingerprints)
        return sorted(days)

    @property
    def buffered_records(self) -> int:
        """Unique records currently held across all open days."""
        return sum(len(prints) for prints in self._fingerprints.values())

    def records_in(self, day: date) -> int:
        """Unique records buffered for one open day."""
        return len(self._fingerprints.get(day, ()))

    def is_duplicate(self, day: date, fingerprint: str) -> bool:
        """Whether this delivery was already recorded for ``day``."""
        return fingerprint in self._fingerprints.get(day, ())

    def add(self, event: Event, fingerprint: str) -> bool:
        """Aggregate one delivery into its event-time day.

        Returns:
            False when ``fingerprint`` was already recorded for the
            event's day (the duplicate is discarded without counting),
            True otherwise -- including events that carry no tracked
            feature, whose fingerprint is still recorded so their
            re-deliveries stay cheap to reject.

        Raises:
            ValueError: the event's day has already been sealed (the
                ingestor's lateness policy must intercept late events
                before they reach the builder).
        """
        day = event.day
        last = self._accumulator.last_sealed
        if last is not None and day <= last:
            # The accumulator only rejects sealed-day adds for *tracked*
            # events; enforce it here for every delivery so no
            # fingerprint can leak into a day that will never seal again.
            raise ValueError(
                f"day {day.isoformat()} is already sealed "
                f"(cursor at {last.isoformat()})"
            )
        prints = self._fingerprints.setdefault(day, set())
        if fingerprint in prints:
            return False
        self._accumulator.add(event)
        prints.add(fingerprint)
        return True

    def seal(self, day: date) -> np.ndarray:
        """Finish ``day`` and release its buffered state.

        Returns:
            The day's ``(users, features, timeframes)`` slab.
        """
        slab = self._accumulator.seal(day)
        self._fingerprints.pop(day, None)
        return slab

    # -- checkpoint support -------------------------------------------------

    @property
    def seen_rows(self) -> int:
        """Rows in the accumulator's seen-set commit log."""
        return self._accumulator.seen_rows

    def export_state(self, seen_offset: int = 0) -> Tuple[dict, Dict[str, np.ndarray]]:
        """Serialize builder state as ``(json doc, npz arrays)``.

        ``seen_offset`` is passed to
        :meth:`~repro.features.cert.CertSlabAccumulator.export_state`:
        only seen-set rows from that index on are emitted.
        """
        doc, arrays = self._accumulator.export_state(seen_offset)
        return (
            {
                "accumulator": doc,
                "fingerprints": {
                    day.isoformat(): sorted(prints)
                    for day, prints in sorted(self._fingerprints.items())
                    if prints
                },
            },
            arrays,
        )

    def restore_state(self, doc: dict, arrays: Dict[str, np.ndarray]) -> None:
        """Restore state captured by :meth:`export_state` (exact)."""
        self._accumulator.restore_state(doc["accumulator"], arrays)
        self._fingerprints = {
            date.fromisoformat(day): set(prints)
            for day, prints in doc["fingerprints"].items()
        }
