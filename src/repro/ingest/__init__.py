"""Event-time ingestion: raw events in, scored days out.

The subsystem that closes the gap between arriving audit-log events and
the streaming detector's per-day slabs: incremental slab building
(:class:`SlabBuilder` over the shared CERT counting path), an event-time
watermark with bounded lateness (:class:`WatermarkClock`,
:class:`IngestConfig`), a push façade with typed backpressure
(:class:`Ingestor`), and a durable ingest cursor riding the stream
checkpoint (:func:`save_ingest_checkpoint` / :func:`resume_ingest`).

See ``docs/INGEST.md`` for semantics and guarantees.
"""

from repro.ingest.arrival import (
    ArrivalRecord,
    arrival_order,
    content_fingerprint,
    inject_duplicates,
    shuffled_arrival,
)
from repro.ingest.checkpoint import (
    INGEST_DOC_FILE,
    INGEST_MANIFEST_KEY,
    INGEST_STATE_FILE,
    resume_ingest,
    save_ingest_checkpoint,
)
from repro.ingest.ingestor import (
    LATE_POLICIES,
    IngestBackpressureError,
    IngestConfig,
    IngestError,
    IngestResult,
    Ingestor,
    LateEventError,
    SealedSlab,
    WatermarkClock,
)
from repro.ingest.slab import SlabBuilder

__all__ = [
    "ArrivalRecord",
    "INGEST_DOC_FILE",
    "INGEST_MANIFEST_KEY",
    "INGEST_STATE_FILE",
    "IngestBackpressureError",
    "IngestConfig",
    "IngestError",
    "IngestResult",
    "Ingestor",
    "LATE_POLICIES",
    "LateEventError",
    "SealedSlab",
    "SlabBuilder",
    "WatermarkClock",
    "arrival_order",
    "content_fingerprint",
    "inject_duplicates",
    "resume_ingest",
    "save_ingest_checkpoint",
    "shuffled_arrival",
]
