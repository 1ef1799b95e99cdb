"""Durable ingest cursor: the ingestion state joins the stream checkpoint.

A streaming deployment driven by the :class:`~repro.ingest.Ingestor`
has *two* pieces of rolling state: the detector's per-user/per-group
buffers (already covered by :mod:`repro.core.checkpoint`) and the
ingest cursor -- the watermark clock, the seal cursor, the open days'
partial slabs and pending novelty counters, the dedup fingerprints, and
the committed novelty seen-sets.  Both must commit atomically or a
crash between them replays events into a detector that already scored
them.

:func:`save_ingest_checkpoint` therefore rides the core
:func:`~repro.core.checkpoint.save_checkpoint`:

* the **seen-sets** ride the core segment log.  They only grow, and
  only at a seal, so each save's segment holds, next to the detector
  rows, just the seen-set rows committed since the previous save (as
  JSON ``{kind: {user index: [key strings]}}``); a base segment holds
  every row.  The core decides which segments a save carries and when
  it compacts them, once for both kinds of rows.
* ``state_ingest.bin`` -- the small mutable cursor, rewritten by every
  save: the open days' raw slabs as float64 rows, then the cursor
  document (JSON: seal cursor, watermark, counters, pending novelty
  counters, fingerprints).

The core manifest, written last, stays the only commit point; its
``ingest`` entry records the ingest configuration, the seen-set row
count and the lifetime counters.

:func:`resume_ingest` is the inverse: one checkpoint load (each file
read and checksum-verified once) rebuilds the detector *and* the
ingestor around it -- seen-sets from the segments in order, mid-day
partial state included -- so a killed run continues bit-identical to
one that never died, and its next save carries the segments.  A driving
loop that replays its delivery sequence can skip the first
``ingestor.events_pushed`` deliveries -- and even without skipping,
re-delivered records for still-open days collapse against the restored
fingerprints.
"""

from __future__ import annotations

import json
from datetime import date
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.core.checkpoint import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    LoadedCheckpoint,
    load_checkpoint,
    pack_rows,
    resume_streaming,
    save_checkpoint,
    unpack_rows,
)
from repro.core.detector import CompoundBehaviorModel
from repro.ingest.ingestor import IngestConfig, Ingestor
from repro.ingest.slab import SlabBuilder
from repro.utils.timeutil import TWO_TIMEFRAMES

__all__ = [
    "INGEST_MANIFEST_KEY",
    "INGEST_STATE_FILE",
    "resume_ingest",
    "save_ingest_checkpoint",
]

#: Sidecar holding the ingest cursor: open-day slabs, then the document.
INGEST_STATE_FILE = "state_ingest.bin"
#: Top-level manifest key describing the ingest cursor.
INGEST_MANIFEST_KEY = "ingest"


def _accumulator_doc(doc: Dict[str, Any]) -> Dict[str, Any]:
    """The seen-set part of an :meth:`Ingestor.export_state` document."""
    return doc["builder"]["accumulator"]


def _config_doc(config: IngestConfig) -> Dict[str, Any]:
    return {
        "allowed_lateness_days": config.allowed_lateness_days,
        "late_policy": config.late_policy,
        "quarantine_path": str(config.quarantine_path) if config.quarantine_path else None,
        "max_open_days": config.max_open_days,
        "max_buffered_events": config.max_buffered_events,
        "start_day": config.start_day.isoformat() if config.start_day else None,
    }


def save_ingest_checkpoint(
    ingestor: Ingestor,
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
    extra_manifest: Optional[Mapping[str, Any]] = None,
    extra_files: Optional[Mapping[str, bytes]] = None,
) -> Path:
    """Atomically persist detector state *and* ingest cursor together.

    Writes only the detector days and seen-set rows added since the
    checkpoint already in ``directory`` when the core can carry that
    checkpoint; see the module docstring.

    Args:
        ingestor: the ingestor to persist; must have a detector attached
            (the ingest cursor rides the stream checkpoint's manifest).
        directory: checkpoint directory (created if missing).  One
            writer per directory: two live streams of the same lineage
            saving into one directory would carry each other's rows.
        retries / backoff: transient-I/O retry knobs, as in
            :func:`repro.core.checkpoint.save_checkpoint`.
        extra_manifest: further top-level manifest entries (e.g. the
            CLI's dataset binding).
        extra_files: further sidecars (e.g. the run driver's monitor
            state), as in :func:`repro.core.checkpoint.save_checkpoint`.

    Returns:
        The checkpoint directory.
    """
    if ingestor.detector is None:
        raise ValueError(
            "save_ingest_checkpoint needs an ingestor with a detector attached; "
            "a detector-less ingestor has no stream checkpoint to ride"
        )
    for key in extra_manifest or {}:
        if key == INGEST_MANIFEST_KEY:
            raise ValueError(f"extra_manifest key {key!r} is reserved for the ingest entry")
    seen_rows = ingestor.builder.seen_rows

    def export_log(offset: int) -> Tuple[bytes, Dict[str, bytes]]:
        doc, arrays = ingestor.export_state(seen_offset=offset)
        new_rows = _accumulator_doc(doc).pop("seen")
        cursor = pack_rows(
            {"open_raw": [arrays[f"open_raw_{i}"] for i in range(len(arrays))]},
            json.dumps(doc, sort_keys=True).encode("utf-8"),
        )
        log = json.dumps(new_rows).encode("utf-8") if offset < seen_rows else b""
        return log, {INGEST_STATE_FILE: cursor}

    manifest_entry = {
        "seen_rows": seen_rows,
        "config": _config_doc(ingestor.config),
        "counters": {
            "events_pushed": ingestor.events_pushed,
            "events_late": ingestor.events_late,
            "events_duplicate": ingestor.events_duplicate,
            "days_sealed": ingestor.days_sealed,
        },
    }
    return save_checkpoint(
        ingestor.detector,
        directory,
        retries=retries,
        backoff=backoff,
        extra_files=extra_files,
        extra_manifest={INGEST_MANIFEST_KEY: manifest_entry, **(extra_manifest or {})},
        log_rows=seen_rows,
        export_log=export_log,
    )


def _seen_keys(
    checkpoint: LoadedCheckpoint, entry: Mapping[str, Any], directory
) -> Dict[str, Dict[str, list]]:
    """The seen-set commit log, merged from the segments' rows in order."""
    if checkpoint.log_rows != entry.get("seen_rows"):
        raise CheckpointCorruptionError(
            f"checkpoint at {directory} records {entry.get('seen_rows')} seen-set rows "
            f"but its segments cover {checkpoint.log_rows}"
        )
    seen: Dict[str, Dict[str, list]] = {}
    for part in checkpoint.log:
        if not part:
            continue
        try:
            rows = json.loads(part)
        except ValueError as exc:
            raise CheckpointCorruptionError(
                f"unreadable seen-set rows in a segment in {directory}: {exc}"
            ) from exc
        for kind, per_user in rows.items():
            merged = seen.setdefault(kind, {})
            for user, keys in per_user.items():
                merged.setdefault(user, []).extend(keys)
    return seen


def resume_ingest(
    model: CompoundBehaviorModel,
    directory: Union[str, Path],
    on_bad_day: Optional[str] = None,
    config: Optional[IngestConfig] = None,
    expected_manifest: Optional[Mapping[str, Any]] = None,
    timeframes=TWO_TIMEFRAMES,
    retries: int = 2,
    backoff: float = 0.05,
    checkpoint: Optional[LoadedCheckpoint] = None,
) -> Ingestor:
    """Rebuild an :class:`Ingestor` (detector included) from a checkpoint.

    Args:
        model: the fitted model the original stream wrapped.
        directory: the checkpoint directory.
        on_bad_day: override the detector's degradation policy.
        config: override the *operational* ingest knobs (late policy,
            bounds, quarantine path).  The watermark semantics --
            ``allowed_lateness_days`` and ``start_day`` -- must match
            what the checkpoint recorded: changing them mid-stream would
            re-classify in-flight days, so a difference raises
            :class:`~repro.core.checkpoint.CheckpointMismatchError`.
            None resumes with exactly the recorded configuration.
        expected_manifest: top-level manifest entries that must match if
            recorded (e.g. the CLI's dataset binding); see
            :func:`repro.core.checkpoint.resume_streaming`.
        timeframes: the intra-day split the original builder used.
        checkpoint: an already-loaded checkpoint for ``directory`` (a
            caller that reads its sidecars loads it once).

    Raises:
        CheckpointMismatchError: the checkpoint has no ingest entry
            (a plain stream checkpoint), or the watermark semantics /
            model config / an ``expected_manifest`` entry differ.
        CheckpointCorruptionError: a sidecar is missing, fails its
            checksum, or cannot be parsed.
    """
    if checkpoint is None:
        checkpoint = load_checkpoint(directory, retries=retries, backoff=backoff)
    entry = checkpoint.manifest.get(INGEST_MANIFEST_KEY)
    if entry is None:
        raise CheckpointMismatchError(
            f"checkpoint at {directory} has no ingest cursor -- it was written by "
            "the plain stream path; resume it with resume_streaming instead"
        )
    recorded = entry.get("config", {})
    recorded_config = IngestConfig(
        allowed_lateness_days=int(recorded.get("allowed_lateness_days", 1)),
        late_policy=str(recorded.get("late_policy", "drop")),
        quarantine_path=recorded.get("quarantine_path"),
        max_open_days=int(recorded.get("max_open_days", 8)),
        max_buffered_events=recorded.get("max_buffered_events"),
        start_day=(
            date.fromisoformat(recorded["start_day"]) if recorded.get("start_day") else None
        ),
    )
    if config is not None:
        if config.allowed_lateness_days != recorded_config.allowed_lateness_days:
            raise CheckpointMismatchError(
                f"checkpoint at {directory} was written with allowed_lateness_days="
                f"{recorded_config.allowed_lateness_days}, but this run wants "
                f"{config.allowed_lateness_days} -- changing the watermark mid-stream "
                "would re-classify in-flight days"
            )
        if config.start_day != recorded_config.start_day:
            raise CheckpointMismatchError(
                f"checkpoint at {directory} was written with start_day="
                f"{recorded_config.start_day}, but this run wants {config.start_day}"
            )
    effective = config or recorded_config

    stream = resume_streaming(
        model,
        directory,
        on_bad_day=on_bad_day,
        retries=retries,
        backoff=backoff,
        checkpoint=checkpoint,
        expected_manifest=expected_manifest,
    )

    blocks, tail = unpack_rows(checkpoint.payload(INGEST_STATE_FILE), INGEST_STATE_FILE)
    try:
        doc = json.loads(tail)
    except ValueError as exc:
        raise CheckpointCorruptionError(
            f"unreadable ingest cursor {INGEST_STATE_FILE}: {exc}"
        ) from exc
    arrays = {f"open_raw_{i}": raw for i, raw in enumerate(blocks.get("open_raw", []))}
    _accumulator_doc(doc)["seen"] = _seen_keys(checkpoint, entry, directory)

    builder = SlabBuilder(stream.users, timeframes)
    ingestor = Ingestor(builder, stream, effective)
    ingestor.restore_state(doc, arrays)
    return ingestor
