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
:func:`~repro.core.checkpoint.save_checkpoint`, adding sidecars:

* ``state_ingest.json`` -- lineage, cursor, watermark, counters,
  pending novelty counters, fingerprints;
* ``state_ingest.npz`` -- the open days' raw slabs;
* ``state_seen_<first>_<last>.json`` -- immutable segments of the
  seen-set commit log (rows ``first..last``, as JSON
  ``{kind: {user index: [key strings]}}``).

Seen-sets only grow, and only at a seal, so a save writes a segment
holding just the rows committed since the previous checkpoint and
carries the earlier segments over unchanged (``keep_files``).  It
carries them only when the committed manifest has this ingestor's
lineage, every segment still hashes to its checksum, and the segments
cover a prefix of the commit log; otherwise it writes one base segment
with every row.  Once :data:`SEEN_COMPACT_SEGMENTS` segments have
accumulated, the next save folds them into a fresh base.  The core
manifest, written last, stays the only commit point.

:func:`resume_ingest` is the inverse: one checkpoint load (each file
read and checksum-verified once) rebuilds the detector *and* the
ingestor around it -- seen-sets from the segments in order, mid-day
partial state included -- so a killed run continues bit-identical to
one that never died.  A driving loop that replays its delivery sequence
can skip the first ``ingestor.events_pushed`` deliveries -- and even
without skipping, re-delivered records for still-open days collapse
against the restored fingerprints.
"""

from __future__ import annotations

import io
import json
import zipfile
from datetime import date
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

from repro.core.checkpoint import (
    CheckpointCorruptionError,
    CheckpointMismatchError,
    LoadedCheckpoint,
    committed_manifest,
    load_checkpoint,
    resume_streaming,
    save_checkpoint,
    sidecar_intact,
)
from repro.core.detector import CompoundBehaviorModel
from repro.ingest.ingestor import IngestConfig, Ingestor
from repro.ingest.slab import SlabBuilder
from repro.utils.timeutil import TWO_TIMEFRAMES

__all__ = [
    "INGEST_DOC_FILE",
    "INGEST_MANIFEST_KEY",
    "INGEST_STATE_FILE",
    "SEEN_COMPACT_SEGMENTS",
    "resume_ingest",
    "save_ingest_checkpoint",
]

#: JSON sidecar holding the ingest cursor document.
INGEST_DOC_FILE = "state_ingest.json"
#: npz sidecar holding the open days' raw slabs.
INGEST_STATE_FILE = "state_ingest.npz"
#: Top-level manifest key describing the ingest sidecars.
INGEST_MANIFEST_KEY = "ingest"
#: A save that would carry this many seen-set segments writes one base
#: segment instead, so a directory never holds more than this many.
SEEN_COMPACT_SEGMENTS = 32


def _seen_segment_file(start: int, stop: int) -> str:
    return f"state_seen_{start:08d}_{stop - 1:08d}.json"


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


def _carried_segments(directory: Path, ingestor: Ingestor) -> List[Dict[str, Any]]:
    """The committed seen-set segments this save may keep (maybe none).

    They qualify only as a whole: same lineage, a contiguous cover of
    log rows ``[0, k)`` with ``k`` within this ingestor's log, fewer
    than :data:`SEEN_COMPACT_SEGMENTS` of them, and every file intact.
    """
    manifest = committed_manifest(directory)
    entry = (manifest or {}).get(INGEST_MANIFEST_KEY) or {}
    if entry.get("lineage") != ingestor.lineage:
        return []
    segments = list(entry.get("seen_segments", []))
    if len(segments) >= SEEN_COMPACT_SEGMENTS:
        return []
    stop = 0
    for segment in segments:
        if segment["start"] != stop or segment["stop"] <= stop:
            return []
        stop = segment["stop"]
    if stop > ingestor.builder.seen_rows:
        return []
    if not all(sidecar_intact(directory, manifest, s["file"]) for s in segments):
        return []
    return segments


def save_ingest_checkpoint(
    ingestor: Ingestor,
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
    extra_manifest: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Atomically persist detector state *and* ingest cursor together.

    Writes only the seen-set rows committed since the checkpoint already
    in ``directory`` when that checkpoint belongs to this ingestor's
    lineage; see the module docstring.

    Args:
        ingestor: the ingestor to persist; must have a detector attached
            (the ingest sidecars ride the stream checkpoint's manifest).
        directory: checkpoint directory (created if missing).  One
            writer per directory: two live ingestors of the same lineage
            saving into one directory would carry each other's rows.
        retries / backoff: transient-I/O retry knobs, as in
            :func:`repro.core.checkpoint.save_checkpoint`.
        extra_manifest: further top-level manifest entries (e.g. the
            CLI's dataset binding).

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
    directory = Path(directory)
    segments = _carried_segments(directory, ingestor)
    carried_rows = segments[-1]["stop"] if segments else 0
    doc, arrays = ingestor.export_state(seen_offset=carried_rows)
    accumulator = _accumulator_doc(doc)
    new_rows = accumulator.pop("seen")
    total_rows = accumulator["seen_total"]

    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    extra_files = {
        INGEST_DOC_FILE: json.dumps(doc, sort_keys=True).encode("utf-8"),
        INGEST_STATE_FILE: buffer.getvalue(),
    }
    keep_files = [segment["file"] for segment in segments]
    if total_rows > carried_rows:
        segment = {
            "file": _seen_segment_file(carried_rows, total_rows),
            "start": carried_rows,
            "stop": total_rows,
        }
        extra_files[segment["file"]] = json.dumps(new_rows).encode("utf-8")
        segments.append(segment)

    manifest_entry = {
        "doc_file": INGEST_DOC_FILE,
        "state_file": INGEST_STATE_FILE,
        "lineage": ingestor.lineage,
        "seen_rows": total_rows,
        "seen_segments": segments,
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
        keep_files=keep_files,
    )


def _seen_keys(
    checkpoint: LoadedCheckpoint, entry: Mapping[str, Any], directory
) -> Dict[str, Dict[str, list]]:
    """The seen-set commit log, merged from its verified segments in order."""
    seen: Dict[str, Dict[str, list]] = {}
    stop = 0
    for segment in entry.get("seen_segments", []):
        if segment["start"] != stop:
            raise CheckpointCorruptionError(
                f"seen-set segment {segment['file']} in {directory} does not continue "
                f"the log at row {stop}"
            )
        try:
            part = json.loads(checkpoint.payload(segment["file"]))
        except ValueError as exc:
            raise CheckpointCorruptionError(
                f"unreadable seen-set segment {segment['file']} in {directory}: {exc}"
            ) from exc
        for kind, per_user in part.items():
            merged = seen.setdefault(kind, {})
            for user, keys in per_user.items():
                merged.setdefault(user, []).extend(keys)
        stop = segment["stop"]
    if stop != entry.get("seen_rows"):
        raise CheckpointCorruptionError(
            f"checkpoint at {directory} records {entry.get('seen_rows')} seen-set rows "
            f"but its segments cover {stop}"
        )
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

    Raises:
        CheckpointMismatchError: the checkpoint has no ingest entry
            (a plain stream checkpoint), or the watermark semantics /
            model config / an ``expected_manifest`` entry differ.
        CheckpointCorruptionError: a sidecar is missing, fails its
            checksum, or cannot be parsed.
    """
    checkpoint: LoadedCheckpoint = load_checkpoint(directory, retries=retries, backoff=backoff)
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

    doc_file = entry.get("doc_file", INGEST_DOC_FILE)
    try:
        doc = json.loads(checkpoint.payload(doc_file))
    except ValueError as exc:
        raise CheckpointCorruptionError(f"unreadable ingest cursor {doc_file}: {exc}") from exc
    state_file = entry.get("state_file", INGEST_STATE_FILE)
    try:
        with np.load(io.BytesIO(checkpoint.payload(state_file))) as archive:
            arrays = {name: np.asarray(archive[name], dtype=np.float64) for name in archive.files}
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError) as exc:
        raise CheckpointCorruptionError(f"unreadable ingest state {state_file}: {exc}") from exc
    _accumulator_doc(doc)["seen"] = _seen_keys(checkpoint, entry, directory)

    builder = SlabBuilder(stream.users, timeframes)
    ingestor = Ingestor(builder, stream, effective)
    ingestor.restore_state(doc, arrays)
    return ingestor
