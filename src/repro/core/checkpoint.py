"""Durable checkpoints for :class:`~repro.core.streaming.StreamingDetector`.

ACOBE's streaming mode is a long-lived daily service; its rolling
per-user/per-group buffers are the only state that cannot be recomputed
from the (immutable) trained model.  This module persists that state so
a crash, OOM, or host migration costs nothing: **kill after day k,
resume, and days k+1..n produce scores bit-identical to an
uninterrupted run** (pinned by ``tests/core/test_checkpoint_property.py``
and the golden-file integration test).

Layout of a checkpoint directory (version 5)::

    <directory>/
      state_seg_<h>_<r>.bin  # immutable segments, oldest first
      state_<sidecar>        # caller sidecars (e.g. the ingest cursor)
      manifest.json          # schema + version, lineage, day cursor,
                             # users/groups, segment list, sidecar
                             # table, config digest, degradation
                             # counters, per-file checksums

The rolling state is an append-only **segment log**.  A buffered day
only ever enters the buffers and later slides out, so each save writes
one segment holding just the rows appended since the previous save --
``history`` slabs, ``sigma``/``sigweight`` and ``gsigma``/``gweight``
deviations, and the rows of a caller's own append-only log (the ingest
seen-sets) -- and carries the committed segments unchanged.  A segment
is one flat float64 block per kind plus the log rows as opaque bytes
(:func:`pack_rows`), so it decodes without a parse.  The manifest lists
each segment with the row coordinates ``[history, sigma, log]`` it
starts and stops at; a segment's name records where it stops.
:func:`load_checkpoint` stacks the listed segments in order and keeps
the newest ``counts`` days of each buffer, exactly as the detector's
bounded deques drop the days that slid out of the window.

A save carries the committed segments only when all of them qualify:
the committed manifest has this stream's ``lineage``, the segments form
a contiguous cover of the current window and of the log from row 0,
there are fewer than :data:`COMPACT_SEGMENTS` of them, and every file
still hashes to its checksum.  Otherwise it writes one **base** segment
holding the current window and every log row.  So the bytes a save
writes follow the days since the last save, not the window length.

Checkpoints of an older layout (version 1 to 4) are refused with
:class:`CheckpointMismatchError`: start a fresh stream.

Durability design, in order of defence:

* **Atomic writes** -- every file goes through
  :func:`repro.core.persistence.atomic_write_bytes` (write temp, fsync,
  ``os.replace``).
* **Manifest-last commit** -- segments and sidecars are written before
  ``manifest.json``, and a save never overwrites a file the committed
  manifest lists: a name it lists is written to its second slot
  (``state_ingest.b.bin``) instead.  A crash before the new manifest
  lands therefore leaves the previous checkpoint complete; files the
  new manifest does not list are removed only after it commits.
* **Content checksums** -- the manifest records the SHA-256 of every
  file; :func:`load_checkpoint` verifies each payload once and parses
  exactly the verified bytes, so bit rot and truncation surface as
  :class:`CheckpointCorruptionError`, never as a NumPy stack trace.  A
  save re-hashes every segment it carries.
* **Config digest** -- the manifest pins a digest of the model's
  :class:`~repro.core.detector.ModelConfig`; resuming against a model
  with different windows/weights raises :class:`CheckpointMismatchError`
  instead of silently mixing incompatible math.
* **Retry with backoff** -- transient I/O errors (network filesystems,
  busy volumes) are retried with exponential backoff; each retry is
  counted on the ``checkpoint.retries`` telemetry counter.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
import time
from datetime import date
from itertools import islice
from pathlib import Path
from typing import (
    Any, Callable, Container, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar, Union,
)

import numpy as np

from repro.core.detector import CompoundBehaviorModel, config_digest
from repro.core.persistence import atomic_write_bytes, file_sha256
from repro.core.streaming import StreamingDetector, StreamState
from repro.obs import get_telemetry

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "COMPACT_SEGMENTS",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "LoadedCheckpoint",
    "SEGMENT_PREFIX",
    "config_digest",
    "load_checkpoint",
    "pack_rows",
    "resume_streaming",
    "save_checkpoint",
    "unpack_rows",
]

CHECKPOINT_SCHEMA = "acobe.stream_checkpoint"
CHECKPOINT_VERSION = 5

MANIFEST_FILE = "manifest.json"
#: Name prefix of the immutable segment files.
SEGMENT_PREFIX = "state_seg_"
#: A save that would carry this many segments writes one base segment
#: instead, so a directory never holds more than this many.
COMPACT_SEGMENTS = 32

#: The float64 blocks of a segment, in file order, and the row
#: coordinate (history or sigma) each one advances.
_COORDINATE = {"history": 0, "sigma": 1, "sigweight": 1, "gsigma": 1, "gweight": 1}
_KINDS = tuple(_COORDINATE)
_MAGIC = b"ACOBEROW"

#: Patchable sleep for the retry loop (tests stub it out).
_SLEEP: Callable[[float], None] = time.sleep

_T = TypeVar("_T")


class CheckpointError(RuntimeError):
    """Base class for every checkpoint failure."""


class CheckpointNotFoundError(CheckpointError, FileNotFoundError):
    """No committed checkpoint exists at the given directory."""


class CheckpointCorruptionError(CheckpointError):
    """A checkpoint exists but fails checksum/structure validation."""


class CheckpointMismatchError(CheckpointError):
    """A valid checkpoint does not belong to the resuming model."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _with_retries(
    operation: Callable[[], _T],
    what: str,
    retries: int,
    backoff: float,
) -> _T:
    """Run ``operation``, retrying transient ``OSError`` with backoff.

    ``retries`` counts *additional* attempts after the first; each one
    increments the ``checkpoint.retries`` telemetry counter.  The final
    failure is re-raised as :class:`CheckpointError` chained to the
    underlying ``OSError``.
    """
    telemetry = get_telemetry()
    delay = backoff
    last: Optional[OSError] = None
    for attempt in range(retries + 1):
        if attempt:
            telemetry.counter("checkpoint.retries").inc()
            _SLEEP(delay)
            delay *= 2.0
        try:
            return operation()
        except OSError as exc:
            last = exc
    raise CheckpointError(
        f"{what} still failing after {retries + 1} attempt(s): {last}"
    ) from last


def pack_rows(blocks: Mapping[str, Sequence[np.ndarray]], tail: bytes = b"") -> bytes:
    """One checkpoint file: named blocks of same-shape float64 rows, then ``tail``.

    The layout is a magic, a small JSON table of ``[name, rows, row
    shape]``, the rows' raw little-endian float64 bytes block after
    block, and the caller's ``tail`` bytes; :func:`unpack_rows` reads it
    back as views of the payload.
    """
    layout, body = [], []
    for name, rows in blocks.items():
        shape = list(np.shape(rows[0])) if len(rows) else []
        for row in rows:
            if list(np.shape(row)) != shape:
                raise ValueError(f"rows of block {name!r} differ in shape")
            body.append(np.ascontiguousarray(row, dtype="<f8").tobytes())
        layout.append([name, len(rows), shape])
    header = json.dumps(layout).encode("utf-8")
    return b"".join([_MAGIC, struct.pack("<I", len(header)), header, *body, tail])


def unpack_rows(payload: bytes, name: str) -> Tuple[Dict[str, List[np.ndarray]], bytes]:
    """The blocks and tail of a :func:`pack_rows` payload (read-only row views).

    Raises:
        CheckpointCorruptionError: ``payload`` is not such a file.
    """
    try:
        if payload[:len(_MAGIC)] != _MAGIC:
            raise ValueError("no row-file magic")
        start = len(_MAGIC) + 4
        (size,) = struct.unpack_from("<I", payload, len(_MAGIC))
        offset = start + size
        blocks: Dict[str, List[np.ndarray]] = {}
        for block, rows, shape in json.loads(payload[start:offset]):
            count = rows * math.prod(shape)
            if count == 0:
                blocks[block] = []
                continue
            flat = np.frombuffer(payload, dtype="<f8", count=count, offset=offset)
            blocks[block] = list(flat.reshape(rows, *shape))
            offset += 8 * count
        return blocks, payload[offset:]
    except (ValueError, TypeError, struct.error) as exc:
        raise CheckpointCorruptionError(f"unreadable checkpoint file {name}: {exc}") from exc


def _committed_manifest(directory: Path) -> Dict[str, Any]:
    """The manifest committed in ``directory``; empty if absent or unreadable.

    A save reads it once, to learn which files it must not overwrite
    and which segments it may carry; an unreadable manifest carries
    nothing.
    """
    try:
        manifest = json.loads((directory / MANIFEST_FILE).read_bytes())
    except (OSError, ValueError):
        return {}
    return manifest if isinstance(manifest, dict) else {}


def _unlisted_name(name: str, listed: Container[str]) -> str:
    """``name``, or its second slot when the committed manifest lists it.

    The committed manifest lists at most one slot of each name, so a
    save alternates between the two and never overwrites a file the
    committed checkpoint still needs.
    """
    if name not in listed:
        return name
    stem, _, ext = name.rpartition(".")
    return f"{stem}.b.{ext}"


def _rows(stream: StreamingDetector, log_rows: int) -> Tuple[List[int], List[int]]:
    """The stream's row coordinates ``[history, sigma, log]`` -- rows ever
    appended -- and those of its oldest buffered history and sigma days.

    Every observed, unquarantined day appends one history slab; once
    the history is full, each such day also appends one ``sigma`` and
    one ``gsigma`` pair.
    """
    history_rows = stream.days_observed - stream.days_quarantined
    rows = [history_rows, max(0, history_rows - (stream.model.config.window - 1)), log_rows]
    history, sigma, _ = stream.buffers()
    return rows, [rows[0] - len(history), rows[1] - len(sigma)]


def _intact(path: Path, expected: Optional[str]) -> bool:
    try:
        return expected is not None and file_sha256(path) == expected
    except OSError:
        return False


def _segments_to_carry(
    directory: Path, committed: Mapping[str, Any], lineage: str, rows: List[int],
    oldest: List[int],
) -> List[Dict[str, Any]]:
    """The committed segments this save may carry (maybe none).

    They qualify only as a whole: this stream's lineage; a contiguous
    cover of the log from row 0 and of every buffered day this save
    does not write, ending within the rows this stream holds; fewer
    than :data:`COMPACT_SEGMENTS` of them; and every file intact.
    """
    if committed.get("version") != CHECKPOINT_VERSION or committed.get("lineage") != lineage:
        return []
    segments = list(committed.get("segments") or [])
    if not 0 < len(segments) < COMPACT_SEGMENTS:
        return []
    try:
        if segments[0]["start"][2] != 0:
            return []
        # Where the last gap-free run of each buffer's rows starts.
        reach = list(segments[0]["start"][:2])
        for previous, segment in zip(segments, segments[1:]):
            if segment["start"][2] != previous["stop"][2]:
                return []
            for k in (0, 1):
                if segment["start"][k] != previous["stop"][k]:
                    reach[k] = segment["start"][k]
        stop = segments[-1]["stop"]
        if any(stop[k] > rows[k] for k in range(3)):
            return []
        # A buffered day the new segment does not hold must be carried.
        if any(reach[k] > oldest[k] < stop[k] for k in (0, 1)):
            return []
    except (KeyError, TypeError, IndexError):
        return []
    checksums = committed.get("checksums", {})
    if not all(_intact(directory / s["file"], checksums.get(s["file"])) for s in segments):
        return []
    return segments


def _segment_bytes(stream: StreamingDetector, start: List[int], rows: List[int],
                   log: bytes) -> bytes:
    """The buffered rows from coordinates ``start`` to ``rows``, plus ``log``."""
    history, sigma, gsigma = stream.buffers()

    def newest(buffer, count: int) -> list:
        return list(islice(buffer, len(buffer) - count, None))

    new_history = newest(history, rows[0] - start[0])
    new_sigma = newest(sigma, rows[1] - start[1])
    new_gsigma = newest(gsigma, rows[1] - start[1])
    return pack_rows({
        "history": new_history,
        "sigma": [s for s, _ in new_sigma],
        "sigweight": [w for _, w in new_sigma],
        "gsigma": [s for s, _ in new_gsigma],
        "gweight": [w for _, w in new_gsigma],
    }, log)


def _state_from_segments(
    directory: Path, manifest: Mapping[str, Any], payloads: Mapping[str, bytes]
) -> Tuple[StreamState, List[bytes]]:
    """Stack the verified segments in order; keep each buffer's newest days.

    Returns the state and each segment's log rows (opaque bytes).
    """
    rows: Dict[str, list] = {kind: [] for kind in _KINDS}
    log: List[bytes] = []
    previous: Optional[list] = None
    for segment in manifest.get("segments", []):
        name, start, stop = segment["file"], segment["start"], segment["stop"]
        if start[2] != (previous[2] if previous else 0):
            raise CheckpointCorruptionError(
                f"segment {name} in {directory} does not continue the log at {previous}"
            )
        blocks, tail = unpack_rows(payloads[name], name)
        found = [len(blocks.get(kind, ())) for kind in _KINDS]
        added = [stop[_COORDINATE[kind]] - start[_COORDINATE[kind]] for kind in _KINDS]
        if found != added:
            raise CheckpointCorruptionError(
                f"segment {name} in {directory} holds {found} rows per kind, "
                f"but the manifest lists it from {start} to {stop}"
            )
        for kind in _KINDS:
            k = _COORDINATE[kind]
            if previous and start[k] != previous[k]:
                # A save that came more than a window after the previous
                # one wrote every buffered day: the rows before it are
                # not this window's.
                rows[kind].clear()
            rows[kind].extend(blocks[kind])
        log.append(tail)
        previous = stop

    counts = manifest.get("counts", {})
    wanted = {key: int(counts.get(key, -1)) for key in ("history", "sigma", "group_sigma")}
    available = {"history": len(rows["history"]), "sigma": len(rows["sigma"]),
                 "group_sigma": len(rows["gsigma"])}
    if any(not 0 <= wanted[key] <= available[key] for key in wanted):
        raise CheckpointCorruptionError(
            f"checkpoint at {directory} records buffers of lengths {counts}, "
            f"but its segments hold {available}"
        )

    def newest(kind: str, key: str) -> list:
        return rows[kind][len(rows[kind]) - wanted[key]:]

    state = StreamState(
        history=newest("history", "history"),
        sigma_buffer=list(zip(newest("sigma", "sigma"), newest("sigweight", "sigma"))),
        group_sigma_buffer=list(zip(newest("gsigma", "group_sigma"),
                                    newest("gweight", "group_sigma"))),
        last_day=None,
    )
    return state, log


def _check_sidecar_name(filename: str) -> None:
    if "/" in filename or "\\" in filename or not filename.startswith("state_"):
        raise ValueError(
            f"checkpoint sidecar {filename!r} must be a plain filename starting "
            "with 'state_' (stale-file cleanup tracks that prefix)"
        )
    if filename.startswith(SEGMENT_PREFIX):
        raise ValueError(f"checkpoint sidecar {filename!r} collides with the segment names")


_CORE_MANIFEST_KEYS = frozenset({
    "schema", "version", "config_digest", "lineage", "last_day", "users", "groups",
    "group_map", "on_bad_day", "segments", "counts", "counters", "files", "checksums",
})


# ---------------------------------------------------------------------------
# Save / load / resume
# ---------------------------------------------------------------------------


def save_checkpoint(
    stream: StreamingDetector,
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
    extra_files: Optional[Mapping[str, bytes]] = None,
    extra_manifest: Optional[Mapping[str, Any]] = None,
    log_rows: int = 0,
    export_log: Optional[Callable[[int], Tuple[bytes, Mapping[str, bytes]]]] = None,
) -> Path:
    """Atomically persist a stream's rolling state.

    Safe to call after every observed day: the new manifest is the
    commit point, and no file the previous manifest lists is
    overwritten, so the directory always holds one complete, committed
    checkpoint.  Writes one segment with the rows appended since the
    committed checkpoint when that checkpoint can be carried, else one
    base segment (see the module docstring).

    Args:
        stream: the detector whose state to persist.
        directory: checkpoint directory (created if missing).
        retries: extra attempts per file on transient ``OSError``.
        backoff: initial retry delay in seconds (doubles per retry).
        extra_files: sidecar payloads a caller wants committed with the
            same durability guarantees, keyed by a plain
            ``state_``-prefixed name.  Each is written before the
            manifest, checksummed in it, verified by
            :func:`load_checkpoint`, and read back with
            :meth:`LoadedCheckpoint.payload`.
        extra_manifest: additional top-level manifest entries (e.g. a
            dataset binding); keys must not collide with the core
            checkpoint fields.
        log_rows / export_log: a caller's append-only row log that rides
            the segments (the ingest seen-sets).  ``log_rows`` is its
            length now; ``export_log(offset)`` returns the rows from
            ``offset`` on as bytes, plus sidecars to write with them.
            Resume hands each segment's rows back in order
            (:attr:`LoadedCheckpoint.log`).

    Returns:
        The checkpoint directory.
    """
    directory = Path(directory)
    extra_files = dict(extra_files or {})
    for filename in extra_files:
        _check_sidecar_name(filename)
    for key in extra_manifest or {}:
        if key in _CORE_MANIFEST_KEYS:
            raise ValueError(f"extra_manifest key {key!r} collides with a core manifest field")

    telemetry = get_telemetry()
    with telemetry.span("checkpoint.save", directory=str(directory)) as span:
        committed = _committed_manifest(directory)
        listed: Dict[str, str] = committed.get("checksums", {})
        history, sigma, gsigma = stream.buffers()
        rows, oldest = _rows(stream, log_rows)
        segments = _segments_to_carry(directory, committed, stream.lineage, rows, oldest)
        if segments:  # a day that slid out unsaved is not written
            stop = segments[-1]["stop"]
            start = [max(stop[0], oldest[0]), max(stop[1], oldest[1]), stop[2]]
        else:
            start = [*oldest, 0]
        log = b""
        if export_log is not None:
            log, files = export_log(start[2])
            for filename in files:
                _check_sidecar_name(filename)
            extra_files.update(files)

        checksums = {s["file"]: listed[s["file"]] for s in segments}
        total_bytes = 0

        def write(name: str, payload: bytes) -> str:
            nonlocal total_bytes
            physical = _unlisted_name(name, listed)
            path = directory / physical
            _with_retries(
                lambda: atomic_write_bytes(path, payload), f"writing {path}", retries, backoff
            )
            checksums[physical] = hashlib.sha256(payload).hexdigest()
            total_bytes += len(payload)
            return physical

        if rows != start:
            name = f"{SEGMENT_PREFIX}{rows[0]:08d}_{rows[2]:08d}.bin"
            physical = write(name, _segment_bytes(stream, start, rows, log))
            segments.append({"file": physical, "start": start, "stop": rows})
        files = {name: write(name, extra_files[name]) for name in sorted(extra_files)}

        last_day = stream.last_day
        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "config_digest": stream.config_digest,
            "lineage": stream.lineage,
            "last_day": last_day.isoformat() if last_day else None,
            "users": stream.users,
            "groups": stream.groups,
            "group_map": stream.group_map,
            "on_bad_day": stream.on_bad_day,
            "segments": segments,
            "counts": {
                "history": len(history),
                "sigma": len(sigma),
                "group_sigma": len(gsigma),
            },
            "counters": {
                "days_observed": stream.days_observed,
                "days_quarantined": stream.days_quarantined,
                "days_imputed": stream.days_imputed,
                "values_imputed": stream.values_imputed,
            },
            "files": files,
            "checksums": checksums,
        }
        for key, value in (extra_manifest or {}).items():
            manifest[key] = value
        # Compact JSON: the indented form goes through json's pure-Python
        # encoder, a noticeable share of a save that runs every day.
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        _with_retries(
            lambda: atomic_write_bytes(directory / MANIFEST_FILE, manifest_bytes),
            f"writing {directory / MANIFEST_FILE}",
            retries,
            backoff,
        )
        # Post-commit cleanup: drop state files the new manifest does not
        # list (segments nobody carried, the previous sidecar slots,
        # orphans of a save that crashed before its manifest).  The load
        # path ignores them, but leaving them would let the fault drills
        # corrupt a file nobody reads.
        for stale in directory.glob("state*"):
            if stale.name not in checksums:
                stale.unlink(missing_ok=True)
        telemetry.counter("checkpoint.saves").inc()
        span.annotate(
            bytes=total_bytes,
            history_days=len(history),
            segments=len(segments),
            last_day=manifest["last_day"],
        )
    return directory


class LoadedCheckpoint:
    """A validated checkpoint: manifest fields, the restored state, the
    verified bytes of every file the manifest lists, and each segment's
    log rows (``log``, oldest first)."""

    def __init__(self, manifest: Dict[str, Any], state: StreamState,
                 payloads: Dict[str, bytes], log: List[bytes]):
        self.manifest = manifest
        self.state = state
        self.payloads = payloads
        self.log = log

    @property
    def last_day(self) -> Optional[date]:
        return self.state.last_day

    @property
    def users(self) -> list:
        return list(self.manifest["users"])

    @property
    def group_map(self) -> Dict[str, str]:
        return dict(self.manifest["group_map"])

    @property
    def config_digest(self) -> str:
        return self.manifest["config_digest"]

    @property
    def log_rows(self) -> int:
        """Rows of the caller's log the segments hold."""
        segments = self.manifest.get("segments") or [{"stop": [0, 0, 0]}]
        return int(segments[-1]["stop"][2])

    def has(self, name: str) -> bool:
        """Whether the checkpoint lists sidecar ``name``."""
        return name in self.manifest.get("files", {})

    def payload(self, name: str) -> bytes:
        """The checksum-verified bytes of sidecar ``name``.

        Raises:
            CheckpointCorruptionError: the manifest lists no such sidecar.
        """
        physical = self.manifest.get("files", {}).get(name)
        if physical not in self.payloads:
            raise CheckpointCorruptionError(f"checkpoint lists no sidecar {name!r}")
        return self.payloads[physical]


def load_checkpoint(
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
) -> LoadedCheckpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`.

    Every file the manifest lists is read once and checked against its
    checksum; the state and the sidecar payloads are parsed from exactly
    those verified bytes.

    Raises:
        CheckpointNotFoundError: no committed manifest at ``directory``
            (including the partially-written case where only state
            files made it to disk).
        CheckpointCorruptionError: manifest unreadable, state file
            missing, checksum mismatch, or segment truncated/corrupt.
        CheckpointMismatchError: the checkpoint has another layout
            version than this build's (older ones are not migrated).
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        detail = ""
        if any(directory.glob("state*")):
            detail = (
                " (state files exist without a manifest: the checkpoint "
                "was never committed -- treat it as absent)"
            )
        raise CheckpointNotFoundError(f"no checkpoint manifest at {directory}{detail}")

    def read_manifest() -> str:
        return manifest_path.read_text()

    raw = _with_retries(read_manifest, f"reading {manifest_path}", retries, backoff)
    try:
        manifest = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise CheckpointCorruptionError(
            f"corrupt checkpoint manifest {manifest_path}: {exc}"
        ) from exc
    if manifest.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointCorruptionError(
            f"{manifest_path} is not a stream checkpoint "
            f"(schema={manifest.get('schema')!r})"
        )
    version = manifest.get("version")
    if version is not None and int(version) > CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint version {version} is newer than "
            f"this build supports ({CHECKPOINT_VERSION}); upgrade before resuming"
        )
    if version is None or int(version) < CHECKPOINT_VERSION:
        recorded = "no layout version" if version is None else f"layout version {version}"
        raise CheckpointMismatchError(
            f"checkpoint at {directory} records {recorded}; this build reads only "
            f"version {CHECKPOINT_VERSION} -- start a fresh stream (run without "
            "--resume into an empty checkpoint directory)"
        )

    # Verify every listed file, segment and sidecar alike: the manifest
    # is the commit record, so anything it lists must be present and
    # intact for the checkpoint to count as valid.
    checksums = manifest.get("checksums", {})
    try:
        listed = [segment["file"] for segment in manifest.get("segments", [])]
    except (KeyError, TypeError) as exc:
        raise CheckpointCorruptionError(f"malformed segment list in {manifest_path}") from exc
    listed.extend(manifest.get("files", {}).values())
    listed += [name for name in sorted(checksums) if name not in listed]
    payloads: Dict[str, bytes] = {}
    for filename in listed:
        file_path = directory / filename
        if not file_path.exists():
            raise CheckpointCorruptionError(
                f"partially written checkpoint at {directory}: manifest present "
                f"but {filename} is missing"
            )
        payload = _with_retries(file_path.read_bytes, f"reading {file_path}", retries, backoff)
        expected = checksums.get(filename)
        actual = hashlib.sha256(payload).hexdigest()
        if expected != actual:
            raise CheckpointCorruptionError(
                f"checksum mismatch for {file_path}: manifest says {expected}, "
                f"file hashes to {actual} -- the checkpoint is corrupt "
                "(truncated write or bit rot)"
            )
        payloads[filename] = payload

    try:
        state, log = _state_from_segments(directory, manifest, payloads)
    except (KeyError, TypeError, IndexError) as exc:
        raise CheckpointCorruptionError(f"malformed segment list in {manifest_path}") from exc
    last_day = manifest.get("last_day")
    state.last_day = date.fromisoformat(last_day) if last_day else None
    counters = manifest.get("counters", {})
    state.days_observed = int(counters.get("days_observed", 0))
    state.days_quarantined = int(counters.get("days_quarantined", 0))
    state.days_imputed = int(counters.get("days_imputed", 0))
    state.values_imputed = int(counters.get("values_imputed", 0))
    get_telemetry().counter("checkpoint.loads").inc()
    return LoadedCheckpoint(manifest, state, payloads, log)


def resume_streaming(
    model: CompoundBehaviorModel,
    directory: Union[str, Path],
    on_bad_day: Optional[str] = None,
    retries: int = 2,
    backoff: float = 0.05,
    checkpoint: Optional[LoadedCheckpoint] = None,
    expected_manifest: Optional[Mapping[str, Any]] = None,
) -> StreamingDetector:
    """Rebuild a :class:`StreamingDetector` from a checkpoint.

    The detector continues exactly where the checkpointed stream
    stopped: same users, groups, rolling buffers, day cursor and
    lineage, so the next :meth:`~StreamingDetector.observe_day` call
    scores the day after ``checkpoint.last_day`` bit-identically to a
    stream that never died, and its next save carries the segments.

    Args:
        model: the fitted model the original stream wrapped (reload it
            with :func:`repro.core.persistence.load_model` +
            :func:`~repro.core.persistence.attach_representation`).
        directory: the checkpoint directory.
        on_bad_day: override the degradation policy; defaults to the
            policy recorded in the checkpoint.
        checkpoint: an already-loaded checkpoint for ``directory`` (so a
            caller that needs the manifest, e.g. the ingest resume path,
            does not load and verify twice).
        expected_manifest: top-level manifest entries that must match the
            checkpoint if it recorded them -- e.g. the dataset binding
            the CLI stores alongside the config digest.  A key absent
            from the checkpoint (legacy save) is tolerated; a present
            key with a different value raises.

    Raises:
        CheckpointMismatchError: the checkpoint belongs to a model with
            a different configuration, or an ``expected_manifest`` entry
            conflicts with what the checkpoint recorded.
    """
    if checkpoint is None:
        checkpoint = load_checkpoint(directory, retries=retries, backoff=backoff)
    digest = config_digest(model.config)
    if digest != checkpoint.config_digest:
        raise CheckpointMismatchError(
            f"checkpoint at {directory} was written by a model with config "
            f"digest {checkpoint.config_digest[:12]}..., but the resuming "
            f"model digests to {digest[:12]}... -- resuming would mix "
            "incompatible deviation math"
        )
    for key, wanted in (expected_manifest or {}).items():
        recorded = checkpoint.manifest.get(key)
        if recorded is not None and recorded != wanted:
            raise CheckpointMismatchError(
                f"checkpoint at {directory} was written with {key}={recorded!r}, "
                f"but this run expects {key}={wanted!r} -- resuming would feed "
                "different data into the same rolling state"
            )
    policy = on_bad_day or checkpoint.manifest.get("on_bad_day", "strict")
    stream = StreamingDetector(
        model,
        checkpoint.users,
        checkpoint.group_map,
        on_bad_day=policy,
    )
    stream.restore_state(checkpoint.state)
    stream.lineage = checkpoint.manifest.get("lineage", stream.lineage)
    get_telemetry().counter("checkpoint.resumes").inc()
    return stream
