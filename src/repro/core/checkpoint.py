"""Durable checkpoints for :class:`~repro.core.streaming.StreamingDetector`.

ACOBE's streaming mode is a long-lived daily service; its rolling
per-user/per-group buffers are the only state that cannot be recomputed
from the (immutable) trained model.  This module persists that state so
a crash, OOM, or host migration costs nothing: **kill after day k,
resume, and days k+1..n produce scores bit-identical to an
uninterrupted run** (pinned by ``tests/core/test_checkpoint_property.py``
and the golden-file integration test).

Layout of a checkpoint directory (version 2, shard-aware)::

    <directory>/
      state_shard_000.npz  # per-user rolling arrays for shard 0's users
      state_shard_001.npz  # ... one slab per shard of the stream's
      ...                  #     ShardPlan (n_shards=1 -> a single slab)
      state_groups.npz     # per-group rolling arrays (groups are global)
      manifest.json        # schema + version, day cursor, users/groups,
                           # shard table, config digest, degradation
                           # counters, per-file checksums

The shard slabs partition the user axis exactly along the stream's
:class:`~repro.core.pipeline.ShardPlan`, so a large population's
checkpoint writes in user-range pieces; loading concatenates the
slabs back in shard order, which restores the original arrays
bit-for-bit.  Version-1 checkpoints (a single ``state.npz``) are still
loaded transparently as the one-shard special case.

Durability design, in order of defence:

* **Atomic writes** -- every file goes through
  :func:`repro.core.persistence.atomic_write_bytes` (write temp, fsync,
  ``os.replace``), so a crash mid-save leaves the previous checkpoint
  intact.
* **Manifest-last commit** -- ``state.npz`` is written before
  ``manifest.json``; a directory is a checkpoint only once its manifest
  exists, so a partially written directory is detected, not half-read.
* **Content checksums** -- the manifest records the SHA-256 of
  ``state.npz``; bit rot and truncation surface as
  :class:`CheckpointCorruptionError`, never as a NumPy stack trace.
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
import io
import json
import time
import zipfile
from dataclasses import asdict
from datetime import date
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, TypeVar, Union

import numpy as np

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.persistence import atomic_write_bytes, atomic_write_json, file_sha256
from repro.core.streaming import StreamingDetector, StreamState
from repro.obs import get_telemetry

__all__ = [
    "CHECKPOINT_SCHEMA",
    "CHECKPOINT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointError",
    "CheckpointMismatchError",
    "CheckpointNotFoundError",
    "GROUP_STATE_FILE",
    "LoadedCheckpoint",
    "STATE_FILE",
    "config_digest",
    "load_checkpoint",
    "resume_streaming",
    "save_checkpoint",
    "shard_state_file",
]

CHECKPOINT_SCHEMA = "acobe.stream_checkpoint"
CHECKPOINT_VERSION = 2

MANIFEST_FILE = "manifest.json"
#: Legacy version-1 single-slab state file (still readable).
STATE_FILE = "state.npz"
#: Version-2 per-group rolling arrays (groups are global, never sharded).
GROUP_STATE_FILE = "state_groups.npz"


def shard_state_file(index: int) -> str:
    """The version-2 state file holding shard ``index``'s user arrays."""
    return f"state_shard_{index:03d}.npz"

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


def config_digest(config: ModelConfig) -> str:
    """A stable hex digest of a model configuration.

    Two models share a digest iff their *numerically relevant*
    configurations are equal; the digest is what ties a checkpoint to
    the model that produced it (weights are covered transitively --
    training is deterministic in the config, see
    :mod:`repro.nn.parallel`).

    ``n_shards`` is excluded because it provably does not change
    results (the staged pipeline is bit-identical at any shard count,
    see :mod:`repro.core.pipeline`), so a checkpoint written at one
    shard count resumes at any other -- and older checkpoints (written
    before the field existed) keep matching.
    ``n_jobs`` stays in the digest for compatibility with already
    written checkpoints (changing it would orphan them).  The
    autoencoder ``dtype`` stays in too: float32 and float64 runs are
    *not* numerically interchangeable.
    """
    doc = asdict(config)
    doc.pop("n_shards", None)
    canonical = json.dumps(doc, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _shard_state_bytes(state: StreamState, start: int, stop: int) -> bytes:
    """Serialize the per-user rolling arrays for users ``[start, stop)``.

    Every per-user array has the user axis first, so a basic slice
    selects the shard's rows without copying the rest.
    """
    arrays: Dict[str, np.ndarray] = {}
    for i, slab in enumerate(state.history):
        arrays[f"history_{i}"] = slab[start:stop]
    for i, (sigma, weight) in enumerate(state.sigma_buffer):
        arrays[f"sigma_{i}"] = sigma[start:stop]
        arrays[f"sigweight_{i}"] = weight[start:stop]
    return _npz_bytes(arrays)


def _group_state_bytes(state: StreamState) -> bytes:
    """Serialize the per-group rolling arrays (global, never sharded)."""
    arrays: Dict[str, np.ndarray] = {}
    for i, (sigma, weight) in enumerate(state.group_sigma_buffer):
        arrays[f"gsigma_{i}"] = sigma
        arrays[f"gweight_{i}"] = weight
    return _npz_bytes(arrays)


def _state_from_npz(path: Path, counts: Mapping[str, int]) -> StreamState:
    try:
        with np.load(path) as archive:
            history = [
                np.asarray(archive[f"history_{i}"], dtype=np.float64)
                for i in range(int(counts["history"]))
            ]
            sigma = [
                (
                    np.asarray(archive[f"sigma_{i}"], dtype=np.float64),
                    np.asarray(archive[f"sigweight_{i}"], dtype=np.float64),
                )
                for i in range(int(counts["sigma"]))
            ]
            group_sigma = [
                (
                    np.asarray(archive[f"gsigma_{i}"], dtype=np.float64),
                    np.asarray(archive[f"gweight_{i}"], dtype=np.float64),
                )
                for i in range(int(counts["group_sigma"]))
            ]
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError) as exc:
        raise CheckpointCorruptionError(
            f"unreadable checkpoint state {path}: {exc}"
        ) from exc
    return StreamState(history=history, sigma_buffer=sigma, group_sigma_buffer=group_sigma,
                       last_day=None)


def _state_from_shards(directory: Path, manifest: Mapping[str, Any]) -> StreamState:
    """Rebuild a full :class:`StreamState` from version-2 shard slabs.

    Shard slabs are concatenated along the user axis in shard-index
    order; because :func:`save_checkpoint` sliced them off the same
    arrays along a contiguous partition, the concatenation restores the
    originals bit-for-bit.
    """
    counts = manifest.get("counts", {})
    n_history = int(counts.get("history", 0))
    n_sigma = int(counts.get("sigma", 0))
    n_group = int(counts.get("group_sigma", 0))
    shards = sorted(manifest.get("shards", []), key=lambda entry: int(entry["index"]))
    if not shards:
        raise CheckpointCorruptionError(
            f"version-2 checkpoint at {directory} lists no shards in its manifest"
        )

    per_shard: list = []
    for entry in shards:
        path = directory / str(entry["file"])
        try:
            with np.load(path) as archive:
                history = [
                    np.asarray(archive[f"history_{i}"], dtype=np.float64)
                    for i in range(n_history)
                ]
                sigma = [
                    (
                        np.asarray(archive[f"sigma_{i}"], dtype=np.float64),
                        np.asarray(archive[f"sigweight_{i}"], dtype=np.float64),
                    )
                    for i in range(n_sigma)
                ]
        except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError) as exc:
            raise CheckpointCorruptionError(
                f"unreadable checkpoint shard {path}: {exc}"
            ) from exc
        per_shard.append((history, sigma))

    group_path = directory / str(manifest.get("group_file", GROUP_STATE_FILE))
    try:
        with np.load(group_path) as archive:
            group_sigma = [
                (
                    np.asarray(archive[f"gsigma_{i}"], dtype=np.float64),
                    np.asarray(archive[f"gweight_{i}"], dtype=np.float64),
                )
                for i in range(n_group)
            ]
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError) as exc:
        raise CheckpointCorruptionError(
            f"unreadable checkpoint group state {group_path}: {exc}"
        ) from exc

    def cat(pieces):
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces, axis=0)

    history = [cat([shard[0][i] for shard in per_shard]) for i in range(n_history)]
    sigma = [
        (
            cat([shard[1][i][0] for shard in per_shard]),
            cat([shard[1][i][1] for shard in per_shard]),
        )
        for i in range(n_sigma)
    ]
    return StreamState(history=history, sigma_buffer=sigma, group_sigma_buffer=group_sigma,
                       last_day=None)


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
) -> Path:
    """Atomically persist a stream's full rolling state.

    Safe to call after every observed day: each save replaces the
    previous checkpoint only at its final ``os.replace``, so the
    directory always holds one complete, committed checkpoint.

    Args:
        stream: the detector whose state to persist.
        directory: checkpoint directory (created if missing).
        retries: extra attempts per file on transient ``OSError``.
        backoff: initial retry delay in seconds (doubles per retry).
        extra_files: sidecar payloads a caller wants committed with the
            same durability guarantees (e.g. the ingest cursor).  Each
            filename must be a plain ``state*``-prefixed name; payloads
            are written atomically *before* the manifest, checksummed in
            it, and verified by :func:`load_checkpoint`.
        extra_manifest: additional top-level manifest entries (e.g. a
            dataset binding); keys must not collide with the core
            checkpoint fields.

    Returns:
        The checkpoint directory.
    """
    directory = Path(directory)
    extra_files = dict(extra_files or {})
    for filename in extra_files:
        if "/" in filename or "\\" in filename or not filename.startswith("state"):
            raise ValueError(
                f"extra checkpoint file {filename!r} must be a plain filename "
                "starting with 'state' (stale-file cleanup tracks that prefix)"
            )
        if filename in (STATE_FILE, GROUP_STATE_FILE, MANIFEST_FILE) or filename.startswith(
            "state_shard_"
        ):
            raise ValueError(f"extra checkpoint file {filename!r} collides with a core file")
    _CORE_MANIFEST_KEYS = {
        "schema", "version", "config_digest", "last_day", "users", "groups",
        "group_map", "on_bad_day", "shards", "group_file", "counts",
        "counters", "checksums",
    }
    for key in extra_manifest or {}:
        if key in _CORE_MANIFEST_KEYS:
            raise ValueError(f"extra_manifest key {key!r} collides with a core manifest field")
    telemetry = get_telemetry()
    with telemetry.span("checkpoint.save", directory=str(directory)) as span:
        state = stream.export_state()
        plan = stream.shard_plan

        checksums: Dict[str, str] = {}
        shard_table = []
        total_bytes = 0
        for shard in plan:
            filename = shard_state_file(shard.index)
            payload = _shard_state_bytes(state, shard.start, shard.stop)
            path = directory / filename
            _with_retries(
                lambda path=path, payload=payload: atomic_write_bytes(path, payload),
                f"writing {path}",
                retries,
                backoff,
            )
            checksums[filename] = hashlib.sha256(payload).hexdigest()
            shard_table.append(
                {"index": shard.index, "start": shard.start, "stop": shard.stop,
                 "file": filename}
            )
            total_bytes += len(payload)

        group_payload = _group_state_bytes(state)
        group_path = directory / GROUP_STATE_FILE
        _with_retries(
            lambda: atomic_write_bytes(group_path, group_payload),
            f"writing {group_path}",
            retries,
            backoff,
        )
        checksums[GROUP_STATE_FILE] = hashlib.sha256(group_payload).hexdigest()
        total_bytes += len(group_payload)

        for filename in sorted(extra_files):
            payload = extra_files[filename]
            path = directory / filename
            _with_retries(
                lambda path=path, payload=payload: atomic_write_bytes(path, payload),
                f"writing {path}",
                retries,
                backoff,
            )
            checksums[filename] = hashlib.sha256(payload).hexdigest()
            total_bytes += len(payload)

        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "config_digest": config_digest(stream.model.config),
            "last_day": state.last_day.isoformat() if state.last_day else None,
            "users": list(stream.users),
            "groups": list(stream.groups),
            "group_map": dict(stream.group_map),
            "on_bad_day": stream.on_bad_day,
            "shards": shard_table,
            "group_file": GROUP_STATE_FILE,
            "counts": {
                "history": len(state.history),
                "sigma": len(state.sigma_buffer),
                "group_sigma": len(state.group_sigma_buffer),
            },
            "counters": {
                "days_observed": state.days_observed,
                "days_quarantined": state.days_quarantined,
                "days_imputed": state.days_imputed,
                "values_imputed": state.values_imputed,
            },
            "checksums": checksums,
        }
        for key, value in (extra_manifest or {}).items():
            manifest[key] = value
        _with_retries(
            lambda: atomic_write_json(directory / MANIFEST_FILE, manifest),
            f"writing {directory / MANIFEST_FILE}",
            retries,
            backoff,
        )
        # Post-commit cleanup: drop state files the new manifest does not
        # reference (a legacy v1 state.npz, shard slabs beyond a now
        # smaller plan, or extra sidecars from a previous caller).  The
        # load path ignores them, but leaving them would let the fault
        # drills corrupt a file nobody reads.
        expected = set(checksums)
        for stale in directory.glob("state*"):
            if stale.name not in expected:
                stale.unlink(missing_ok=True)
        telemetry.counter("checkpoint.saves").inc()
        span.annotate(
            bytes=total_bytes,
            shards=len(plan),
            history_days=len(state.history),
            last_day=manifest["last_day"],
        )
    return directory


class LoadedCheckpoint:
    """A validated checkpoint: manifest fields + the restored state."""

    def __init__(self, manifest: Dict[str, Any], state: StreamState):
        self.manifest = manifest
        self.state = state

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


def load_checkpoint(
    directory: Union[str, Path],
    retries: int = 2,
    backoff: float = 0.05,
) -> LoadedCheckpoint:
    """Load and validate a checkpoint written by :func:`save_checkpoint`.

    Both layouts are supported: version 2 (per-shard user slabs plus a
    group slab) and the legacy version-1 single ``state.npz``, which
    loads as the one-shard special case.

    Raises:
        CheckpointNotFoundError: no committed manifest at ``directory``
            (including the partially-written case where only state
            files made it to disk).
        CheckpointCorruptionError: manifest unreadable, state file
            missing, checksum mismatch, or archive truncated/corrupt.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_FILE
    if not manifest_path.exists():
        detail = ""
        if any(directory.glob("state*.npz")):
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
    if int(manifest.get("version", 0)) > CHECKPOINT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint version {manifest.get('version')} is newer than "
            f"this build supports ({CHECKPOINT_VERSION}); upgrade before resuming"
        )

    version = int(manifest.get("version", 0))
    if version <= 1:
        expected_files = [STATE_FILE]
    else:
        expected_files = [str(s["file"]) for s in manifest.get("shards", [])]
        expected_files.append(str(manifest.get("group_file", GROUP_STATE_FILE)))
    # Verify every checksummed file, core and sidecar alike: the manifest
    # is the commit record, so anything it checksums must be present and
    # intact for the checkpoint to count as valid.
    checksums = manifest.get("checksums", {})
    extra_files = [name for name in sorted(checksums) if name not in expected_files]
    for filename in expected_files + extra_files:
        file_path = directory / filename
        if not file_path.exists():
            raise CheckpointCorruptionError(
                f"partially written checkpoint at {directory}: manifest present "
                f"but {filename} is missing"
            )
        expected = checksums.get(filename)
        actual = _with_retries(
            lambda file_path=file_path: file_sha256(file_path),
            f"hashing {file_path}",
            retries,
            backoff,
        )
        if expected != actual:
            raise CheckpointCorruptionError(
                f"checksum mismatch for {file_path}: manifest says {expected}, "
                f"file hashes to {actual} -- the checkpoint is corrupt "
                "(truncated write or bit rot)"
            )

    if version <= 1:
        state = _state_from_npz(directory / STATE_FILE, manifest.get("counts", {}))
    else:
        state = _state_from_shards(directory, manifest)
    last_day = manifest.get("last_day")
    state.last_day = date.fromisoformat(last_day) if last_day else None
    counters = manifest.get("counters", {})
    state.days_observed = int(counters.get("days_observed", 0))
    state.days_quarantined = int(counters.get("days_quarantined", 0))
    state.days_imputed = int(counters.get("days_imputed", 0))
    state.values_imputed = int(counters.get("values_imputed", 0))
    get_telemetry().counter("checkpoint.loads").inc()
    return LoadedCheckpoint(manifest, state)


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
    stopped: same users, groups, rolling buffers and day cursor, so the
    next :meth:`~StreamingDetector.observe_day` call scores the day
    after ``checkpoint.last_day`` bit-identically to a stream that
    never died.

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
    get_telemetry().counter("checkpoint.resumes").inc()
    return stream
