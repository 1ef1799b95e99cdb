"""Durable checkpoints for :class:`~repro.core.streaming.StreamingDetector`.

ACOBE's streaming mode is a long-lived daily service; its rolling
per-user/per-group buffers are the only state that cannot be recomputed
from the (immutable) trained model.  This module persists that state so
a crash, OOM, or host migration costs nothing: **kill after day k,
resume, and days k+1..n produce scores bit-identical to an
uninterrupted run** (pinned by ``tests/core/test_checkpoint_property.py``
and the golden-file integration test).

Layout of a checkpoint directory (version 4)::

    <directory>/
      state_users.npz      # per-user rolling arrays
      state_groups.npz     # per-group rolling arrays
      state_<sidecar>      # caller sidecars (e.g. the ingest cursor)
      manifest.json        # schema + version, day cursor, users/groups,
                           # user/group state files, sidecar table,
                           # config digest, degradation counters,
                           # per-file checksums

Each ``.npz`` holds one stacked member per buffer kind -- ``history``,
``sigma`` and ``sigweight`` in the user file, ``gsigma`` and
``gweight`` in the group file -- with the buffered days on the leading
axis (an empty buffer is a zero-length leading axis).  The manifest
names the two files under ``user_file`` and ``group_file``.
Checkpoints of an older layout (version 1, 2 or 3) are refused with
:class:`CheckpointMismatchError`: start a fresh stream.

Durability design, in order of defence:

* **Atomic writes** -- every file goes through
  :func:`repro.core.persistence.atomic_write_bytes` (write temp, fsync,
  ``os.replace``).
* **Manifest-last commit** -- the state files are written before
  ``manifest.json``, and a save never overwrites a file the committed
  manifest lists: a name it lists is written to its second slot
  (``state_groups.b.npz``) instead.  A crash before the new manifest
  lands therefore leaves the previous checkpoint complete; files the
  new manifest does not list are removed only after it commits.
* **Kept files** -- a caller can carry immutable sidecars of the
  committed checkpoint into the next one without rewriting them
  (``keep_files``); the ingest layer's seen-set segments use this.
* **Content checksums** -- the manifest records the SHA-256 of every
  file; :func:`load_checkpoint` verifies each payload once and parses
  exactly the verified bytes, so bit rot and truncation surface as
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
from dataclasses import asdict, replace
from datetime import date
from pathlib import Path
from typing import Any, Callable, Container, Dict, Mapping, Optional, Sequence, TypeVar, Union

import numpy as np

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.persistence import atomic_write_bytes, file_sha256
from repro.core.streaming import StreamingDetector, StreamState
from repro.nn.autoencoder import RETIRED_FIELDS
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
    "USER_STATE_FILE",
    "committed_manifest",
    "config_digest",
    "load_checkpoint",
    "resume_streaming",
    "save_checkpoint",
    "sidecar_intact",
]

CHECKPOINT_SCHEMA = "acobe.stream_checkpoint"
CHECKPOINT_VERSION = 4

MANIFEST_FILE = "manifest.json"
#: Per-user rolling arrays.
USER_STATE_FILE = "state_users.npz"
#: Per-group rolling arrays.
GROUP_STATE_FILE = "state_groups.npz"

#: Stacked buffer kinds in the user file and in the group file.
_USER_KINDS = ("history", "sigma", "sigweight")
_GROUP_KINDS = ("gsigma", "gweight")

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

    ``n_jobs`` is numerically irrelevant; the digest records it as 1,
    the default when checkpoints were first written, so those resume
    under any worker count.  The autoencoder ``dtype`` stays in:
    float32 and float64 runs are *not* numerically interchangeable.
    The retired autoencoder fields are hashed at their fixed values
    (:data:`repro.nn.autoencoder.RETIRED_FIELDS`), as when they were
    settable, so existing digests stay valid.
    """
    fields = asdict(replace(config, n_jobs=1))
    fields["autoencoder"].update(RETIRED_FIELDS)
    canonical = json.dumps(fields, sort_keys=True, default=list)
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


def committed_manifest(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The manifest committed in ``directory``, or None if absent or unreadable.

    Saves consult it to learn which files they must not overwrite and
    which files they may carry; an unreadable manifest carries nothing.
    """
    try:
        manifest = json.loads((Path(directory) / MANIFEST_FILE).read_text())
    except (OSError, ValueError):
        return None
    return manifest if isinstance(manifest, dict) else None


def sidecar_intact(directory: Union[str, Path], manifest: Mapping[str, Any], name: str) -> bool:
    """Whether sidecar ``name`` of ``manifest`` still hashes to its checksum."""
    physical = manifest.get("files", {}).get(name)
    expected = manifest.get("checksums", {}).get(physical)
    if expected is None:
        return False
    try:
        return file_sha256(Path(directory) / physical) == expected
    except OSError:
        return False


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


def _npz_bytes(arrays: Dict[str, np.ndarray]) -> bytes:
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _stacked(arrays: Sequence[np.ndarray], n_rows: int) -> np.ndarray:
    """The buffered days stacked on a leading day axis (``(0, n_rows)`` when empty)."""
    if not arrays:
        return np.zeros((0, n_rows))
    return np.stack(arrays)


def _user_state_bytes(state: StreamState, n_users: int) -> bytes:
    """Serialize the per-user rolling arrays."""
    return _npz_bytes({
        "history": _stacked(state.history, n_users),
        "sigma": _stacked([s for s, _ in state.sigma_buffer], n_users),
        "sigweight": _stacked([w for _, w in state.sigma_buffer], n_users),
    })


def _group_state_bytes(state: StreamState, n_groups: int) -> bytes:
    """Serialize the per-group rolling arrays."""
    return _npz_bytes({
        "gsigma": _stacked([s for s, _ in state.group_sigma_buffer], n_groups),
        "gweight": _stacked([w for _, w in state.group_sigma_buffer], n_groups),
    })


def _read_npz(payload: bytes, name: str, kinds: Sequence[str]) -> Dict[str, np.ndarray]:
    try:
        with np.load(io.BytesIO(payload)) as archive:
            return {kind: archive[kind] for kind in kinds}
    except (zipfile.BadZipFile, EOFError, KeyError, ValueError, OSError) as exc:
        raise CheckpointCorruptionError(f"unreadable checkpoint state {name}: {exc}") from exc


def _state_from_payloads(
    directory: Path, manifest: Mapping[str, Any], payloads: Mapping[str, bytes]
) -> StreamState:
    """Rebuild a :class:`StreamState` from the verified user and group payloads."""
    user_file = manifest.get("user_file", USER_STATE_FILE)
    user = _read_npz(payloads[user_file], user_file, _USER_KINDS)
    group_file = manifest.get("group_file", GROUP_STATE_FILE)
    group = _read_npz(payloads[group_file], group_file, _GROUP_KINDS)

    counts = manifest.get("counts", {})
    found = {
        "history": len(user["history"]),
        "sigma": len(user["sigma"]),
        "group_sigma": len(group["gsigma"]),
    }
    if found != {key: int(counts.get(key, -1)) for key in found}:
        raise CheckpointCorruptionError(
            f"checkpoint at {directory} holds buffers of lengths {found}, "
            f"but its manifest records {counts}"
        )
    return StreamState(
        history=list(user["history"]),
        sigma_buffer=list(zip(user["sigma"], user["sigweight"])),
        group_sigma_buffer=list(zip(group["gsigma"], group["gweight"])),
        last_day=None,
    )


def _check_sidecar_name(filename: str) -> None:
    if "/" in filename or "\\" in filename or not filename.startswith("state_"):
        raise ValueError(
            f"checkpoint sidecar {filename!r} must be a plain filename starting "
            "with 'state_' (stale-file cleanup tracks that prefix)"
        )
    if filename.startswith(("state_users", "state_groups")):
        raise ValueError(f"checkpoint sidecar {filename!r} collides with a core file")


_CORE_MANIFEST_KEYS = frozenset({
    "schema", "version", "config_digest", "last_day", "users", "groups",
    "group_map", "on_bad_day", "user_file", "group_file", "counts",
    "counters", "files", "checksums",
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
    keep_files: Sequence[str] = (),
) -> Path:
    """Atomically persist a stream's full rolling state.

    Safe to call after every observed day: the new manifest is the
    commit point, and no file the previous manifest lists is
    overwritten, so the directory always holds one complete, committed
    checkpoint.

    Args:
        stream: the detector whose state to persist.
        directory: checkpoint directory (created if missing).
        retries: extra attempts per file on transient ``OSError``.
        backoff: initial retry delay in seconds (doubles per retry).
        extra_files: sidecar payloads a caller wants committed with the
            same durability guarantees (e.g. the ingest cursor), keyed
            by a plain ``state_``-prefixed name.  Each is written before
            the manifest, checksummed in it, verified by
            :func:`load_checkpoint`, and read back with
            :meth:`LoadedCheckpoint.payload`.
        extra_manifest: additional top-level manifest entries (e.g. a
            dataset binding); keys must not collide with the core
            checkpoint fields.
        keep_files: sidecar names of the *committed* checkpoint to carry
            into the new one unchanged: listed with their recorded
            checksums, not rewritten.  The caller vouches that they are
            intact (see :func:`sidecar_intact`).

    Returns:
        The checkpoint directory.
    """
    directory = Path(directory)
    extra_files = dict(extra_files or {})
    for filename in [*extra_files, *keep_files]:
        _check_sidecar_name(filename)
    if set(extra_files) & set(keep_files):
        raise ValueError(
            f"sidecars {sorted(set(extra_files) & set(keep_files))} are both "
            "written and kept"
        )
    for key in extra_manifest or {}:
        if key in _CORE_MANIFEST_KEYS:
            raise ValueError(f"extra_manifest key {key!r} collides with a core manifest field")
    committed = committed_manifest(directory) or {}
    listed: Dict[str, str] = committed.get("checksums", {})
    files: Dict[str, str] = {}
    checksums: Dict[str, str] = {}
    for name in keep_files:
        physical = committed.get("files", {}).get(name)
        if physical not in listed:
            raise ValueError(f"cannot keep {name!r}: the committed checkpoint at {directory} "
                             "does not list it")
        files[name] = physical
        checksums[physical] = listed[physical]

    telemetry = get_telemetry()
    with telemetry.span("checkpoint.save", directory=str(directory)) as span:
        state = stream.export_state()
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

        user_file = write(USER_STATE_FILE, _user_state_bytes(state, len(stream.users)))
        group_file = write(GROUP_STATE_FILE, _group_state_bytes(state, len(stream.groups)))
        for name in sorted(extra_files):
            files[name] = write(name, extra_files[name])

        manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "version": CHECKPOINT_VERSION,
            "config_digest": config_digest(stream.model.config),
            "last_day": state.last_day.isoformat() if state.last_day else None,
            "users": list(stream.users),
            "groups": list(stream.groups),
            "group_map": dict(stream.group_map),
            "on_bad_day": stream.on_bad_day,
            "user_file": user_file,
            "group_file": group_file,
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
        # list (the previous checkpoint's slots, sidecars nobody carried,
        # orphans of a save that crashed before its manifest).  The load
        # path ignores them, but leaving them would let the fault drills
        # corrupt a file nobody reads.
        for stale in directory.glob("state*"):
            if stale.name not in checksums:
                stale.unlink(missing_ok=True)
        telemetry.counter("checkpoint.saves").inc()
        span.annotate(
            bytes=total_bytes,
            history_days=len(state.history),
            last_day=manifest["last_day"],
        )
    return directory


class LoadedCheckpoint:
    """A validated checkpoint: manifest fields, the restored state, and
    the verified bytes of every file the manifest lists."""

    def __init__(self, manifest: Dict[str, Any], state: StreamState,
                 payloads: Dict[str, bytes]):
        self.manifest = manifest
        self.state = state
        self.payloads = payloads

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
            missing, checksum mismatch, or archive truncated/corrupt.
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

    # Verify every listed file, core and sidecar alike: the manifest is
    # the commit record, so anything it lists must be present and intact
    # for the checkpoint to count as valid.
    checksums = manifest.get("checksums", {})
    listed = [
        str(manifest.get("user_file", USER_STATE_FILE)),
        str(manifest.get("group_file", GROUP_STATE_FILE)),
    ]
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

    state = _state_from_payloads(directory, manifest, payloads)
    last_day = manifest.get("last_day")
    state.last_day = date.fromisoformat(last_day) if last_day else None
    counters = manifest.get("counters", {})
    state.days_observed = int(counters.get("days_observed", 0))
    state.days_quarantined = int(counters.get("days_quarantined", 0))
    state.days_imputed = int(counters.get("days_imputed", 0))
    state.values_imputed = int(counters.get("values_imputed", 0))
    get_telemetry().counter("checkpoint.loads").inc()
    return LoadedCheckpoint(manifest, state, payloads)


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
