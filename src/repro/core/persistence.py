"""Save/load trained compound-behaviour models + shared atomic-write helpers.

A fitted :class:`~repro.core.detector.CompoundBehaviorModel` is two
things: a :class:`~repro.core.detector.ModelConfig` and one trained
autoencoder per behavioural aspect.  ``save_model`` writes both to a
directory (``config.json`` + ``ae_<aspect>.npz``); ``load_model``
restores them.  The behavioural *representation* is data, not model
state -- after loading, call
:func:`attach_representation` with the measurement cube to score against
(the deviation math is deterministic, so this is cheap and leaks
nothing).

This module also owns the durable-write primitives shared by model
persistence and the streaming checkpoints
(:mod:`repro.core.checkpoint`):

* :func:`atomic_write_bytes` / :func:`atomic_write_text` /
  :func:`atomic_write_json` -- write-temp-then-``os.replace`` in the
  destination directory, with an ``fsync`` before the rename, so a
  crash mid-write never leaves a half-written file under the final
  name;
* :func:`file_sha256` -- content checksums for corruption detection.

Failures that reach the caller are *typed*: a truncated archive or
undecodable JSON raises :class:`PersistenceError` naming the offending
file, never a bare ``zipfile``/``numpy`` stack trace.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from dataclasses import asdict
from datetime import date
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.features.measurements import MeasurementCube
from repro.nn.autoencoder import RETIRED_FIELDS, Autoencoder, AutoencoderConfig
from repro.nn.serialization import load_network, save_network

__all__ = [
    "PersistenceError",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_text",
    "attach_representation",
    "file_sha256",
    "load_model",
    "save_model",
]

_CONFIG_FILE = "config.json"


class PersistenceError(RuntimeError):
    """A saved artifact is unreadable: truncated, corrupt, or malformed.

    Raised instead of letting ``zipfile``/``json``/``numpy`` internals
    leak, so operational callers can catch one exception type and point
    at the offending file.
    """


# ---------------------------------------------------------------------------
# Atomic-write primitives (shared with repro.core.checkpoint)
# ---------------------------------------------------------------------------


def atomic_write_bytes(path: Union[str, Path], data: bytes) -> Path:
    """Durably write ``data`` to ``path``: temp file, fsync, rename.

    The temporary file lives in the destination directory so the final
    ``os.replace`` is atomic on POSIX; readers either see the old
    content or the complete new content, never a prefix.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: Union[str, Path], text: str) -> Path:
    """Atomic UTF-8 text write (see :func:`atomic_write_bytes`)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: Union[str, Path], document: Mapping[str, Any]) -> Path:
    """Atomic write of ``document`` as indented, key-sorted JSON."""
    return atomic_write_text(path, json.dumps(document, indent=2, sort_keys=True) + "\n")


def file_sha256(path: Union[str, Path]) -> str:
    """Hex SHA-256 of a file's content (streamed, so large files are fine)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# Model persistence
# ---------------------------------------------------------------------------


def save_model(model: CompoundBehaviorModel, directory: Union[str, Path]) -> Path:
    """Persist a fitted model's config and autoencoder weights.

    Each file is written atomically; ``config.json`` is written last so
    a directory with a readable config is guaranteed to have every
    weight archive it references.

    Returns:
        The directory written.
    """
    if not model.fitted:
        raise ValueError("cannot save an unfitted model")
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)

    payload = {
        "config": asdict(model.config),
        "aspects": {},
    }
    for aspect in model.aspect_names:
        autoencoder = model.autoencoder(aspect)
        payload["aspects"][aspect] = {"input_dim": autoencoder.input_dim}
        buffer = io.BytesIO()
        save_network(autoencoder.network, buffer)
        atomic_write_bytes(directory / f"ae_{aspect}.npz", buffer.getvalue())
    atomic_write_text(directory / _CONFIG_FILE, json.dumps(payload, indent=2))
    return directory


def load_model(directory: Union[str, Path]) -> CompoundBehaviorModel:
    """Load a model saved by :func:`save_model`.

    The returned model has its autoencoders restored but no behavioural
    representation yet; call :func:`attach_representation` before
    scoring.  Models saved by older builds load too: the config keys
    those builds had and this one removed are dropped, the retired
    autoencoder fields (:data:`repro.nn.autoencoder.RETIRED_FIELDS`)
    only at the values this build trains with.

    Raises:
        FileNotFoundError: when ``directory`` has no ``config.json``.
        PersistenceError: when ``config.json`` or a weight archive is
            truncated, corrupt, or references a missing file, or when
            the config sets a retired field to another value.
    """
    directory = Path(directory)
    config_path = directory / _CONFIG_FILE
    if not config_path.exists():
        raise FileNotFoundError(f"no saved model at {directory}")
    try:
        payload = json.loads(config_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise PersistenceError(f"corrupt model config {config_path}: {exc}") from exc

    try:
        config_dict = dict(payload["config"])
        ae_dict = dict(config_dict.pop("autoencoder"))
        ae_dict["encoder_units"] = tuple(ae_dict["encoder_units"])
        for key, value in RETIRED_FIELDS.items():
            saved = ae_dict.pop(key, value)
            if saved != value:
                raise PersistenceError(
                    f"model config {config_path} sets autoencoder {key!r} to "
                    f"{saved!r}; this build trains only with {value!r}"
                )
        # Knobs that older builds saved and this one removed; none ever
        # changed results (user sharding, training workers, the nn arena
        # switch).
        config_dict.pop("n_shards", None)
        config_dict.pop("n_jobs", None)
        ae_dict.pop("arena", None)
        config = ModelConfig(autoencoder=AutoencoderConfig(**ae_dict), **config_dict)
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(f"malformed model config {config_path}: {exc}") from exc

    model = CompoundBehaviorModel(config)
    restored = {}
    for aspect, meta in payload["aspects"].items():
        weights_path = directory / f"ae_{aspect}.npz"
        if not weights_path.exists():
            raise PersistenceError(
                f"partially written model at {directory}: config.json names aspect "
                f"{aspect!r} but {weights_path.name} is missing"
            )
        autoencoder = Autoencoder(input_dim=int(meta["input_dim"]), config=config.autoencoder)
        try:
            load_network(autoencoder.network, weights_path)
        except (zipfile.BadZipFile, OSError, EOFError, KeyError, ValueError) as exc:
            raise PersistenceError(
                f"corrupt or truncated weight archive {weights_path}: {exc}"
            ) from exc
        autoencoder._fitted = True
        restored[aspect] = autoencoder
    model._autoencoders = restored
    return model


def attach_representation(
    model: CompoundBehaviorModel,
    cube: MeasurementCube,
    group_map: Optional[Mapping[str, str]],
    train_days: Sequence[date],
) -> CompoundBehaviorModel:
    """Rebuild the behavioural representation for a loaded model.

    Recomputes deviations (or normalization stats from ``train_days``)
    and the shared value pipeline over ``cube`` exactly as
    :meth:`CompoundBehaviorModel.fit` would, validates that every
    restored autoencoder's input width matches the cube's aspects, and
    marks the model fitted.

    Raises:
        ValueError: when the cube's aspects or dimensions do not match
            the autoencoders the model was trained with.
    """
    model._prepare_representation(cube, group_map, train_days)

    expected = set(a.name for a in model._aspects)
    restored = set(model._autoencoders)
    if expected != restored:
        raise ValueError(
            f"aspect mismatch: cube has {sorted(expected)}, saved model has {sorted(restored)}"
        )
    anchors = model.valid_anchor_days(list(cube.days))
    if not anchors:
        raise ValueError("cube has no day with enough history for this model's windows")
    probe = anchors[-1:]
    for aspect in model._aspects:
        view = model._view_for(aspect, probe)
        autoencoder = model._autoencoders[aspect.name]
        if view.dim != autoencoder.input_dim:
            raise ValueError(
                f"dimension mismatch for aspect {aspect.name!r}: "
                f"cube produces {view.dim}, autoencoder expects {autoencoder.input_dim}"
            )
    model._fitted = True
    return model
