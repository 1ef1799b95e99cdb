"""Fault injection for durability tests and chaos benchmarks.

Three families of faults, mirroring the three ways a daily detection
service actually dies in the field:

* **Transient I/O failure** -- :func:`transient_io_errors` patches the
  low-level operations the persistence layer relies on (``os.replace``,
  ``os.fsync``, ``builtins.open``) to raise ``OSError`` for the first
  *n* matching calls, then recover.  This is the NFS blip / full-disk /
  busy-volume case the checkpoint retry loop exists for.
* **Corrupted artifacts** -- :func:`truncate_file` (partial write),
  :func:`flip_bit` (bit rot), and :func:`corrupt_checkpoint_state`
  (make a committed checkpoint fail its checksum) simulate what a crash
  or a decaying disk leaves behind.
* **Poisoned data** -- :func:`poison_slab` plants NaN/inf values at
  deterministic positions in a measurement slab, the malformed-feed
  case the ``on_bad_day`` degradation policies handle.

Everything here is dependency-free and deterministic (no wall clock, no
ambient randomness: positions come from a caller-provided seed), so
fault tests are as reproducible as the happy path.
"""

from __future__ import annotations

import builtins
import io
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "FaultInjectionError",
    "corrupt_checkpoint_state",
    "flip_bit",
    "poison_slab",
    "transient_io_errors",
    "truncate_file",
]


class FaultInjectionError(OSError):
    """The OSError subclass raised by injected I/O faults.

    A distinct type so a test can tell an injected failure from a real
    one, while production retry logic (which catches ``OSError``) treats
    it exactly like the transient errors it simulates.
    """


# ---------------------------------------------------------------------------
# Transient I/O failure
# ---------------------------------------------------------------------------

# Each target patches every module-level alias of the operation:
# pathlib reaches open() through ``io.open``, user code through
# ``builtins.open`` -- both must see the fault.
_PATCHABLE = {
    "replace": ((os, "replace"),),
    "fsync": ((os, "fsync"),),
    "open": ((builtins, "open"), (io, "open")),
}


@contextmanager
def transient_io_errors(
    times: int,
    targets: Sequence[str] = ("replace",),
    path_substring: Optional[str] = None,
    message: str = "injected transient I/O failure",
) -> Iterator[dict]:
    """Fail the first ``times`` matching I/O calls, then behave normally.

    Args:
        times: how many matching calls raise before recovery (shared
            budget across all targets).
        targets: which operations to sabotage -- any of ``"replace"``
            (``os.replace``), ``"fsync"`` (``os.fsync``), ``"open"``
            (``builtins.open``, write modes only).
        path_substring: only calls whose path argument contains this
            substring are candidates (None = every call).
        message: text carried by the raised :class:`FaultInjectionError`.

    Yields:
        A stats dict; ``stats["injected"]`` counts failures actually
        raised, so tests can assert the fault fired.

    Example::

        with transient_io_errors(2, path_substring="manifest") as stats:
            save_checkpoint(stream, directory, retries=3)
        assert stats["injected"] == 2   # retried through both failures
    """
    unknown = set(targets) - set(_PATCHABLE)
    if unknown:
        raise ValueError(f"unknown fault targets {sorted(unknown)}; expected {sorted(_PATCHABLE)}")
    stats = {"injected": 0, "remaining": times}

    def any_path_matches(values) -> bool:
        if path_substring is None:
            return True
        for value in values:
            try:
                if path_substring in os.fspath(value):
                    return True
            except TypeError:
                continue  # e.g. os.fsync(fd): no path to match on
        return False

    patched = []  # (module, attr, original)

    def make_wrapper(name: str, original):
        def wrapper(*args, **kwargs):
            if name == "open":
                mode = kwargs.get("mode", args[1] if len(args) > 1 else "r")
                writing = any(flag in str(mode) for flag in ("w", "x", "a", "+"))
                should_fail = writing and any_path_matches(args[:1])
            else:
                # os.replace(src, dst) & co: a match on any path argument
                # counts, so both halves of a rename are sabotage-able.
                should_fail = any_path_matches(args)
            if should_fail and stats["remaining"] > 0:
                stats["remaining"] -= 1
                stats["injected"] += 1
                raise FaultInjectionError(f"{message} ({name} #{stats['injected']})")
            return original(*args, **kwargs)

        return wrapper

    try:
        for name in targets:
            for module, attr in _PATCHABLE[name]:
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr, make_wrapper(name, original))
        yield stats
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# Corrupted artifacts
# ---------------------------------------------------------------------------


def truncate_file(path: Union[str, Path], drop_bytes: int = 16) -> Path:
    """Chop ``drop_bytes`` off the end of a file (a torn/partial write).

    Raises:
        ValueError: when the file is not strictly larger than the cut.
    """
    path = Path(path)
    size = path.stat().st_size
    if size <= drop_bytes:
        raise ValueError(f"{path} has only {size} bytes; cannot drop {drop_bytes}")
    with open(path, "r+b") as handle:
        handle.truncate(size - drop_bytes)
    return path


def flip_bit(path: Union[str, Path], offset: Optional[int] = None, bit: int = 0) -> Path:
    """Flip one bit in a file in place (bit rot).

    Args:
        offset: byte position; defaults to the middle of the file so
            headers usually survive and the damage hits payload bytes.
        bit: which bit (0-7) of that byte to flip.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if not data:
        raise ValueError(f"cannot flip a bit in empty file {path}")
    position = len(data) // 2 if offset is None else offset
    data[position] ^= 1 << bit
    path.write_bytes(bytes(data))
    return path


def corrupt_checkpoint_state(directory: Union[str, Path]) -> Path:
    """Bit-flip a committed checkpoint's detector state.

    Flips the middle byte of the first ``state_seg_*.bin`` segment in
    sorted order -- the oldest, which in a fresh checkpoint directory is
    the base segment holding the buffered days.  The manifest's
    recorded checksum is left untouched, so the next
    :func:`repro.core.checkpoint.load_checkpoint` must fail with a
    checksum mismatch -- this is the canonical corruption-detection
    probe.
    """
    state_files = sorted(Path(directory).glob("state_seg_*.bin"))
    if not state_files:
        raise FileNotFoundError(f"no checkpoint segments in {directory}")
    return flip_bit(state_files[0])


# ---------------------------------------------------------------------------
# Poisoned data
# ---------------------------------------------------------------------------


def poison_slab(
    slab: np.ndarray,
    n_values: int = 1,
    value: float = np.nan,
    seed: int = 0,
    positions: Optional[Sequence[Tuple[int, ...]]] = None,
) -> np.ndarray:
    """A copy of ``slab`` with ``value`` planted at deterministic cells.

    Args:
        slab: any float array (streaming uses ``(n_users, F, T)``).
        n_values: how many cells to poison (ignored when ``positions``
            is given).
        value: the poison (NaN by default; use ``np.inf`` for the
            overflow flavour).
        seed: seeds the position choice, so the same call poisons the
            same cells every run.
        positions: explicit index tuples to poison instead of random
            ones.
    """
    poisoned = np.array(slab, dtype=np.float64, copy=True)
    if positions is None:
        rng = np.random.default_rng(seed)
        flat = rng.choice(poisoned.size, size=min(n_values, poisoned.size), replace=False)
        positions = [np.unravel_index(int(i), poisoned.shape) for i in flat]
    for position in positions:
        poisoned[tuple(position)] = value
    return poisoned
