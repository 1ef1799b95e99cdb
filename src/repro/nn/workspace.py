"""Buffer arena for the nn kernels.

Mini-batch training spends its life in a loop whose array shapes repeat
batch after batch: activations ``(batch, units)``, gradients of the same
shapes, optimizer scratch of each parameter's shape.  Allocating fresh
arrays for every one of those intermediates would mean thousands of
short-lived allocations per epoch, most of them large enough that the
allocator hands back cold, unmapped pages.

:class:`Workspace` removes that churn.  It is a per-``(shape, dtype)``
scratch pool with *generation* semantics:

* :meth:`Workspace.reset` starts a new generation (one mini-batch step).
* :meth:`Workspace.acquire` hands out a buffer of the requested shape
  and dtype.  Within a generation every acquire returns a **distinct**
  buffer (so callers never alias each other); across generations the
  same buffers are recycled in acquisition order.

The first step of a training run allocates the full working set
(misses); every later step of the same batch shape runs at 100% hits
with **zero** array allocation.  Buffer contents are *not* cleared --
kernel call sites fully overwrite them through ``out=`` parameters.

The pool never hands the same buffer to two different call sites in one
generation, so the usual ufunc aliasing rules are all a kernel needs to
respect.

Telemetry is built in: :meth:`Workspace.stats` reports hits, misses,
live bytes and peak bytes, and :meth:`Workspace.publish` folds those
into a :mod:`repro.obs`-style counter interface without importing it
(this module sits *below* every other nn module -- see
``tools/check_layering.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

__all__ = ["Workspace", "WorkspaceStats"]


@dataclass(frozen=True)
class WorkspaceStats:
    """A point-in-time snapshot of one :class:`Workspace`'s behaviour."""

    hits: int
    misses: int
    live_bytes: int
    peak_bytes: int
    buffers: int
    generations: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Workspace:
    """A per-``(shape, dtype)`` scratch-buffer pool with generation reuse.

    Example:
        >>> ws = Workspace()
        >>> a = ws.acquire((2, 3))
        >>> b = ws.acquire((2, 3))      # distinct buffer, same generation
        >>> a is b
        False
        >>> ws.reset()                   # next mini-batch step
        >>> ws.acquire((2, 3)) is a      # recycled in acquisition order
        True
    """

    __slots__ = ("_pools", "_cursors", "_generation", "_hits", "_misses",
                 "_live_bytes", "_peak_bytes")

    def __init__(self) -> None:
        self._pools: Dict[Tuple[Tuple[int, ...], str], List[np.ndarray]] = {}
        self._cursors: Dict[Tuple[Tuple[int, ...], str], List[int]] = {}
        self._generation = 0
        self._hits = 0
        self._misses = 0
        self._live_bytes = 0
        self._peak_bytes = 0

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a new generation: every pooled buffer becomes reusable."""
        self._generation += 1

    def acquire(self, shape, dtype=np.float64) -> np.ndarray:
        """A scratch buffer of ``shape``/``dtype``, unique this generation.

        Contents are undefined (recycled or freshly ``np.empty``); the
        caller must fully overwrite them, which every ``out=`` kernel in
        the nn package does.
        """
        if not isinstance(shape, tuple):
            shape = (int(shape),) if np.isscalar(shape) else tuple(int(s) for s in shape)
        dt = np.dtype(dtype)
        key = (shape, dt.str)
        pool = self._pools.get(key)
        if pool is None:
            pool = self._pools[key] = []
            self._cursors[key] = [0, 0]  # [generation, handed_out]
        cursor = self._cursors[key]
        if cursor[0] != self._generation:
            cursor[0] = self._generation
            cursor[1] = 0
        index = cursor[1]
        cursor[1] = index + 1
        if index < len(pool):
            self._hits += 1
            return pool[index]
        self._misses += 1
        buffer = np.empty(shape, dtype=dt)
        pool.append(buffer)
        self._live_bytes += buffer.nbytes
        self._peak_bytes = max(self._peak_bytes, self._live_bytes)
        return buffer

    def clear(self) -> None:
        """Drop every pooled buffer (frees the memory, keeps counters)."""
        self._pools.clear()
        self._cursors.clear()
        self._live_bytes = 0

    # ------------------------------------------------------------------
    def stats(self) -> WorkspaceStats:
        """Hit/miss/byte counters accumulated since construction."""
        return WorkspaceStats(
            hits=self._hits,
            misses=self._misses,
            live_bytes=self._live_bytes,
            peak_bytes=self._peak_bytes,
            buffers=sum(len(pool) for pool in self._pools.values()),
            generations=self._generation,
        )

    def publish(self, telemetry, prefix: str = "nn.arena") -> None:
        """Fold the counters into a telemetry facade (duck-typed).

        ``telemetry`` only needs ``counter(name).inc(n)`` and
        ``gauge(name).set(v)`` -- the :class:`repro.obs.Telemetry`
        interface -- so this module never imports upward.
        """
        stats = self.stats()
        telemetry.counter(f"{prefix}.hits").inc(stats.hits)
        telemetry.counter(f"{prefix}.misses").inc(stats.misses)
        telemetry.gauge(f"{prefix}.peak_bytes").set(stats.peak_bytes)
        telemetry.gauge(f"{prefix}.buffers").set(stats.buffers)
