"""Row sources: lazy 2-D training data for the nn layer.

The training loop in :mod:`repro.nn.network` and the scoring path in
:mod:`repro.nn.autoencoder` accept either a dense ``(n, dim)`` array or
a **row source** -- any object that can hand out arbitrary row subsets
on demand, so the full matrix never has to exist in memory (e.g.
:class:`repro.core.representation.MatrixView`, whose rows are windows
into a shared value array).

The protocol is duck-typed and deliberately tiny:

* ``len(source)`` -- number of sample rows.
* ``source.dim`` -- row width (the network's input dimension).
* ``source.rows(indices)`` -- gather the given row indices as a dense
  ``(len(indices), dim)`` float array; called once per mini-batch.

Because a source may assemble rows from arbitrary backing storage, the
gather is inherently allocating; the training loop therefore keeps
calling ``rows`` as-is while routing everything downstream of the
gather through the buffer arena (:mod:`repro.nn.workspace`).  Sources
backed by one dense array can additionally accept
``rows(indices, out=...)`` to fill a caller-owned buffer (as
:class:`ArrayRowSource` does), which composes with the arena without
being required by the protocol.

Shuffling, validation splits and early stopping all work unchanged:
the training loop permutes *indices* and asks the source for each
mini-batch, which is bit-identical to permuting a dense array and
slicing it (pinned by ``tests/core/test_representation.py``).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = ["ArrayRowSource", "input_dim_of", "is_row_source", "n_samples_of"]


def is_row_source(data) -> bool:
    """Whether ``data`` implements the row-source protocol.

    Dense arrays (and anything array-like without the protocol
    attributes) take the eager code paths instead.
    """
    return (
        not isinstance(data, np.ndarray)
        and hasattr(data, "rows")
        and hasattr(data, "dim")
        and hasattr(data, "__len__")
    )


def input_dim_of(data) -> int:
    """Row width of a row source or 2-D array."""
    if is_row_source(data):
        return int(data.dim)
    array = np.asarray(data)
    if array.ndim != 2:
        raise ValueError(f"expected a 2-D array or row source, got shape {array.shape}")
    return int(array.shape[1])


def n_samples_of(data) -> int:
    """Sample count of a row source or array."""
    if is_row_source(data):
        return len(data)
    return int(np.asarray(data).shape[0])


class ArrayRowSource:
    """The trivial row source: an in-memory 2-D array.

    Mostly useful in tests and as the reference implementation of the
    protocol; passing the bare array is equivalent (and faster).
    """

    def __init__(self, array: np.ndarray):
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {array.shape}")
        self._array = array

    def __len__(self) -> int:
        return self._array.shape[0]

    @property
    def dim(self) -> int:
        return self._array.shape[1]

    def rows(self, indices: Sequence[int], out: np.ndarray = None) -> np.ndarray:
        indices = np.asarray(indices, dtype=np.intp)
        if out is not None:
            # np.take(..., out=) is bit-identical to fancy indexing.
            np.take(self._array, indices, axis=0, out=out)
            return out
        return self._array[indices]

    def batches(self, batch_size: int = 1024) -> Iterator[np.ndarray]:
        n = len(self)
        for start in range(0, n, batch_size):
            yield self._array[start : min(start + batch_size, n)]
