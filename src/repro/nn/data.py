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
gather through the buffer arena (:mod:`repro.nn.workspace`).  The
protocol's reference implementation over a plain array lives with the
tests (``tests/nn/row_source.py``).

Shuffling, validation splits and early stopping all work unchanged:
the training loop permutes *indices* and asks the source for each
mini-batch, which is bit-identical to permuting a dense array and
slicing it (pinned by ``tests/core/test_representation.py``).
"""

from __future__ import annotations

import numpy as np

__all__ = ["input_dim_of", "is_row_source", "n_samples_of"]


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
