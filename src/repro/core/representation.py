"""Unified representation pipeline: zero-copy compound-matrix views.

This layer owns the *values* of the compound behavioral deviation
matrices (Section IV-A) -- the weighted, [0, 1]-normalized individual and
group deviation blocks -- and exposes every anchored matrix as a window
into one shared, memory-proportional array instead of a materialized
``(users, anchors, F*T*D)`` tensor.

Why it exists: with ``matrix_days = D``, every deviation day appears in
up to ``D`` anchored matrices, so materializing all matrices amplifies
memory by ~``D``x (30x at paper settings).  The pipeline stores the
combined value array once -- shape ``(n_users, blocks*F, T, n_days)`` --
and a :class:`MatrixView` reads each anchored matrix through
``numpy.lib.stride_tricks.sliding_window_view``, flattening only the
rows a caller actually touches (a mini-batch, one anchor's slab).

Layering::

    MeasurementCube --> DeviationCube --> RepresentationPipeline --> MatrixView
                        (repro.core.deviation)   (this module)        |
                                                                      +-- batches()/rows(): nn training + scoring
                                                                      +-- materialize(): CompoundMatrices compat

Batch (:mod:`repro.core.detector`), streaming
(:mod:`repro.core.streaming` via :func:`compound_values` /
:func:`aspect_rows`) and evaluation all consume this one layer, so the
deviation->matrix math exists exactly once.  The shared group-average
helper lives in :func:`repro.core.deviation.group_means` (re-exported
here) because the deviation layer sits below this one.

A :class:`MatrixView` is also a *row source* for the training loop in
:mod:`repro.nn.network` (see :mod:`repro.nn.data`): ``len(view)`` pooled
sample rows, ``view.dim`` columns, ``view.rows(indices)`` gathering any
subset as a dense batch.  Autoencoders therefore train and score over
millions of matrix rows without the full tensor ever existing.
"""

from __future__ import annotations

from datetime import date
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core.deviation import DeviationCube, group_means, normalize_to_unit
from repro.obs import get_telemetry

__all__ = [
    "MatrixView",
    "RepresentationPipeline",
    "aspect_rows",
    "compound_values",
    "group_means",
]


def compound_values(
    sigma: np.ndarray,
    weights: np.ndarray,
    group_sigma: np.ndarray,
    group_weights: np.ndarray,
    group_of_user: Sequence[int],
    *,
    include_group: bool,
    apply_weights: bool,
    delta: float,
) -> np.ndarray:
    """Combine deviations into the normalized compound value array.

    Applies the Eq. (1) weights, broadcasts each user's group block,
    stacks ``[individual; group]`` along the feature axis and maps the
    result from [-Delta, Delta] to [0, 1].  This is the one shared
    definition of the matrix *values*; batch and streaming paths differ
    only in where the sigma/weight arrays come from.

    Args:
        sigma / weights: per-user arrays ``(n_users, F, T, ...)``.
        group_sigma / group_weights: per-group arrays ``(n_groups, F, T, ...)``.
        group_of_user: group index of each user.

    Returns:
        Array ``(n_users, blocks*F, T, ...)`` in [0, 1], where blocks is
        2 with the group block and 1 without.
    """
    values = sigma * weights if apply_weights else sigma
    if include_group:
        g_values = group_sigma * group_weights if apply_weights else group_sigma
        g_values = g_values[np.asarray(group_of_user)]
        values = np.concatenate([values, g_values], axis=1)
    return normalize_to_unit(values, delta)


def aspect_rows(
    feature_indices: Sequence[int], n_features: int, include_group: bool
) -> List[int]:
    """Row indices of one aspect inside a compound value array.

    The individual block occupies rows ``[0, n_features)`` and the group
    block mirrors it at ``[n_features, 2*n_features)``, so an aspect's
    rows are its feature indices plus (with the group block) the same
    indices shifted by ``n_features``.
    """
    indices = list(feature_indices)
    if include_group:
        return indices + [n_features + i for i in indices]
    return indices


class MatrixView:
    """Zero-copy window over a pipeline's compound values.

    ``view[u, a]`` conceptually holds the flattened compound matrix of
    user ``u`` anchored at ``anchor_days[a]`` -- but nothing is stored
    per anchor: every matrix is read on demand out of the shared value
    array through a ``sliding_window_view``.  Flattened vectors are
    bit-identical to the materialized
    :func:`repro.core.matrix.build_compound_matrices` path (pinned by
    ``tests/core/test_representation.py``).

    The view is a *row source* over the pooled ``(user, anchor)`` grid in
    C order (user-major), matching
    :meth:`repro.core.matrix.CompoundMatrices.training_set`:

    * ``len(view)`` -- pooled sample count ``n_users * n_anchors``.
    * ``view.dim`` -- flattened width ``rows * T * matrix_days``.
    * ``view.rows(indices)`` -- any subset of pooled rows as a dense
      ``(len(indices), dim)`` batch.
    * ``view.batches(batch_size)`` -- sequential dense mini-batches.

    Pickling ships only the base value array (the compact form), never
    the expanded windows -- a view crosses process boundaries (e.g. to
    parallel training workers) at its memory-proportional size.
    """

    def __init__(
        self,
        values: np.ndarray,
        users: Sequence[str],
        anchor_days: Sequence[date],
        window_starts: Sequence[int],
        matrix_days: int,
        feature_names: Sequence[str],
        includes_group: bool,
    ):
        if values.ndim != 4:
            raise ValueError(f"values must be 4-D (U, rows, T, days), got {values.shape}")
        if matrix_days < 1 or matrix_days > values.shape[-1]:
            raise ValueError(
                f"matrix_days {matrix_days} not in [1, {values.shape[-1]}]"
            )
        self._values = values
        self.users = list(users)
        self.anchor_days = list(anchor_days)
        self._window_starts = np.asarray(window_starts, dtype=np.intp)
        self.matrix_days = matrix_days
        self.feature_names = list(feature_names)
        self.includes_group = includes_group
        # (U, rows, T, n_windows, matrix_days): window w covers value
        # days [w, w + matrix_days - 1]; anchored at day index
        # w + matrix_days - 1.  Zero-copy -- strides only.
        self._windows = sliding_window_view(values, matrix_days, axis=-1)

    # -- shape ----------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_anchors(self) -> int:
        return len(self.anchor_days)

    @property
    def dim(self) -> int:
        """Flattened vector width: rows * timeframes * matrix_days."""
        return int(np.prod(self._values.shape[1:3])) * self.matrix_days

    @property
    def shape(self) -> Tuple[int, int, int]:
        return (self.n_users, self.n_anchors, self.dim)

    def __len__(self) -> int:
        """Pooled sample count (the row-source contract)."""
        return self.n_users * self.n_anchors

    # -- row access -----------------------------------------------------
    def rows(self, indices: Sequence[int]) -> np.ndarray:
        """Gather pooled rows ``k = u * n_anchors + a`` as a dense batch.

        Returns:
            ``(len(indices), dim)`` float64 array; only this batch is
            materialized.
        """
        indices = np.asarray(indices, dtype=np.intp)
        u = indices // self.n_anchors
        w = self._window_starts[indices % self.n_anchors]
        return self._windows[u, :, :, w, :].reshape(indices.shape[0], self.dim)

    def batches(self, batch_size: int = 1024) -> Iterator[np.ndarray]:
        """Sequential dense mini-batches over the pooled rows in order."""
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        n = len(self)
        for start in range(0, n, batch_size):
            yield self.rows(np.arange(start, min(start + batch_size, n)))

    def vectors_for_anchor(self, anchor_index: int) -> np.ndarray:
        """All users' flattened matrices at one anchor: ``(n_users, dim)``."""
        w = self._window_starts[anchor_index]
        return self._windows[:, :, :, w, :].reshape(self.n_users, self.dim)

    # -- materialization (compat) ---------------------------------------
    def materialize(self) -> np.ndarray:
        """The full dense tensor ``(n_users, n_anchors, dim)``.

        This is the one deliberately memory-amplifying operation --
        ``matrix_days``x the base array -- kept for the
        :class:`repro.core.matrix.CompoundMatrices` compatibility wrapper
        and small-scale inspection.
        """
        out = np.empty((self.n_users, self.n_anchors, self.dim))
        for a in range(self.n_anchors):
            out[:, a, :] = self.vectors_for_anchor(a)
        return out

    def training_set(self) -> np.ndarray:
        """Materialized pooled 2-D matrix (compat; prefer batch iteration)."""
        return self.materialize().reshape(-1, self.dim)

    # -- pickling: ship the compact base array, never the windows -------
    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["_windows"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._windows = sliding_window_view(self._values, self.matrix_days, axis=-1)


class RepresentationPipeline:
    """The shared representation layer between deviations and autoencoders.

    Built once per fitted model from a :class:`DeviationCube`; computes
    the combined, weighted, normalized value array a single time and
    hands out per-aspect :class:`MatrixView`\\ s for any anchor set.
    Aspect row slices are cached, so ``fit``/``score``/``investigate``
    all reuse the same arrays instead of recomputing them per call.
    """

    def __init__(
        self,
        values: np.ndarray,
        users: Sequence[str],
        days: Sequence[date],
        feature_names: Sequence[str],
        includes_group: bool,
        applied_weights: bool,
    ):
        n_features = len(feature_names)
        blocks = 2 if includes_group else 1
        if values.ndim != 4 or values.shape[1] != blocks * n_features:
            raise ValueError(
                f"values shape {values.shape} inconsistent with "
                f"{n_features} features x {blocks} blocks"
            )
        self.values = values  # (U, blocks*F, T, n_days) in [0, 1]
        self.users = list(users)
        self.days = list(days)
        self.feature_names = list(feature_names)
        self.includes_group = includes_group
        self.applied_weights = applied_weights
        self._day_index = {d: i for i, d in enumerate(self.days)}
        self._row_cache: Dict[Tuple[int, ...], np.ndarray] = {}

    @classmethod
    def from_deviations(
        cls,
        deviations: DeviationCube,
        include_group: bool = True,
        apply_weights: bool = True,
    ) -> "RepresentationPipeline":
        """Combine a deviation cube into one shared value array."""
        telemetry = get_telemetry()
        with telemetry.span(
            "representation.build",
            users=len(deviations.users),
            days=len(deviations.days),
            features=len(deviations.feature_set.feature_names),
            include_group=include_group,
        ) as span:
            values = compound_values(
                deviations.sigma,
                deviations.weights,
                deviations.group_sigma,
                deviations.group_weights,
                deviations.group_of_user,
                include_group=include_group,
                apply_weights=apply_weights,
                delta=deviations.config.delta,
            )
            span.annotate(value_bytes=int(values.nbytes))
            telemetry.gauge("representation.value_bytes").set(values.nbytes)
        return cls(
            values=values,
            users=deviations.users,
            days=deviations.days,
            feature_names=list(deviations.feature_set.feature_names),
            includes_group=include_group,
            applied_weights=apply_weights,
        )

    # ------------------------------------------------------------------
    @property
    def n_users(self) -> int:
        return len(self.users)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)

    @property
    def nbytes(self) -> int:
        """Memory footprint of the shared value array."""
        return self.values.nbytes

    def day_index(self, day: date) -> int:
        try:
            return self._day_index[day]
        except KeyError:
            raise KeyError(f"no matrix anchored at {day}") from None

    # ------------------------------------------------------------------
    def view(
        self,
        anchor_days: Sequence[date],
        matrix_days: int,
        feature_indices: Optional[Sequence[int]] = None,
    ) -> MatrixView:
        """A zero-copy matrix view over ``anchor_days``.

        Args:
            anchor_days: the days each matrix ends at; every anchor must
                have ``matrix_days - 1`` deviation days before it.
            matrix_days: the in-matrix window ``D``.
            feature_indices: restrict to these feature indices (builds a
                per-aspect view); defaults to every feature.  The full
                set shares the pipeline's array; subsets are sliced once
                and cached.
        """
        if matrix_days < 1:
            raise ValueError(f"matrix_days must be >= 1, got {matrix_days}")
        n_days = len(self.days)
        if matrix_days > n_days:
            raise ValueError(
                f"matrix_days {matrix_days} exceeds available deviation days {n_days}"
            )
        if feature_indices is None:
            feature_indices = range(self.n_features)
        feature_indices = list(feature_indices)
        if not feature_indices:
            raise ValueError("need at least one feature")

        window_starts = []
        for day in anchor_days:
            j = self.day_index(day)
            if j < matrix_days - 1:
                raise ValueError(
                    f"anchor {day} needs {matrix_days - 1} prior deviation days, has {j}"
                )
            window_starts.append(j - matrix_days + 1)

        rows = aspect_rows(feature_indices, self.n_features, self.includes_group)
        return MatrixView(
            values=self._values_for_rows(rows),
            users=self.users,
            anchor_days=list(anchor_days),
            window_starts=window_starts,
            matrix_days=matrix_days,
            feature_names=[self.feature_names[i] for i in feature_indices],
            includes_group=self.includes_group,
        )

    def _values_for_rows(self, rows: List[int]) -> np.ndarray:
        """Row-sliced value array; the full set is the shared array itself."""
        if rows == list(range(self.values.shape[1])):
            return self.values
        key = tuple(rows)
        if key not in self._row_cache:
            self._row_cache[key] = np.ascontiguousarray(self.values[:, rows])
        return self._row_cache[key]
