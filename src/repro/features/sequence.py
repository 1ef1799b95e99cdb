"""Event-sequence anomaly features (the paper's §VI-B1 suggestion).

For the *predictable* behavioural aspects the paper notes that "when
dependency or causality exists among consecutive events, we may predict
upcoming events based on a sequence of events" and points to
DeepLog-style models.  DeepLog itself is an LSTM; the key mechanism --
predict the next event from recent context and flag events the model
did not expect -- is captured here by an order-``k`` Markov model with
Laplace smoothing and DeepLog's top-``g`` acceptance rule:

* :class:`MarkovSequenceModel` -- per-user next-event model over
  discrete event symbols (e.g. Sysmon/Windows event ids);
* :func:`extract_sequence_surprise` -- turns enterprise logs into one
  extra per-day feature per predictable aspect: the fraction of events
  that fell outside the model's top-``g`` predictions (plus the mean
  negative log-probability), producing a drop-in extra aspect for the
  compound matrix.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from datetime import date
from math import log2
from typing import Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.datagen.enterprise import COMMAND_EVENT_IDS, FILE_EVENT_IDS
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.logs.store import LogStore
from repro.utils.timeutil import TWO_TIMEFRAMES, TimeFrame

Symbol = Hashable
_START = ("<s>",)


@dataclass
class MarkovSequenceModel:
    """Order-``k`` Markov next-event model with Laplace smoothing.

    Example:
        >>> model = MarkovSequenceModel(order=1)
        >>> model.fit([["a", "b", "a", "b", "a"]])
        >>> model.surprise(["a", "b"]) < model.surprise(["b", "b"])
        True
    """

    order: int = 2
    smoothing: float = 0.1
    top_g: int = 3
    _transitions: Dict[Tuple[Symbol, ...], Dict[Symbol, int]] = field(default_factory=dict)
    _vocabulary: set = field(default_factory=set)

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        if self.smoothing <= 0:
            raise ValueError(f"smoothing must be positive, got {self.smoothing}")
        if self.top_g < 1:
            raise ValueError(f"top_g must be >= 1, got {self.top_g}")

    # ------------------------------------------------------------------
    def fit(self, sequences: Sequence[Sequence[Symbol]]) -> "MarkovSequenceModel":
        """Accumulate transition counts from (assumed normal) sequences."""
        for sequence in sequences:
            self.update(sequence)
        return self

    def update(self, sequence: Sequence[Symbol]) -> None:
        """Online update with one more normal sequence."""
        symbols = list(sequence)
        self._vocabulary.update(symbols)
        for i, symbol in enumerate(symbols):
            context = self._context(symbols, i)
            bucket = self._transitions.setdefault(context, defaultdict(int))
            bucket[symbol] += 1

    def _context(self, symbols: List[Symbol], i: int) -> Tuple[Symbol, ...]:
        prefix = symbols[max(0, i - self.order) : i]
        if len(prefix) < self.order:
            prefix = list(_START) * (self.order - len(prefix)) + prefix
        return tuple(prefix)

    @property
    def fitted(self) -> bool:
        return bool(self._transitions)

    def vocabulary_size(self) -> int:
        return len(self._vocabulary)

    # ------------------------------------------------------------------
    def probability(self, context: Tuple[Symbol, ...], symbol: Symbol) -> float:
        """Laplace-smoothed P(symbol | context)."""
        vocab = max(self.vocabulary_size(), 1)
        bucket = self._transitions.get(tuple(context), {})
        total = sum(bucket.values())
        count = bucket.get(symbol, 0)
        return (count + self.smoothing) / (total + self.smoothing * (vocab + 1))

    def top_predictions(self, context: Tuple[Symbol, ...]) -> List[Symbol]:
        """The model's ``top_g`` most likely next symbols for a context."""
        bucket = self._transitions.get(tuple(context), {})
        ranked = sorted(bucket.items(), key=lambda kv: (-kv[1], str(kv[0])))
        return [symbol for symbol, _ in ranked[: self.top_g]]

    def surprise(self, sequence: Sequence[Symbol]) -> float:
        """Mean negative log2-probability of a sequence (bits/event)."""
        symbols = list(sequence)
        if not symbols:
            return 0.0
        total = 0.0
        for i, symbol in enumerate(symbols):
            context = self._context(symbols, i)
            total += -log2(self.probability(context, symbol))
        return total / len(symbols)

    def unexpected_fraction(self, sequence: Sequence[Symbol]) -> float:
        """DeepLog's rule: fraction of events outside the top-g candidates."""
        symbols = list(sequence)
        if not symbols:
            return 0.0
        misses = 0
        for i, symbol in enumerate(symbols):
            context = self._context(symbols, i)
            if symbol not in self.top_predictions(context):
                misses += 1
        return misses / len(symbols)


# ---------------------------------------------------------------------------
# Integration with the enterprise pipeline
# ---------------------------------------------------------------------------

_SEQUENCE_GROUPS = {
    "file-seq": FILE_EVENT_IDS,
    "command-seq": COMMAND_EVENT_IDS,
}


def _sequence_aspect(name: str) -> AspectSpec:
    return AspectSpec(
        name,
        (
            FeatureSpec(f"{name}-unexpected", name, "events outside top-g predictions"),
            FeatureSpec(f"{name}-surprise", name, "mean bits/event under the Markov model"),
        ),
    )


SEQUENCE_ASPECTS: Tuple[AspectSpec, ...] = tuple(
    _sequence_aspect(name) for name in _SEQUENCE_GROUPS
)


def _daily_symbols(store: LogStore, user: str, day: date, ids: frozenset) -> List[Symbol]:
    """The user's chronological event-id sequence for one aspect/day."""
    events = []
    for type_name in ("windows", "sysmon", "powershell"):
        events.extend(
            e for e in store.events(user, type_name, day) if e.event_id in ids
        )
    events.sort(key=lambda e: e.timestamp)
    return [e.event_id for e in events]


def extract_sequence_surprise(
    store: LogStore,
    users: Sequence[str],
    days: Sequence[date],
    train_days: Sequence[date],
    order: int = 2,
    top_g: int = 3,
    timeframes: Sequence[TimeFrame] = TWO_TIMEFRAMES,
) -> MeasurementCube:
    """Per-day sequence-anomaly features for the predictable aspects.

    One Markov model is fitted per (user, aspect) on the ``train_days``
    sequences; every day then yields two features per aspect: the
    unexpected-event fraction and the mean surprise.  Both land in the
    first time-frame (sequence features are daily, not per-frame --
    the remaining frames stay zero so the cube composes with others).

    Returns:
        A cube with ``2 * len(SEQUENCE_ASPECTS)`` features.
    """
    feature_set = FeatureSet(SEQUENCE_ASPECTS)
    days = sorted(days)
    train_set = set(train_days)
    cube = np.zeros((len(users), len(feature_set), len(timeframes), len(days)))

    for u, user in enumerate(users):
        for name, ids in _SEQUENCE_GROUPS.items():
            model = MarkovSequenceModel(order=order, top_g=top_g)
            for day in days:
                if day in train_set:
                    model.update(_daily_symbols(store, user, day, ids))
            if not model.fitted:
                continue
            f_unexpected = feature_set.index_of(f"{name}-unexpected")
            f_surprise = feature_set.index_of(f"{name}-surprise")
            for d, day in enumerate(days):
                symbols = _daily_symbols(store, user, day, ids)
                if not symbols:
                    continue
                cube[u, f_unexpected, 0, d] = model.unexpected_fraction(symbols) * len(symbols)
                cube[u, f_surprise, 0, d] = model.surprise(symbols)

    return MeasurementCube(
        values=cube,
        users=list(users),
        feature_set=feature_set,
        timeframes=tuple(timeframes),
        days=list(days),
    )
