"""Streaming day-by-day detection.

The batch pipeline recomputes deviations over a whole measurement cube;
operationally, ACOBE runs *daily*: each morning the analyst gets an
ordered investigation list for yesterday's logs.  The
:class:`StreamingDetector` supports that mode:

* it wraps a **fitted** :class:`~repro.core.detector.CompoundBehaviorModel`
  (train offline on a historical cube, then stream);
* :meth:`observe_day` consumes one day's measurement slab --
  ``(n_users, n_features, n_timeframes)`` -- maintains the rolling
  per-user and per-group history needed by the deviation equations, and
  (once enough days are buffered) returns that day's per-aspect scores
  and investigation list.

The deviation math *is* the batch path's: day *d* is deviated with
:func:`repro.core.deviation.deviate_against_history`, group averages
come from :func:`repro.core.deviation.group_means`, and the buffered
deviations are combined into matrix vectors by the shared
:func:`repro.core.representation.compound_values` /
:func:`repro.core.representation.aspect_rows` -- the same functions the
batch pipeline uses, so there is exactly one definition of the math.
A property test in the suite pins streaming == batch equality.

Fault tolerance (see ``docs/OPERATIONS.md``):

* **Degradation policies.**  Real log feeds drop records and emit
  garbage; a daily service cannot afford one malformed slab killing the
  stream.  ``on_bad_day`` selects what :meth:`observe_day` does with a
  non-finite or wrong-shape slab: ``"strict"`` (default) raises as
  before; ``"skip"`` quarantines the day -- it is counted, logged via
  telemetry (``stream.days_quarantined``) and reported as an explicit
  :class:`DegradedDayResult`, but never enters the rolling history;
  ``"impute-group-mean"`` repairs non-finite entries with the mean of
  the finite values of the user's group at the same (feature,
  time-frame) cell before scoring (wrong-shape slabs still quarantine
  -- there is nothing to impute into).
* **Checkpointing.**  :meth:`export_state` / :meth:`restore_state`
  round-trip the full rolling state bit-exactly;
  :mod:`repro.core.checkpoint` persists it atomically so a crashed
  stream resumes with scores identical to an uninterrupted run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from datetime import date
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.critic import InvestigationList
from repro.core.detector import CompoundBehaviorModel
from repro.core.deviation import DeviationConfig, deviate_against_history, group_means
from repro.core.representation import aspect_rows, compound_values
from repro.obs import get_telemetry

# perfbench/tracing.py SPANS looks this name up; it goes with the next benchmark change.
sharded_deviate_against_history = deviate_against_history

#: Valid ``on_bad_day`` policies, in increasing order of leniency.
BAD_DAY_POLICIES = ("strict", "skip", "impute-group-mean")


@dataclass(frozen=True)
class ScoreSummary:
    """Distribution summary of one aspect's emitted scores on one day.

    The per-day series of these summaries is the drift-monitoring
    signal: a median that trends away from the training period means
    the score distribution has shifted and thresholds/rankings need a
    second look (cf. adaptive-filter monitoring).
    """

    min: float
    median: float
    max: float

    @classmethod
    def from_scores(cls, scores: np.ndarray) -> "ScoreSummary":
        scores = np.asarray(scores)
        if scores.size == 0:
            # A zero-user day has no distribution; NaN is the explicit
            # "no data" marker (and keeps np.min from raising).
            return cls(min=float("nan"), median=float("nan"), max=float("nan"))
        return cls(
            min=float(np.min(scores)),
            median=float(np.median(scores)),
            max=float(np.max(scores)),
        )


@dataclass
class DailyResult:
    """One streamed day's output.

    ``latency_seconds`` is the wall-clock cost of the
    :meth:`StreamingDetector.observe_day` call that produced this
    result; ``score_summary`` summarizes each aspect's emitted score
    distribution (min/median/max over users) for drift monitoring.
    Both are observational -- scores and rankings never depend on them.
    ``imputed_values`` counts measurement cells repaired by the
    ``impute-group-mean`` policy before this day was scored (0 on a
    clean day).
    """

    day: date
    scores: Dict[str, np.ndarray]  # aspect -> (n_users,)
    investigation: InvestigationList
    latency_seconds: float = 0.0
    score_summary: Dict[str, ScoreSummary] = field(default_factory=dict)
    imputed_values: int = 0

    def rank_of(self, user: str) -> int:
        return self.investigation.position_of(user)


@dataclass(frozen=True)
class DegradedDayResult:
    """An observed day that could not be scored and was quarantined.

    Returned by :meth:`StreamingDetector.observe_day` instead of a
    :class:`DailyResult` when the slab was rejected under a non-strict
    ``on_bad_day`` policy.  The day advanced the stream's day cursor
    but did **not** enter the rolling history, so one poisoned feed
    never corrupts subsequent rankings -- it only widens the effective
    gap between the surviving days.
    """

    day: date
    policy: str
    reason: str  # "non-finite" | "bad-shape"
    detail: str
    n_bad_values: int = 0
    bad_users: Tuple[str, ...] = ()


@dataclass
class StreamState:
    """The full rolling state of a :class:`StreamingDetector`.

    Produced by :meth:`StreamingDetector.export_state`, consumed by
    :meth:`StreamingDetector.restore_state`; serialized to disk by
    :mod:`repro.core.checkpoint`.  All arrays are float64 and
    round-trip bit-exactly through ``.npz``.
    """

    history: List[np.ndarray]
    sigma_buffer: List[Tuple[np.ndarray, np.ndarray]]
    group_sigma_buffer: List[Tuple[np.ndarray, np.ndarray]]
    last_day: Optional[date]
    days_observed: int = 0
    days_quarantined: int = 0
    days_imputed: int = 0
    values_imputed: int = 0


class StreamingDetector:
    """Day-by-day scoring on top of a fitted compound-behaviour model.

    Example workflow::

        model.fit(history_cube, group_map, train_days)
        stream = StreamingDetector(model, users, group_map)
        stream.warm_up(history_cube)          # seed the rolling buffers
        result = stream.observe_day(day, slab)

    Args:
        on_bad_day: degradation policy for malformed slabs --
            ``"strict"`` (raise, the default), ``"skip"`` (quarantine),
            or ``"impute-group-mean"`` (repair non-finite cells from
            group behaviour).  See the module docstring.
    """

    def __init__(
        self,
        model: CompoundBehaviorModel,
        users: Sequence[str],
        group_map: Optional[Mapping[str, str]] = None,
        on_bad_day: str = "strict",
    ):
        if not model.fitted:
            raise ValueError("StreamingDetector requires a fitted model")
        if model.config.representation != "deviation":
            raise ValueError("streaming supports the deviation representation only")
        if on_bad_day not in BAD_DAY_POLICIES:
            raise ValueError(
                f"unknown on_bad_day policy {on_bad_day!r}; "
                f"expected one of {BAD_DAY_POLICIES}"
            )
        self.model = model
        self.users = list(users)
        self.on_bad_day = on_bad_day
        group_map = dict(group_map or {u: "all" for u in self.users})
        missing = [u for u in self.users if u not in group_map]
        if missing:
            raise ValueError(f"group_map missing users: {missing[:5]}")
        self.group_map = {u: group_map[u] for u in self.users}
        self.groups = sorted({group_map[u] for u in self.users})
        self._group_index = {g: i for i, g in enumerate(self.groups)}
        self._group_of_user = np.array([self._group_index[group_map[u]] for u in self.users])

        cfg = model.config
        self._dev_config = DeviationConfig(
            window=cfg.window, delta=cfg.delta, epsilon=cfg.epsilon
        )
        self._history: Deque[np.ndarray] = deque(maxlen=cfg.window - 1)
        self._sigma_buffer: Deque[Tuple[np.ndarray, np.ndarray]] = deque(maxlen=cfg.matrix_days)
        self._group_sigma_buffer: Deque[Tuple[np.ndarray, np.ndarray]] = deque(
            maxlen=cfg.matrix_days
        )
        self._last_day: Optional[date] = None
        self.days_observed = 0
        self.days_quarantined = 0
        self.days_imputed = 0
        self.values_imputed = 0

    def durable_counters(self) -> Dict[str, int]:
        """Checkpoint-backed lifetime totals (survive process restarts).

        Process-local telemetry counters reset when a stream restarts
        from a checkpoint; these totals travel through
        :meth:`export_state` / :meth:`restore_state` instead, so the
        ``durable`` section of a metrics export equals the
        uninterrupted run's after any kill-and-resume.
        """
        return {
            "stream.days_observed": self.days_observed,
            "stream.days_quarantined": self.days_quarantined,
            "stream.days_imputed": self.days_imputed,
            "stream.values_imputed": self.values_imputed,
        }

    # ------------------------------------------------------------------
    @property
    def ready(self) -> bool:
        """Whether enough days are buffered to emit scores."""
        return (
            len(self._history) == self._history.maxlen
            and len(self._sigma_buffer) == self._sigma_buffer.maxlen
        )

    @property
    def last_day(self) -> Optional[date]:
        """The most recently observed day (quarantined days included)."""
        return self._last_day

    def warm_up(self, cube) -> None:
        """Seed the buffers from a measurement cube (e.g. the train data).

        Feeds every day of the cube through :meth:`observe_day`,
        discarding outputs.
        """
        if cube.users != self.users:
            raise ValueError("warm-up cube users differ from the stream's users")
        for d, day in enumerate(cube.days):
            self.observe_day(day, cube.values[:, :, :, d])

    def observe_day(
        self, day: date, slab: np.ndarray
    ) -> Optional[Union[DailyResult, DegradedDayResult]]:
        """Consume one day of measurements; return scores once ready.

        Args:
            day: the calendar day (must be strictly increasing).
            slab: measurements ``(n_users, n_features, n_timeframes)``.

        Returns:
            A :class:`DailyResult` when the rolling buffers are full, a
            :class:`DegradedDayResult` when the slab was quarantined
            under a non-strict ``on_bad_day`` policy, else None (still
            warming up).

        Raises:
            ValueError: on a non-monotonic day (always), or on a
                malformed slab under the ``"strict"`` policy.
        """
        start = time.perf_counter()
        telemetry = get_telemetry()
        slab = np.asarray(slab, dtype=np.float64)
        if self._last_day is not None and day <= self._last_day:
            # Out-of-order delivery is a caller bug, not dirty data:
            # every policy raises.
            raise ValueError(f"days must be strictly increasing ({day} after {self._last_day})")

        imputed_values = 0
        problem = self._slab_problem(day, slab)
        if problem is not None:
            reason, detail, bad_mask = problem
            if self.on_bad_day == "strict":
                raise ValueError(detail)
            if self.on_bad_day == "impute-group-mean" and bad_mask is not None:
                slab = self._impute_group_mean(slab, bad_mask)
                imputed_values = int(bad_mask.sum())
                self.days_imputed += 1
                self.values_imputed += imputed_values
                telemetry.counter("stream.days_imputed").inc()
                telemetry.counter("stream.values_imputed").inc(imputed_values)
                telemetry.log_event(
                    "stream.day_imputed",
                    level="warning",
                    day=str(day),
                    n_values=imputed_values,
                )
            else:
                return self._quarantine(day, reason, detail, bad_mask, telemetry)

        self._last_day = day
        self.days_observed += 1

        if len(self._history) == self._history.maxlen:
            history = np.stack(self._history, axis=-1)  # (U, F, T, w-1)
            self._sigma_buffer.append(
                deviate_against_history(slab, history, self._dev_config)
            )
            group_slab = group_means(slab, self._group_of_user, len(self.groups))
            group_history = group_means(history, self._group_of_user, len(self.groups))
            self._group_sigma_buffer.append(
                deviate_against_history(group_slab, group_history, self._dev_config)
            )
        self._history.append(slab)

        if not self.ready:
            elapsed = time.perf_counter() - start
            telemetry.counter("streaming.days_total").inc()
            telemetry.histogram("streaming.day_seconds").observe(elapsed)
            telemetry.log_event(
                "stream.day_buffered", day=str(day), wall_seconds=round(elapsed, 6)
            )
            return None
        with telemetry.span("streaming.observe_day", day=str(day)) as span:
            result = self._emit(day)
        result.imputed_values = imputed_values
        result.latency_seconds = time.perf_counter() - start
        span.annotate(latency_seconds=result.latency_seconds)
        telemetry.counter("streaming.days_total").inc()
        telemetry.counter("streaming.days_scored").inc()
        telemetry.histogram("streaming.day_seconds").observe(result.latency_seconds)
        for aspect, summary in result.score_summary.items():
            telemetry.histogram(f"streaming.score_median.{aspect}").observe(summary.median)
            telemetry.histogram(f"streaming.score_max.{aspect}").observe(summary.max)
        telemetry.log_event(
            "stream.day_scored",
            day=str(day),
            latency_seconds=round(result.latency_seconds, 6),
            imputed_values=imputed_values,
            top_user=result.investigation.entries[0].user
            if result.investigation.entries
            else None,
        )
        return result

    # ------------------------------------------------------------------
    # Degradation
    # ------------------------------------------------------------------
    def _slab_problem(
        self, day: date, slab: np.ndarray
    ) -> Optional[Tuple[str, str, Optional[np.ndarray]]]:
        """Classify a malformed slab: (reason, detail, bad-value mask)."""
        if slab.ndim != 3 or slab.shape[0] != len(self.users):
            return (
                "bad-shape",
                f"expected (n_users, F, T) slab, got {slab.shape}",
                None,
            )
        finite = np.isfinite(slab)
        if not finite.all():
            bad = np.argwhere(~finite)
            detail = (
                f"slab for {day} contains {bad.shape[0]} non-finite value(s) "
                f"(NaN/inf); first at (user, feature, timeframe)="
                f"{tuple(int(i) for i in bad[0])} -- non-finite measurements "
                f"would silently poison the rolling history"
            )
            return ("non-finite", detail, ~finite)
        return None

    def _quarantine(
        self,
        day: date,
        reason: str,
        detail: str,
        bad_mask: Optional[np.ndarray],
        telemetry,
    ) -> DegradedDayResult:
        """Skip a malformed day: advance the cursor, never touch history."""
        self._last_day = day
        self.days_observed += 1
        self.days_quarantined += 1
        telemetry.counter("streaming.days_total").inc()
        telemetry.counter("stream.days_quarantined").inc()
        n_bad = 0
        bad_users: Tuple[str, ...] = ()
        if bad_mask is not None:
            n_bad = int(bad_mask.sum())
            affected = np.unique(np.argwhere(bad_mask)[:, 0])
            bad_users = tuple(self.users[int(i)] for i in affected)
        with telemetry.span(
            "streaming.quarantine_day", day=str(day), reason=reason
        ) as span:
            span.annotate(n_bad_values=n_bad)
        telemetry.log_event(
            "stream.day_quarantined",
            level="warning",
            day=str(day),
            reason=reason,
            n_bad_values=n_bad,
            policy=self.on_bad_day,
        )
        return DegradedDayResult(
            day=day,
            policy=self.on_bad_day,
            reason=reason,
            detail=detail,
            n_bad_values=n_bad,
            bad_users=bad_users,
        )

    def _impute_group_mean(self, slab: np.ndarray, bad_mask: np.ndarray) -> np.ndarray:
        """Replace non-finite cells with their group's finite mean.

        For each group and (feature, time-frame) cell, the mean over the
        group's *finite* values stands in for the missing ones; a cell
        with no finite group member falls back to 0.0 (no activity).
        The group-supported intuition is the paper's own: a user's
        missing measurement is best guessed by what their peers did.
        """
        repaired = slab.copy()
        finite = ~bad_mask
        safe = np.where(finite, slab, 0.0)
        for g in range(len(self.groups)):
            members = self._group_of_user == g
            counts = finite[members].sum(axis=0)  # (F, T)
            sums = safe[members].sum(axis=0)
            means = np.divide(
                sums,
                counts,
                out=np.zeros_like(sums),
                where=counts > 0,
            )
            sub = repaired[members]
            sub_bad = bad_mask[members]
            sub[sub_bad] = np.broadcast_to(means, sub.shape)[sub_bad]
            repaired[members] = sub
        return repaired

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def export_state(self) -> StreamState:
        """Copy out the full rolling state (see :mod:`repro.core.checkpoint`)."""
        return StreamState(
            history=[np.array(h, copy=True) for h in self._history],
            sigma_buffer=[
                (np.array(s, copy=True), np.array(w, copy=True))
                for s, w in self._sigma_buffer
            ],
            group_sigma_buffer=[
                (np.array(s, copy=True), np.array(w, copy=True))
                for s, w in self._group_sigma_buffer
            ],
            last_day=self._last_day,
            days_observed=self.days_observed,
            days_quarantined=self.days_quarantined,
            days_imputed=self.days_imputed,
            values_imputed=self.values_imputed,
        )

    def restore_state(self, state: StreamState) -> None:
        """Install a previously exported state (bit-exact resume).

        Raises:
            ValueError: when the state's buffer lengths exceed this
                detector's configured windows.
        """
        if len(state.history) > (self._history.maxlen or 0):
            raise ValueError(
                f"checkpoint has {len(state.history)} history days, "
                f"detector window holds at most {self._history.maxlen}"
            )
        if len(state.sigma_buffer) > (self._sigma_buffer.maxlen or 0):
            raise ValueError(
                f"checkpoint has {len(state.sigma_buffer)} deviation days, "
                f"detector buffers at most {self._sigma_buffer.maxlen}"
            )
        self._history.clear()
        self._history.extend(np.asarray(h, dtype=np.float64) for h in state.history)
        self._sigma_buffer.clear()
        self._sigma_buffer.extend(
            (np.asarray(s, dtype=np.float64), np.asarray(w, dtype=np.float64))
            for s, w in state.sigma_buffer
        )
        self._group_sigma_buffer.clear()
        self._group_sigma_buffer.extend(
            (np.asarray(s, dtype=np.float64), np.asarray(w, dtype=np.float64))
            for s, w in state.group_sigma_buffer
        )
        self._last_day = state.last_day
        self.days_observed = state.days_observed
        self.days_quarantined = state.days_quarantined
        self.days_imputed = state.days_imputed
        self.values_imputed = state.values_imputed

    # ------------------------------------------------------------------
    def _emit(self, day: date) -> DailyResult:
        cfg = self.model.config
        sigmas = np.stack([s for s, _ in self._sigma_buffer], axis=-1)  # (U,F,T,D)
        weights = np.stack([w for _, w in self._sigma_buffer], axis=-1)
        g_sigmas = np.stack([s for s, _ in self._group_sigma_buffer], axis=-1)
        g_weights = np.stack([w for _, w in self._group_sigma_buffer], axis=-1)

        values = compound_values(
            sigmas,
            weights,
            g_sigmas,
            g_weights,
            self._group_of_user,
            include_group=cfg.include_group,
            apply_weights=cfg.apply_weights,
            delta=cfg.delta,
        )

        feature_set = self.model.deviations.feature_set
        n_features = len(feature_set)
        engine = self.model.engine
        scores: Dict[str, np.ndarray] = {}
        for aspect in self.model.aspect_names:
            if cfg.all_in_one:
                indices = list(range(n_features))
            else:
                indices = feature_set.aspect_indices(aspect)
            rows = aspect_rows(indices, n_features, cfg.include_group)
            vectors = values[:, rows].reshape(len(self.users), -1)
            autoencoder = self.model.autoencoder(aspect)
            scores[aspect] = engine.scoring.score_vectors(vectors, autoencoder)

        return DailyResult(
            day=day,
            scores=scores,
            investigation=engine.critic.investigate(scores, self.users, cfg.critic_n),
            score_summary={
                aspect: ScoreSummary.from_scores(arr) for aspect, arr in scores.items()
            },
        )
