"""Online drift monitors over score distributions and ingest quality.

A deployed detector fails silently two ways: the per-day anomaly-score
distribution stops resembling the reference behaviour the compound
matrices were built from (concept/score drift), or the data feeding it
degrades (late, duplicated, quarantined deliveries) so the scores are
computed over an increasingly partial view.  Both failure modes are
invisible in the scores of any single day -- they are properties of the
*sequence* -- which is what these monitors watch.

* :class:`ScoreDriftMonitor` keeps a rolling reference window of recent
  per-day score distributions per aspect and compares the newest days
  against it with two complementary statistics: the Population
  Stability Index (binned, sensitive to mass shifting between regions)
  and the two-sample Kolmogorov-Smirnov statistic (bin-free, sensitive
  to any CDF displacement).  Crossing either threshold raises one
  schema-versioned ``acobe.alert`` (see :mod:`repro.obs.report`); the
  monitor re-arms only after the signal recedes, so a persistent shift
  alerts exactly once instead of once per day.
* :class:`IngestQualityMonitor` watches lifetime late/duplicate
  delivery rates and the quarantined-day rate from the ingest and
  streaming counters, with the same fire-once-then-re-arm contract.

Both are strictly observational: they read copies of emitted scores and
counter values, never mutate them, and nothing they compute feeds back
into detection -- runs with and without monitors are bit-identical
(pinned by ``tests/eval/test_run_driver.py``).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence

from repro.obs.report import build_alert
from repro.obs.telemetry import get_telemetry

__all__ = [
    "DriftConfig",
    "IngestQualityConfig",
    "IngestQualityMonitor",
    "ScoreDriftMonitor",
    "ks_statistic",
    "population_stability_index",
]


def _as_sorted_floats(values: Sequence[float]) -> List[float]:
    return sorted(float(v) for v in values)


def population_stability_index(
    reference: Sequence[float],
    current: Sequence[float],
    bins: int = 10,
    epsilon: float = 1e-4,
) -> float:
    """PSI between two samples, binned on the reference's quantiles.

    Bin edges are the reference deciles (or ``bins``-tiles), so every
    reference bin starts near-equally populated and the statistic
    measures how the *current* mass redistributes.  Duplicate quantile
    edges (heavily tied references) collapse into fewer bins, degrading
    gracefully toward 0 for constant references.  Fractions are floored
    at ``epsilon`` so empty bins cannot produce infinities.

    Common reading: < 0.1 stable, 0.1-0.25 moderate shift, > 0.25 major
    shift (the default alert threshold).
    """
    reference = _as_sorted_floats(reference)
    current = _as_sorted_floats(current)
    if not reference or not current:
        raise ValueError("PSI needs non-empty reference and current samples")
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    n = len(reference)
    edges = []
    for i in range(1, bins):
        position = (i / bins) * (n - 1)
        lower = int(position)
        upper = min(lower + 1, n - 1)
        fraction = position - lower
        edges.append(reference[lower] * (1.0 - fraction) + reference[upper] * fraction)
    edges = sorted(set(edges))
    if not edges:
        return 0.0

    def fractions(sample: List[float]) -> List[float]:
        counts = [0] * (len(edges) + 1)
        for value in sample:
            slot = 0
            while slot < len(edges) and value > edges[slot]:
                slot += 1
            counts[slot] += 1
        total = float(len(sample))
        return [max(c / total, epsilon) for c in counts]

    import math

    p = fractions(reference)
    q = fractions(current)
    return sum((pi - qi) * math.log(pi / qi) for pi, qi in zip(p, q))


def ks_statistic(a: Sequence[float], b: Sequence[float]) -> float:
    """Two-sample Kolmogorov-Smirnov statistic: max |ECDF_a - ECDF_b|."""
    a = _as_sorted_floats(a)
    b = _as_sorted_floats(b)
    if not a or not b:
        raise ValueError("KS needs two non-empty samples")
    i = j = 0
    d = 0.0
    n_a, n_b = len(a), len(b)
    while i < n_a and j < n_b:
        if a[i] < b[j]:
            i += 1
        elif a[i] > b[j]:
            j += 1
        else:
            # Tied values step both ECDFs together; evaluating mid-tie
            # would overstate the gap.
            v = a[i]
            while i < n_a and a[i] == v:
                i += 1
            while j < n_b and b[j] == v:
                j += 1
        d = max(d, abs(i / n_a - j / n_b))
    return max(d, abs(i / n_a - j / n_b))


@dataclass(frozen=True)
class DriftConfig:
    """Tuning of the score-drift monitor (see docs/OBSERVABILITY.md).

    Args:
        reference_days: rolling window of per-day score distributions
            the detection window is compared against.
        current_days: newest days pooled into the detection sample; the
            monitor stays silent until ``reference_days + current_days``
            scored days have been observed.
        psi_threshold: PSI above this raises an alert (0.25 = the
            classic "major shift" rule of thumb).
        ks_threshold: KS statistic above this raises an alert.
        bins: PSI bin count (reference quantiles).
    """

    reference_days: int = 14
    current_days: int = 3
    psi_threshold: float = 0.25
    ks_threshold: float = 0.5
    bins: int = 10

    def __post_init__(self) -> None:
        if self.reference_days < 1:
            raise ValueError(f"reference_days must be >= 1, got {self.reference_days}")
        if self.current_days < 1:
            raise ValueError(f"current_days must be >= 1, got {self.current_days}")
        if self.bins < 2:
            raise ValueError(f"bins must be >= 2, got {self.bins}")
        for name, value in (("psi_threshold", self.psi_threshold),
                            ("ks_threshold", self.ks_threshold)):
            if value <= 0:
                raise ValueError(f"{name} must be > 0, got {value}")


class ScoreDriftMonitor:
    """Rolling PSI/KS monitor over per-day, per-aspect score distributions.

    Feed it every scored day via :meth:`observe`; it returns the alerts
    that day raised (usually none) and accumulates everything in
    :attr:`alerts` for the run report.  ``--drift-monitor`` has the run
    driver (:func:`repro.eval.run.run`) feed it every scored day.
    """

    def __init__(self, config: Optional[DriftConfig] = None):
        self.config = config or DriftConfig()
        window = self.config.reference_days + self.config.current_days
        self._window = window
        self._days: Dict[str, Deque[List[float]]] = {}
        self._alerting: Dict[str, bool] = {}
        self.alerts: List[dict] = []
        self.days_observed = 0

    def observe(self, day: Any, scores: Mapping[str, Sequence[float]]) -> List[dict]:
        """Fold one day's per-aspect scores in; return alerts raised today."""
        config = self.config
        telemetry = get_telemetry()
        emitted: List[dict] = []
        self.days_observed += 1
        for aspect in sorted(scores):
            sample = _as_sorted_floats(scores[aspect])
            buffer = self._days.setdefault(aspect, deque(maxlen=self._window))
            buffer.append(sample)
            if len(buffer) < self._window:
                continue
            days = list(buffer)
            reference = [v for s in days[: config.reference_days] for v in s]
            current = [v for s in days[config.reference_days:] for v in s]
            if not reference or not current:
                continue
            psi = population_stability_index(reference, current, bins=config.bins)
            ks = ks_statistic(reference, current)
            telemetry.histogram(f"drift.psi.{aspect}").observe(psi)
            telemetry.histogram(f"drift.ks.{aspect}").observe(ks)
            breached = psi > config.psi_threshold or ks > config.ks_threshold
            if breached and not self._alerting.get(aspect, False):
                metric, value, threshold = (
                    ("psi", psi, config.psi_threshold)
                    if psi > config.psi_threshold
                    else ("ks", ks, config.ks_threshold)
                )
                alert = build_alert(
                    kind="score-drift",
                    message=(
                        f"score distribution of aspect {aspect!r} drifted from its "
                        f"{config.reference_days}-day reference "
                        f"({metric}={value:.4f} > {threshold})"
                    ),
                    severity="warning",
                    day=day,
                    metric=metric,
                    value=value,
                    threshold=threshold,
                    context={
                        "aspect": aspect,
                        "psi": psi,
                        "ks": ks,
                        "reference_days": config.reference_days,
                        "current_days": config.current_days,
                    },
                )
                emitted.append(alert)
                self.alerts.append(alert)
                telemetry.counter("drift.alerts_total").inc()
                telemetry.log_event(
                    "drift.alert", level="warning", kind="score-drift",
                    aspect=aspect, metric=metric, value=value, day=str(day),
                )
            self._alerting[aspect] = breached
        return emitted


@dataclass(frozen=True)
class IngestQualityConfig:
    """Thresholds for the ingest data-quality monitor.

    Rates are lifetime fractions (late / pushed, duplicates / pushed,
    quarantined / sealed); ``min_events`` / ``min_days`` suppress noisy
    early-stream alerts before the denominators mean anything.
    """

    late_rate_threshold: float = 0.05
    duplicate_rate_threshold: float = 0.05
    quarantine_rate_threshold: float = 0.10
    min_events: int = 200
    min_days: int = 5

    def __post_init__(self) -> None:
        for name in ("late_rate_threshold", "duplicate_rate_threshold",
                     "quarantine_rate_threshold"):
            value = getattr(self, name)
            if not 0 < value <= 1:
                raise ValueError(f"{name} must be in (0, 1], got {value}")


class IngestQualityMonitor:
    """Fire-once alerts on degraded ingest feeds (late/dup/quarantine rates)."""

    def __init__(self, config: Optional[IngestQualityConfig] = None):
        self.config = config or IngestQualityConfig()
        self._alerting: Dict[str, bool] = {}
        self.alerts: List[dict] = []

    def observe(
        self,
        day: Any = None,
        *,
        events_pushed: int = 0,
        events_late: int = 0,
        events_duplicate: int = 0,
        days_sealed: int = 0,
        days_quarantined: int = 0,
    ) -> List[dict]:
        """Check the lifetime counters; return alerts raised by this check."""
        config = self.config
        checks = []
        if events_pushed >= config.min_events:
            checks.append(("late-rate", events_late / events_pushed,
                           config.late_rate_threshold,
                           f"{events_late} of {events_pushed} deliveries were late"))
            checks.append(("duplicate-rate", events_duplicate / events_pushed,
                           config.duplicate_rate_threshold,
                           f"{events_duplicate} of {events_pushed} deliveries were duplicates"))
        if days_sealed >= config.min_days:
            checks.append(("quarantine-rate", days_quarantined / days_sealed,
                           config.quarantine_rate_threshold,
                           f"{days_quarantined} of {days_sealed} sealed days were quarantined"))
        telemetry = get_telemetry()
        emitted: List[dict] = []
        for metric, rate, threshold, detail in checks:
            breached = rate > threshold
            if breached and not self._alerting.get(metric, False):
                alert = build_alert(
                    kind="ingest-quality",
                    message=f"ingest {metric} {rate:.3f} exceeds {threshold} ({detail})",
                    severity="warning",
                    day=day,
                    metric=metric,
                    value=rate,
                    threshold=threshold,
                    context={
                        "events_pushed": events_pushed,
                        "events_late": events_late,
                        "events_duplicate": events_duplicate,
                        "days_sealed": days_sealed,
                        "days_quarantined": days_quarantined,
                    },
                )
                emitted.append(alert)
                self.alerts.append(alert)
                telemetry.counter("drift.alerts_total").inc()
                telemetry.log_event(
                    "drift.alert", level="warning", kind="ingest-quality",
                    metric=metric, value=rate, day=str(day),
                )
            self._alerting[metric] = breached
        return emitted
