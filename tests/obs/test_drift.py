"""Drift monitors: PSI/KS math, fire-once alert semantics, quality rates."""

import random

import pytest

from repro.obs.drift import (
    DriftConfig,
    IngestQualityConfig,
    IngestQualityMonitor,
    ScoreDriftMonitor,
    ks_statistic,
    population_stability_index,
)
from repro.obs.report import validate_alert


class TestStatistics:
    def test_psi_near_zero_for_same_distribution(self):
        rng = random.Random(0)
        a = [rng.gauss(0, 1) for _ in range(2000)]
        b = [rng.gauss(0, 1) for _ in range(2000)]
        assert population_stability_index(a, b) < 0.05

    def test_psi_large_for_shifted_distribution(self):
        rng = random.Random(0)
        a = [rng.gauss(0, 1) for _ in range(2000)]
        b = [rng.gauss(3, 1) for _ in range(2000)]
        assert population_stability_index(a, b) > 1.0

    def test_psi_constant_reference_degrades_to_zero(self):
        assert population_stability_index([1.0] * 100, [1.0] * 50) == 0.0

    def test_psi_rejects_empty_and_bad_bins(self):
        with pytest.raises(ValueError, match="non-empty"):
            population_stability_index([], [1.0])
        with pytest.raises(ValueError, match="bins"):
            population_stability_index([1.0, 2.0], [1.0], bins=1)

    def test_ks_bounds_and_known_values(self):
        assert ks_statistic([1, 2, 3], [1, 2, 3]) == 0.0
        # Fully separated samples: the ECDFs never overlap.
        assert ks_statistic([0, 1, 2], [10, 11, 12]) == 1.0
        rng = random.Random(1)
        a = [rng.gauss(0, 1) for _ in range(1000)]
        b = [rng.gauss(0, 1) for _ in range(1000)]
        assert ks_statistic(a, b) < 0.1

    def test_ks_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            ks_statistic([], [1.0])


class TestDriftConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="reference_days"):
            DriftConfig(reference_days=0)
        with pytest.raises(ValueError, match="current_days"):
            DriftConfig(current_days=0)
        with pytest.raises(ValueError, match="psi_threshold"):
            DriftConfig(psi_threshold=0)
        with pytest.raises(ValueError, match="bins"):
            DriftConfig(bins=1)


def _feed(monitor, day, mean, rng, n=200):
    return monitor.observe(day, {"logon": [rng.gauss(mean, 1) for _ in range(n)]})


class TestScoreDriftMonitor:
    def test_silent_until_window_filled(self):
        rng = random.Random(0)
        monitor = ScoreDriftMonitor(DriftConfig(reference_days=5, current_days=2))
        for day in range(6):
            assert _feed(monitor, day, 0.0, rng) == []
        assert monitor.alerts == []

    def test_seeded_injection_raises_exactly_one_valid_alert(self):
        """The acceptance contract: a persistent seeded shift alerts once."""
        rng = random.Random(0)
        monitor = ScoreDriftMonitor(DriftConfig(reference_days=5, current_days=2))
        alerts = []
        for day in range(30):
            mean = 0.0 if day < 15 else 4.0  # the injected drift
            alerts.extend(_feed(monitor, day, mean, rng))
        assert len(alerts) == 1
        alert = alerts[0]
        validate_alert(alert)
        assert alert["kind"] == "score-drift"
        assert alert["day"] == "15"
        assert alert["context"]["aspect"] == "logon"
        assert alert["value"] > alert["threshold"]
        assert monitor.alerts == alerts

    def test_rearms_after_recovery(self):
        rng = random.Random(0)
        monitor = ScoreDriftMonitor(DriftConfig(reference_days=4, current_days=1))
        alerts = []
        for day in range(16):
            mean = 4.0 if 8 <= day < 9 else 0.0  # one-day excursion
            alerts.extend(_feed(monitor, day, mean, rng))
        first_burst = len(alerts)
        assert first_burst >= 1
        # A second excursion after full recovery must alert again.
        for day in range(16, 30):
            mean = 4.0 if day == 24 else 0.0
            alerts.extend(_feed(monitor, day, mean, rng))
        assert len(alerts) > first_burst

    def test_aspects_alert_independently(self):
        rng = random.Random(0)
        monitor = ScoreDriftMonitor(DriftConfig(reference_days=4, current_days=1))
        for day in range(20):
            drifting = 3.0 if day >= 10 else 0.0
            monitor.observe(
                day,
                {
                    "stable": [rng.gauss(0, 1) for _ in range(200)],
                    "moving": [rng.gauss(drifting, 1) for _ in range(200)],
                },
            )
        aspects = {a["context"]["aspect"] for a in monitor.alerts}
        assert aspects == {"moving"}


class TestIngestQualityMonitor:
    def test_quiet_below_min_denominators(self):
        monitor = IngestQualityMonitor()
        assert monitor.observe(events_pushed=10, events_late=10) == []

    def test_late_rate_alert_fires_once_and_validates(self):
        monitor = IngestQualityMonitor(IngestQualityConfig(min_events=100))
        first = monitor.observe(
            "2010-03-01", events_pushed=1000, events_late=100
        )
        again = monitor.observe(
            "2010-03-02", events_pushed=1100, events_late=110
        )
        assert len(first) == 1 and again == []
        validate_alert(first[0])
        assert first[0]["kind"] == "ingest-quality"
        assert first[0]["metric"] == "late-rate"
        assert monitor.alerts == first

    def test_quarantine_rate_uses_day_denominator(self):
        monitor = IngestQualityMonitor(IngestQualityConfig(min_days=5))
        alerts = monitor.observe(days_sealed=10, days_quarantined=3)
        assert [a["metric"] for a in alerts] == ["quarantine-rate"]
        assert alerts[0]["value"] == pytest.approx(0.3)

    def test_config_validation(self):
        with pytest.raises(ValueError, match="late_rate_threshold"):
            IngestQualityConfig(late_rate_threshold=0.0)
        with pytest.raises(ValueError, match="quarantine_rate_threshold"):
            IngestQualityConfig(quarantine_rate_threshold=1.5)
