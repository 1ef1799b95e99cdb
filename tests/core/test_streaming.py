"""Streaming-detector tests: day-by-day output must equal the batch path."""

from datetime import date, timedelta

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.streaming import DailyResult, DegradedDayResult, ScoreSummary, StreamingDetector
from repro.testing.faults import poison_slab
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=3,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 35
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]


@pytest.fixture(scope="module")
def cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(6)]
    values = np.random.default_rng(4).poisson(5.0, size=(6, 3, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def group_map(cube):
    return {u: ("g1" if i < 3 else "g2") for i, u in enumerate(cube.users)}


@pytest.fixture(scope="module")
def fitted(cube, group_map):
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, group_map, DAYS[:25])
    return model


class TestStreamingMatchesBatch:
    def test_daily_scores_equal_batch_scores(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        results = {}
        for d, day in enumerate(DAYS):
            out = stream.observe_day(day, cube.values[:, :, :, d])
            if out is not None:
                results[day] = out

        test_days = fitted.valid_anchor_days(DAYS[25:])
        batch = fitted.score(test_days)
        for j, day in enumerate(test_days):
            assert day in results
            for aspect, arr in batch.items():
                np.testing.assert_allclose(
                    results[day].scores[aspect], arr[:, j], rtol=1e-10
                )

    def test_daily_investigation_matches_batch_critic(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        last = None
        for d, day in enumerate(DAYS):
            out = stream.observe_day(day, cube.values[:, :, :, d])
            if out is not None:
                last = out
        assert last is not None
        assert sorted(last.investigation.users()) == sorted(cube.users)
        assert last.rank_of(cube.users[0]) >= 1


class TestStreamingGuards:
    def test_requires_fitted_model(self, cube):
        model = CompoundBehaviorModel(ModelConfig(window=5, matrix_days=5, autoencoder=TINY_AE))
        with pytest.raises(ValueError, match="fitted"):
            StreamingDetector(model, cube.users)

    def test_rejects_normalized_representation(self, cube, group_map):
        model = CompoundBehaviorModel(
            ModelConfig(
                representation="normalized",
                matrix_days=1,
                apply_weights=False,
                autoencoder=TINY_AE,
            )
        )
        model.fit(cube, group_map, DAYS[:25])
        with pytest.raises(ValueError, match="deviation representation"):
            StreamingDetector(model, cube.users, group_map)

    def test_not_ready_before_buffers_fill(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        # window-1 + matrix_days - 1 = 8 days of silence, output on day 9.
        outputs = []
        for d in range(9):
            outputs.append(stream.observe_day(DAYS[d], cube.values[:, :, :, d]))
        assert all(o is None for o in outputs[:8])
        assert outputs[8] is not None

    def test_rejects_non_increasing_days(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        stream.observe_day(DAYS[0], cube.values[:, :, :, 0])
        with pytest.raises(ValueError, match="strictly increasing"):
            stream.observe_day(DAYS[0], cube.values[:, :, :, 0])

    def test_rejects_bad_slab_shape(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map)
        with pytest.raises(ValueError):
            stream.observe_day(DAYS[0], np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_slab(self, cube, group_map, fitted, bad):
        stream = StreamingDetector(fitted, cube.users, group_map)
        slab = cube.values[:, :, :, 0].copy()
        slab[1, 0, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            stream.observe_day(DAYS[0], slab)
        # The poisoned slab must not have entered the rolling history.
        assert len(stream._history) == 0
        out = stream.observe_day(DAYS[0], cube.values[:, :, :, 0])
        assert out is None and len(stream._history) == 1

    def test_warm_up_requires_matching_users(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users[:-1] + ["zz"], group_map | {"zz": "g1"})
        with pytest.raises(ValueError, match="users differ"):
            stream.warm_up(cube)


class TestStreamingTelemetry:
    """Per-day latency and score-distribution summaries on DailyResult."""

    BURST_DAY = 30  # well past the 8-day warm-up, so it is a scored day
    BURST_USER = 0

    def stream_all(self, cube, group_map, fitted, burst=False):
        stream = StreamingDetector(fitted, cube.users, group_map)
        results = {}
        for d, day in enumerate(DAYS):
            slab = cube.values[:, :, :, d]
            if burst and d == self.BURST_DAY:
                slab = slab.copy()
                slab[self.BURST_USER] *= 25.0
            out = stream.observe_day(day, slab)
            if out is not None:
                results[d] = out
        return results

    def test_results_carry_latency_and_summaries(self, cube, group_map, fitted):
        results = self.stream_all(cube, group_map, fitted)
        for result in results.values():
            assert result.latency_seconds > 0.0
            assert set(result.score_summary) == set(result.scores)
            for aspect, summary in result.score_summary.items():
                scores = result.scores[aspect]
                assert summary.min <= summary.median <= summary.max
                assert summary.min == pytest.approx(float(np.min(scores)))
                assert summary.max == pytest.approx(float(np.max(scores)))

    def test_summaries_are_purely_observational(self, cube, group_map, fitted):
        from repro.obs import Telemetry, set_telemetry

        quiet = self.stream_all(cube, group_map, fitted)
        previous = set_telemetry(Telemetry(enabled=True))
        try:
            observed = self.stream_all(cube, group_map, fitted)
        finally:
            set_telemetry(previous)
        for d in quiet:
            for aspect in quiet[d].scores:
                np.testing.assert_array_equal(
                    quiet[d].scores[aspect], observed[d].scores[aspect]
                )

    def test_burst_day_is_visible_in_telemetry(self, cube, group_map, fitted):
        from repro.obs import Telemetry, set_telemetry

        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            results = self.stream_all(cube, group_map, fitted, burst=True)
        finally:
            set_telemetry(previous)

        burst = results[self.BURST_DAY]
        # The injected burst dominates at least one aspect's daily max ...
        spiking = [
            aspect
            for aspect in burst.score_summary
            if burst.score_summary[aspect].max
            == max(r.score_summary[aspect].max for r in results.values())
        ]
        assert spiking, "burst day does not top any aspect's score_max series"
        # ... and the same spike tops the recorded score_max histogram.
        for aspect in spiking:
            series = telemetry.metrics.histogram(f"streaming.score_max.{aspect}")
            assert series.summary()["max"] == pytest.approx(
                burst.score_summary[aspect].max
            )
            assert len(series.values) == len(results)

        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["streaming.days_total"] == N_DAYS
        assert counters["streaming.days_scored"] == len(results)
        day_seconds = telemetry.metrics.histogram("streaming.day_seconds")
        assert day_seconds.summary()["count"] == N_DAYS
        span = telemetry.find_span("streaming.observe_day")
        assert span is not None and "latency_seconds" in span.attributes


class TestScoreSummaryEmpty:
    """Regression: a zero-user day must not crash np.min (issue 6 satellite)."""

    def test_empty_scores_yield_nan_summary(self):
        summary = ScoreSummary.from_scores(np.array([]))
        assert np.isnan(summary.min)
        assert np.isnan(summary.median)
        assert np.isnan(summary.max)

    def test_single_score_summary(self):
        summary = ScoreSummary.from_scores(np.array([2.5]))
        assert summary.min == summary.median == summary.max == 2.5


class TestDegradationPolicies:
    """on_bad_day: strict raises, skip quarantines, impute repairs."""

    def test_unknown_policy_rejected(self, cube, group_map, fitted):
        with pytest.raises(ValueError, match="on_bad_day"):
            StreamingDetector(fitted, cube.users, group_map, on_bad_day="yolo")

    def test_skip_quarantines_and_preserves_history(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
        stream.observe_day(DAYS[0], cube.values[:, :, :, 0])
        bad = poison_slab(cube.values[:, :, :, 1], n_values=3, seed=5)
        out = stream.observe_day(DAYS[1], bad)
        assert isinstance(out, DegradedDayResult)
        assert out.reason == "non-finite"
        assert out.policy == "skip"
        assert out.n_bad_values == 3
        assert out.bad_users  # names, not indices
        assert set(out.bad_users) <= set(cube.users)
        # The poisoned day advanced the cursor but never entered history.
        assert len(stream._history) == 1
        assert stream.last_day == DAYS[1]
        assert stream.days_quarantined == 1
        with pytest.raises(ValueError, match="strictly increasing"):
            stream.observe_day(DAYS[1], cube.values[:, :, :, 1])

    def test_skip_quarantines_bad_shape(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
        out = stream.observe_day(DAYS[0], np.zeros((2, 3)))
        assert isinstance(out, DegradedDayResult)
        assert out.reason == "bad-shape"
        assert len(stream._history) == 0

    def test_stream_survives_quarantine_and_keeps_scoring(self, cube, group_map, fitted):
        stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
        scored = 0
        for d, day in enumerate(DAYS):
            slab = cube.values[:, :, :, d]
            if d in (3, 15, 27):
                slab = poison_slab(slab, n_values=2, seed=d)
            out = stream.observe_day(day, slab)
            if isinstance(out, DailyResult):
                scored += 1
        assert stream.days_quarantined == 3
        assert scored > 0
        # Every emitted score stayed finite despite the poisoned feed.
        assert stream.days_observed == N_DAYS

    def test_impute_group_mean_repairs_and_scores(self, cube, group_map, fitted):
        stream = StreamingDetector(
            fitted, cube.users, group_map, on_bad_day="impute-group-mean"
        )
        results = {}
        for d, day in enumerate(DAYS):
            slab = cube.values[:, :, :, d]
            if d == 20:
                slab = poison_slab(slab, n_values=4, seed=9)
            out = stream.observe_day(day, slab)
            if isinstance(out, DailyResult):
                results[d] = out
        assert stream.days_imputed == 1
        assert stream.values_imputed == 4
        assert stream.days_quarantined == 0
        # The imputed day was scored, finitely, and flagged on the result.
        assert 20 in results
        assert results[20].imputed_values == 4
        for arr in results[20].scores.values():
            assert np.isfinite(arr).all()

    def test_impute_matches_group_mean_exactly(self, cube, group_map, fitted):
        stream = StreamingDetector(
            fitted, cube.users, group_map, on_bad_day="impute-group-mean"
        )
        slab = cube.values[:, :, :, 0].copy()
        slab[0, 1, 1] = np.nan  # u0 is in g1 = users 0..2
        repaired = stream._impute_group_mean(slab, ~np.isfinite(slab))
        expected = (cube.values[1, 1, 1, 0] + cube.values[2, 1, 1, 0]) / 2.0
        assert repaired[0, 1, 1] == pytest.approx(expected)
        # Untouched cells are bit-identical.
        mask = np.ones_like(slab, dtype=bool)
        mask[0, 1, 1] = False
        np.testing.assert_array_equal(repaired[mask], cube.values[:, :, :, 0][mask])

    def test_impute_falls_back_to_zero_when_whole_group_is_bad(
        self, cube, group_map, fitted
    ):
        stream = StreamingDetector(
            fitted, cube.users, group_map, on_bad_day="impute-group-mean"
        )
        slab = cube.values[:, :, :, 0].copy()
        slab[0:3, 2, 0] = np.inf  # all of g1 at one cell
        repaired = stream._impute_group_mean(slab, ~np.isfinite(slab))
        assert (repaired[0:3, 2, 0] == 0.0).all()

    def test_impute_cannot_fix_shape_so_it_quarantines(self, cube, group_map, fitted):
        stream = StreamingDetector(
            fitted, cube.users, group_map, on_bad_day="impute-group-mean"
        )
        out = stream.observe_day(DAYS[0], np.zeros((4, 4)))
        assert isinstance(out, DegradedDayResult)
        assert out.reason == "bad-shape"

    def test_clean_days_identical_across_policies(self, cube, group_map, fitted):
        """Degradation never perturbs the math on healthy input."""
        outputs = {}
        for policy in ("strict", "skip", "impute-group-mean"):
            stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day=policy)
            outputs[policy] = {}
            for d, day in enumerate(DAYS):
                out = stream.observe_day(day, cube.values[:, :, :, d])
                if isinstance(out, DailyResult):
                    outputs[policy][day] = out
        for policy in ("skip", "impute-group-mean"):
            assert set(outputs[policy]) == set(outputs["strict"])
            for day in outputs["strict"]:
                for aspect in outputs["strict"][day].scores:
                    np.testing.assert_array_equal(
                        outputs[policy][day].scores[aspect],
                        outputs["strict"][day].scores[aspect],
                    )

    def test_quarantine_counter_reaches_telemetry(self, cube, group_map, fitted):
        from repro.obs import Telemetry, set_telemetry

        telemetry = Telemetry(enabled=True)
        previous = set_telemetry(telemetry)
        try:
            stream = StreamingDetector(fitted, cube.users, group_map, on_bad_day="skip")
            stream.observe_day(DAYS[0], poison_slab(cube.values[:, :, :, 0], seed=1))
            stream.observe_day(DAYS[1], poison_slab(cube.values[:, :, :, 1], seed=2))
            stream.observe_day(DAYS[2], cube.values[:, :, :, 2])
        finally:
            set_telemetry(previous)
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["stream.days_quarantined"] == 2
        assert counters["streaming.days_total"] == 3
        span = telemetry.find_span("streaming.quarantine_day")
        assert span is not None and span.attributes["reason"] == "non-finite"
