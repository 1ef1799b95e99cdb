"""Telemetry must never change the numerics -- and must merge faithfully.

Two contracts pinned here:

* **Zero numerical impact.**  For the same seed, fitting and scoring
  with telemetry enabled (including memory tracing) is bit-identical to
  fitting with it disabled, in-process and with forked ensemble workers.
* **Worker merge equals serial.**  The counters that workers ship back
  from parallel ensemble training (``nn.*``, ``train.*``) sum to
  exactly the values a serial run records, so the merged picture is a
  faithful account of the fanned-out work.
"""

from datetime import date, timedelta

import numpy as np
import pytest

import repro.nn.parallel as parallel
from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import Telemetry, set_telemetry
from repro.utils.timeutil import TWO_TIMEFRAMES

N_DAYS = 40
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]
TRAIN_DAYS = DAYS[:30]
TEST_DAYS = DAYS[30:]


@pytest.fixture(scope="module")
def cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
            AspectSpec("c", (FeatureSpec("f4", "c"),)),
        ]
    )
    users = [f"u{i}" for i in range(6)]
    values = np.random.default_rng(3).poisson(5.0, size=(6, 4, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


@pytest.fixture(scope="module")
def group_map(cube):
    return {u: ("g1" if i < 3 else "g2") for i, u in enumerate(cube.users)}


def run_pipeline(cube, group_map, telemetry, forked=False):
    """Fit + score + investigate under ``telemetry``; restore the global after.

    ``forked`` trains the ensemble in one forked worker per aspect; this
    tiny fit is below the fork threshold and trains in-process otherwise.
    """
    config = ModelConfig(
        window=5,
        matrix_days=5,
        critic_n=2,
        autoencoder=AutoencoderConfig(
            encoder_units=(8, 4),
            epochs=4,
            batch_size=16,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=1,
        ),
    )
    previous = set_telemetry(telemetry)
    try:
        with pytest.MonkeyPatch.context() as patch:
            if forked:
                patch.setattr(parallel, "_MIN_FORK_WORK", 0)
            model = CompoundBehaviorModel(config)
            model.fit(cube, group_map, TRAIN_DAYS)
        scores = model.score(TEST_DAYS)
        ranking = [e.user for e in model.investigate(TEST_DAYS).entries]
    finally:
        set_telemetry(previous)
    return model, scores, ranking


def ensemble_mode(telemetry):
    return telemetry.find_span("parallel.train_ensemble").attributes["mode"]


def assert_identical(run_a, run_b):
    model_a, scores_a, ranking_a = run_a
    model_b, scores_b, ranking_b = run_b
    assert ranking_a == ranking_b
    assert set(scores_a) == set(scores_b)
    for aspect in scores_a:
        np.testing.assert_array_equal(scores_a[aspect], scores_b[aspect])
    for aspect, history in model_a.training_histories.items():
        other = model_b.training_histories[aspect]
        assert history.loss == other.loss
        assert history.grad_norm == other.grad_norm


class TestZeroNumericalImpact:
    @pytest.mark.parametrize("forked", [False, True])
    def test_enabled_vs_disabled_bit_identical(self, cube, group_map, forked):
        off = run_pipeline(cube, group_map, Telemetry(enabled=False), forked=forked)
        telemetry = Telemetry(enabled=True)
        on = run_pipeline(cube, group_map, telemetry, forked=forked)
        assert ensemble_mode(telemetry) == ("parallel" if forked else "serial")
        assert_identical(off, on)

    def test_memory_tracing_bit_identical(self, cube, group_map):
        off = run_pipeline(cube, group_map, Telemetry(enabled=False))
        mem = run_pipeline(
            cube, group_map, Telemetry(enabled=True, trace_memory=True)
        )
        assert_identical(off, mem)
        import tracemalloc

        if tracemalloc.is_tracing():  # don't leak tracing into other tests
            tracemalloc.stop()


class TestCapturedShape:
    def test_fit_and_score_record_stage_spans(self, cube, group_map):
        telemetry = Telemetry(enabled=True)
        run_pipeline(cube, group_map, telemetry)
        for name in (
            "detector.fit",
            "detector.representation",
            "representation.build",
            "parallel.train_ensemble",
            "train.aspect",
            "nn.fit",
            "detector.score",
            "detector.investigate",
        ):
            assert telemetry.find_span(name) is not None, name
        fit_span = telemetry.find_span("detector.fit")
        assert fit_span.attributes["aspects"] == 3
        counters = telemetry.metrics.snapshot()["counters"]
        assert counters["train.aspects_total"] == 3
        assert counters["nn.fits_total"] == 3
        assert counters["nn.epochs_total"] == 3 * 4  # 3 aspects x 4 epochs


class TestWorkerMergeEqualsSerial:
    # Only these families are recorded on both the serial and the
    # worker paths; parallel.* bookkeeping exists on the parent only.
    SHARED_PREFIXES = ("nn.", "train.")

    def shared(self, snapshot):
        return {
            kind: {
                name: value
                for name, value in snapshot[kind].items()
                if name.startswith(self.SHARED_PREFIXES)
            }
            for kind in ("counters", "histograms")
        }

    def test_merged_worker_counters_equal_serial(self, cube, group_map):
        serial = Telemetry(enabled=True)
        run_pipeline(cube, group_map, serial)
        forked = Telemetry(enabled=True)
        run_pipeline(cube, group_map, forked, forked=True)
        assert (ensemble_mode(serial), ensemble_mode(forked)) == ("serial", "parallel")

        serial_shared = self.shared(serial.metrics.snapshot())
        parallel_shared = self.shared(forked.metrics.snapshot())
        assert serial_shared["counters"] == parallel_shared["counters"]
        assert serial_shared["counters"]["nn.epochs_total"] == 12
        # Histogram series may interleave across workers; the multiset
        # of observations must still match the serial run exactly.
        assert set(serial_shared["histograms"]) == set(parallel_shared["histograms"])
        for name, values in serial_shared["histograms"].items():
            assert sorted(values) == sorted(parallel_shared["histograms"][name]), name

    def test_worker_span_trees_attach_under_ensemble_span(self, cube, group_map):
        telemetry = Telemetry(enabled=True)
        run_pipeline(cube, group_map, telemetry, forked=True)
        ensemble = telemetry.find_span("parallel.train_ensemble")
        assert ensemble.attributes["mode"] == "parallel"
        aspect_spans = [s for s in ensemble.walk() if s.name == "train.aspect"]
        assert {s.attributes["aspect"] for s in aspect_spans} == {"a", "b", "c"}
        merged = telemetry.metrics.snapshot()["counters"]
        assert merged["parallel.snapshots_merged"] == 3  # one per task
