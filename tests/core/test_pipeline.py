"""Stage tests: the scoring and critic stages every detection path goes through.

Bit-identity of the paths themselves is pinned elsewhere: stream ==
batch by ``tests/core/test_streaming.py``, resume at arbitrary cuts by
``tests/core/test_checkpoint_property.py``, and all of them against a
fixture by ``tests/integration/test_golden_stream.py``.
"""

from datetime import date, timedelta

import numpy as np

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.pipeline import CriticStage, DetectionPipeline, ScoringStage
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import Telemetry, set_telemetry
from repro.utils.timeutil import TWO_TIMEFRAMES

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=2,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 26
N_TRAIN_DAYS = 18


def build_scenario(n_users: int, seed: int = 4):
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]
    users = [f"u{i}" for i in range(n_users)]
    values = (
        np.random.default_rng(seed)
        .poisson(5.0, size=(n_users, 3, 2, N_DAYS))
        .astype(float)
    )
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
    half = max(1, n_users // 2)
    group_map = {u: ("g1" if i < half else "g2") for i, u in enumerate(users)}
    return cube, group_map, days


def fit(cube, group_map, days):
    model = CompoundBehaviorModel(
        ModelConfig(window=4, matrix_days=4, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, group_map, days[:N_TRAIN_DAYS])
    return model


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.get("children", []))


def test_default_run_emits_stage_spans():
    cube, group_map, days = build_scenario(6)
    telemetry = Telemetry(enabled=True)
    previous = set_telemetry(telemetry)
    try:
        model = fit(cube, group_map, days)
        model.score(model.valid_anchor_days(days))
        model.investigate(model.valid_anchor_days(days))
    finally:
        set_telemetry(previous)
    span_names = {span["name"] for span in _walk_spans(telemetry.snapshot()["spans"])}
    assert {"detector.representation", "pipeline.critic"} <= span_names
    assert "pipeline.representation" not in span_names


def test_engine_property_exposes_pipeline():
    cube, group_map, days = build_scenario(5)
    model = fit(cube, group_map, days)
    engine = model.engine
    assert isinstance(engine, DetectionPipeline)
    assert isinstance(engine.scoring, ScoringStage)
    assert isinstance(engine.critic, CriticStage)
    # Stateless stages: one engine per model, never rebuilt by a refit.
    model.fit(cube, group_map, days[:N_TRAIN_DAYS])
    assert model.engine is engine
