"""Every function perfbench's tracer hooks must still exist where it looks.

``perfbench/tracing.py`` times a traced run by patching the functions
its ``SPANS`` table names, and ``perfbench/workloads.py`` calls
``model.engine.critic.investigate`` directly.  A refactor that renames
or moves any of them would otherwise fail only the traced benchmark
run; these tests make it fail the suite.
"""

import importlib
import importlib.util
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

TRACING_PATH = Path(__file__).resolve().parent.parent.parent / "perfbench" / "tracing.py"

N_DAYS = 20
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tiny_model():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(4)]
    values = np.random.default_rng(3).poisson(5.0, size=(4, 3, 2, N_DAYS)).astype(float)
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)
    ae = AutoencoderConfig(
        encoder_units=(4, 2),
        epochs=1,
        batch_size=8,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=1,
    )
    model = CompoundBehaviorModel(ModelConfig(window=4, matrix_days=4, critic_n=2, autoencoder=ae))
    model.fit(cube, None, DAYS[:14])
    return model


def test_every_span_target_resolves(tracing):
    for module_name, class_name, attr, name, _count, _keep in tracing.SPANS:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        assert attr in vars(owner), f"span {name!r}: {module_name} {class_name} {attr} is gone"
        assert callable(getattr(owner, attr))


def test_engine_critic_investigates(tiny_model):
    anchors = tiny_model.valid_anchor_days(DAYS[14:])
    scores = tiny_model.score(anchors)
    investigation = tiny_model.engine.critic.investigate(
        {a: s.max(axis=1) for a, s in scores.items()}, tiny_model.users, tiny_model.config.critic_n
    )
    expected = tiny_model.investigate(anchors)
    assert [e.user for e in investigation.entries] == [e.user for e in expected.entries]


def test_traced_batch_run_records_the_stage_spans(tracing, tiny_model):
    tracer = tracing.Tracer()
    anchors = tiny_model.valid_anchor_days(DAYS[14:])
    with tracer.installed():
        tiny_model.investigate(anchors)
    for name in ("detector.investigate", "detector.score", "pipeline.score", "pipeline.critic"):
        assert tracer.calls[name] >= 1, name
    rows = len(tiny_model.users) * len(anchors) * len(tiny_model.aspect_names)
    assert tracer.counts["pipeline.score"] == rows
