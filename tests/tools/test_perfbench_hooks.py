"""Every function perfbench's tracer hooks must still exist where it looks.

``perfbench/tracing.py`` times a traced run by patching the functions
its ``SPANS`` table names, and ``perfbench/workloads.py`` calls
``model.engine.critic.investigate`` directly.  A refactor that renames
or moves any of them, or stops routing training through them, would
otherwise fail only the traced benchmark run; these tests make it fail
the suite.
"""

import importlib
import importlib.util
import math
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
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


def tiny_cube():
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(4)]
    values = np.random.default_rng(3).poisson(5.0, size=(4, 3, 2, N_DAYS)).astype(float)
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


def tiny_config(epochs=1):
    ae = AutoencoderConfig(
        encoder_units=(4, 2),
        epochs=epochs,
        batch_size=8,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=1,
    )
    return ModelConfig(window=4, matrix_days=4, critic_n=2, n_jobs=1, autoencoder=ae)


@pytest.fixture(scope="module")
def tiny_model():
    model = CompoundBehaviorModel(tiny_config())
    model.fit(tiny_cube(), None, DAYS[:14])
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


def test_traced_in_process_fit_reaches_every_nn_span(tracing, monkeypatch):
    # Record each autoencoder fit's geometry to count its mini-batch steps.
    fits = []
    fit = Autoencoder.fit

    def recording_fit(self, x, *args, **kwargs):
        history = fit(self, x, *args, **kwargs)
        fits.append((len(x), self.config.batch_size, history.epochs_trained))
        return history

    monkeypatch.setattr(Autoencoder, "fit", recording_fit)
    model = CompoundBehaviorModel(tiny_config(epochs=2))
    tracer = tracing.Tracer()
    with tracer.installed():
        model.fit(tiny_cube(), None, DAYS[:14])
    steps = sum(epochs * math.ceil(n / batch) for n, batch, epochs in fits)
    assert len(fits) == len(model.aspect_names) and steps > 0
    assert tracer.calls["nn.optimizer"] == tracer.counts["nn.optimizer"] == steps
    for cls in tracing.NN_LAYER_CLASSES:
        for method in ("forward", "backward"):
            assert tracer.calls[f"nn.{cls}.{method}"] > 0, f"nn.{cls}.{method}"
