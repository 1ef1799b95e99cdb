"""The golden streaming scenario: one small, fully deterministic run.

This module is the single source of truth for the fixture committed at
``tests/golden/streaming_small.json``.  The integration test
(``tests/integration/test_golden_stream.py``) rebuilds the scenario from
scratch and asserts that the batch scorer, a fresh stream, and a
kill-and-resumed stream all reproduce the committed expectations.

Regenerate the fixture (only after an *intentional* scoring change)::

    PYTHONPATH=src python -m tests.golden.scenario --write

The scenario is the same tiny setup the streaming unit tests use: six
users in two groups, three features across two aspects, 35 days of
seeded Poisson counts, a (8, 4) autoencoder trained for 3 epochs with
seed 1.  Everything downstream of ``numpy.random.default_rng(4)`` is
deterministic, so the run is bit-reproducible.
"""

from __future__ import annotations

import json
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.streaming import DailyResult, StreamingDetector
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import AutoencoderConfig
from repro.utils.timeutil import TWO_TIMEFRAMES

GOLDEN_PATH = Path(__file__).with_name("streaming_small.json")
GOLDEN_SCHEMA = "acobe.golden_stream"

TINY_AE = AutoencoderConfig(
    encoder_units=(8, 4),
    epochs=3,
    batch_size=16,
    early_stopping_patience=None,
    validation_split=0.0,
    seed=1,
)

N_DAYS = 35
N_USERS = 6
N_TRAIN_DAYS = 25
DAYS = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]


def build_cube() -> MeasurementCube:
    fs = FeatureSet(
        [
            AspectSpec("a", (FeatureSpec("f1", "a"), FeatureSpec("f2", "a"))),
            AspectSpec("b", (FeatureSpec("f3", "b"),)),
        ]
    )
    users = [f"u{i}" for i in range(N_USERS)]
    values = (
        np.random.default_rng(4).poisson(5.0, size=(N_USERS, 3, 2, N_DAYS)).astype(float)
    )
    return MeasurementCube(values, users, fs, TWO_TIMEFRAMES, DAYS)


def build_group_map(cube: MeasurementCube) -> dict:
    return {u: ("g1" if i < 3 else "g2") for i, u in enumerate(cube.users)}


def fit_model(cube: MeasurementCube, group_map: dict) -> CompoundBehaviorModel:
    model = CompoundBehaviorModel(
        ModelConfig(window=5, matrix_days=5, critic_n=2, autoencoder=TINY_AE)
    )
    model.fit(cube, group_map, DAYS[:N_TRAIN_DAYS])
    return model


def run_streaming(model, cube, group_map) -> dict:
    """Feed every day through a fresh stream; return {date: DailyResult}."""
    stream = StreamingDetector(model, cube.users, group_map)
    results = {}
    for d, day in enumerate(DAYS):
        out = stream.observe_day(day, cube.values[:, :, :, d])
        if isinstance(out, DailyResult):
            results[day] = out
    return results


def result_to_doc(result: DailyResult) -> dict:
    """The golden-file record for one scored day.

    Scores are stored as exact ``repr`` round-trippable floats (json
    preserves IEEE doubles losslessly), investigation entries as
    (user, priority) in ranked order.
    """
    return {
        "day": result.day.isoformat(),
        "investigation": [
            {"user": e.user, "priority": e.priority}
            for e in result.investigation.entries
        ],
        "scores": {
            aspect: [float(x) for x in arr] for aspect, arr in sorted(result.scores.items())
        },
    }


def generate_golden() -> dict:
    cube = build_cube()
    group_map = build_group_map(cube)
    model = fit_model(cube, group_map)
    results = run_streaming(model, cube, group_map)
    return {
        "schema": GOLDEN_SCHEMA,
        "version": 1,
        "scenario": {
            "users": list(cube.users),
            "n_days": N_DAYS,
            "train_days": N_TRAIN_DAYS,
            "window": model.config.window,
            "matrix_days": model.config.matrix_days,
        },
        "days": [result_to_doc(results[day]) for day in sorted(results)],
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {GOLDEN_PATH.name} in place"
    )
    args = parser.parse_args(argv)
    document = generate_golden()
    if args.write:
        GOLDEN_PATH.write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {GOLDEN_PATH} ({len(document['days'])} scored days)")
    else:
        print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
