"""The golden saved model: a tiny ``save_model`` directory and its scores.

``tests/golden/saved_model/`` holds a model fitted on the golden
streaming scenario's cube (``tests/golden/scenario.py``) with a (4, 2)
autoencoder, written by :func:`repro.core.persistence.save_model`, plus
``scores.json``: the per-aspect scores that model gave the test days.
``tests/integration/test_golden_saved_model.py`` loads the directory
with the current code and asserts the scores are bit-identical, so a
model saved by an older build keeps loading and scoring the same.

Regenerate it only when the saved-model format or the scores change on
purpose, and then with the build whose models must keep loading::

    PYTHONPATH=src python -m tests.golden.saved_model_scenario --write
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from repro.core.detector import CompoundBehaviorModel, ModelConfig
from repro.core.persistence import save_model
from repro.nn.autoencoder import AutoencoderConfig
from tests.golden.scenario import DAYS, N_TRAIN_DAYS, build_cube, build_group_map

MODEL_DIR = Path(__file__).with_name("saved_model")
SCORES_FILE = "scores.json"
SCHEMA = "acobe.golden_saved_model"

MODEL_CONFIG = ModelConfig(
    window=5,
    matrix_days=5,
    critic_n=2,
    autoencoder=AutoencoderConfig(
        encoder_units=(4, 2),
        epochs=3,
        batch_size=16,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=3,
    ),
)
TRAIN_DAYS = DAYS[:N_TRAIN_DAYS]
TEST_DAYS = DAYS[N_TRAIN_DAYS:]


def fit_model() -> CompoundBehaviorModel:
    cube = build_cube()
    model = CompoundBehaviorModel(MODEL_CONFIG)
    model.fit(cube, build_group_map(cube), TRAIN_DAYS)
    return model


def scores_document(model: CompoundBehaviorModel) -> dict:
    """Per-aspect ``(users, test days)`` scores as exact JSON floats."""
    scores = model.score(TEST_DAYS)
    return {
        "schema": SCHEMA,
        "version": 1,
        "days": [day.isoformat() for day in TEST_DAYS],
        "scores": {
            aspect: [[float(x) for x in row] for row in array]
            for aspect, array in sorted(scores.items())
        },
    }


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true", help=f"regenerate {MODEL_DIR.name}/ in place"
    )
    args = parser.parse_args(argv)
    model = fit_model()
    document = scores_document(model)
    if args.write:
        shutil.rmtree(MODEL_DIR, ignore_errors=True)
        save_model(model, MODEL_DIR)
        (MODEL_DIR / SCORES_FILE).write_text(json.dumps(document, indent=2) + "\n")
        print(f"wrote {MODEL_DIR}")
    else:
        print(json.dumps(document, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
