"""A model saved by an older build still loads and scores bit for bit.

``tests/golden/saved_model/`` was written by ``save_model`` together
with the scores that build gave the test days (see
``tests/golden/saved_model_scenario.py``).  Loading it with the current
code, rebuilding the representation and scoring must reproduce those
scores exactly, and training the same config afresh must reproduce the
saved weights exactly.
"""

import json

import numpy as np
import pytest

from repro.core.persistence import attach_representation, load_model
from tests.golden.saved_model_scenario import (
    MODEL_CONFIG,
    MODEL_DIR,
    SCHEMA,
    SCORES_FILE,
    TEST_DAYS,
    TRAIN_DAYS,
    fit_model,
)
from tests.golden.scenario import build_cube, build_group_map


@pytest.fixture(scope="module")
def golden():
    document = json.loads((MODEL_DIR / SCORES_FILE).read_text())
    assert document["schema"] == SCHEMA
    assert document["days"] == [day.isoformat() for day in TEST_DAYS]
    return document


@pytest.fixture(scope="module")
def loaded():
    model = load_model(MODEL_DIR)
    cube = build_cube()
    return attach_representation(model, cube, build_group_map(cube), TRAIN_DAYS)


def test_saved_config_round_trips(loaded):
    assert loaded.config == MODEL_CONFIG


def test_loaded_model_scores_bit_identically(golden, loaded):
    scores = loaded.score(TEST_DAYS)
    assert sorted(scores) == sorted(golden["scores"])
    for aspect, expected in golden["scores"].items():
        expected = np.asarray(expected, dtype=np.float64)
        assert scores[aspect].dtype == np.float64
        assert scores[aspect].tobytes() == expected.tobytes(), aspect


def test_refit_reproduces_saved_weights(loaded):
    fresh = fit_model()
    for aspect in loaded.aspect_names:
        saved_layers = loaded.autoencoder(aspect).network.layers
        fresh_layers = fresh.autoencoder(aspect).network.layers
        for saved, trained in zip(saved_layers, fresh_layers):
            saved_state, trained_state = saved.state_dict(), trained.state_dict()
            assert saved_state.keys() == trained_state.keys()
            for name, value in saved_state.items():
                assert value.tobytes() == trained_state[name].tobytes(), (aspect, name)
