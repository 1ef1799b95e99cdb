"""Golden-file regression test for the scoring paths.

``tests/golden/streaming_small.json`` pins the expected output of a
small deterministic scenario.  Three independent paths must reproduce
it bit-exactly:

* the batch scorer (``CompoundBehaviorModel.score``),
* a fresh :class:`StreamingDetector` fed day by day,
* a stream killed mid-run and rebuilt from an on-disk checkpoint.

If this test fails after an intentional scoring change, regenerate the
fixture with ``PYTHONPATH=src python -m tests.golden.scenario --write``
and review the diff like any other code change.
"""

import json
from datetime import date

import numpy as np
import pytest

from repro.core.checkpoint import resume_streaming, save_checkpoint
from repro.core.streaming import DailyResult, StreamingDetector
from tests.golden.scenario import (
    DAYS,
    GOLDEN_PATH,
    GOLDEN_SCHEMA,
    build_cube,
    build_group_map,
    fit_model,
    result_to_doc,
    run_streaming,
)


@pytest.fixture(scope="module")
def golden():
    document = json.loads(GOLDEN_PATH.read_text())
    assert document["schema"] == GOLDEN_SCHEMA
    return document


@pytest.fixture(scope="module")
def scenario():
    cube = build_cube()
    group_map = build_group_map(cube)
    model = fit_model(cube, group_map)
    return cube, group_map, model


def assert_matches_golden(results, golden):
    """``results`` is {date: DailyResult}; must equal the golden days."""
    expected_days = [date.fromisoformat(doc["day"]) for doc in golden["days"]]
    assert sorted(results) == expected_days
    for doc in golden["days"]:
        produced = result_to_doc(results[date.fromisoformat(doc["day"])])
        assert produced["investigation"] == doc["investigation"]
        for aspect, values in doc["scores"].items():
            # JSON stores IEEE doubles losslessly, so equality here is
            # bit-exactness, not approximation.
            assert np.array_equal(produced["scores"][aspect], values), (
                f"{doc['day']}/{aspect} diverged from golden fixture"
            )


def test_streaming_reproduces_golden(scenario, golden):
    cube, group_map, model = scenario
    assert_matches_golden(run_streaming(model, cube, group_map), golden)


def test_batch_reproduces_golden(scenario, golden):
    cube, group_map, model = scenario
    anchor_days = model.valid_anchor_days(DAYS)
    batch = model.score(anchor_days)
    by_day = {doc["day"]: doc for doc in golden["days"]}
    assert [d.isoformat() for d in anchor_days] == list(by_day)
    for j, day in enumerate(anchor_days):
        for aspect, arr in batch.items():
            assert np.array_equal(
                arr[:, j], by_day[day.isoformat()]["scores"][aspect]
            ), f"batch {day}/{aspect} diverged from golden fixture"


@pytest.mark.parametrize("cut", [10, 20])
def test_resumed_streaming_reproduces_golden(scenario, golden, tmp_path, cut):
    """Kill the stream after ``cut`` days, resume from disk, finish."""
    cube, group_map, model = scenario
    stream = StreamingDetector(model, cube.users, group_map)
    results = {}
    for d in range(cut):
        out = stream.observe_day(DAYS[d], cube.values[:, :, :, d])
        if isinstance(out, DailyResult):
            results[DAYS[d]] = out
    save_checkpoint(stream, tmp_path / "ckpt")
    del stream  # the "crash"

    resumed = resume_streaming(model, tmp_path / "ckpt")
    assert resumed.last_day == DAYS[cut - 1]
    for d in range(cut, len(DAYS)):
        out = resumed.observe_day(DAYS[d], cube.values[:, :, :, d])
        if isinstance(out, DailyResult):
            results[DAYS[d]] = out
    assert_matches_golden(results, golden)
