"""Wall-clock overhead of enabled telemetry on the training hot path.

The observability contract is "no numerical impact, negligible time
impact": with telemetry *disabled* the pipeline pays one attribute
check per instrumentation point; with it *enabled* each stage records
spans, counters and histograms.  This benchmark trains (and scores)
the same small ensemble with telemetry off and on, takes the best of
``REPEATS`` runs per mode to suppress scheduler noise, asserts

* the scores are bit-identical across modes, and
* enabled wall time stays under ``1 + OVERHEAD_CEILING`` of disabled,

and records both timings to ``benchmarks/results/telemetry_overhead.txt``
plus the machine-readable ``BENCH_telemetry_overhead.json``.
"""

import time

import numpy as np

from repro.nn.autoencoder import AutoencoderConfig
from repro.nn.parallel import AspectTask, derive_seed, train_ensemble
from repro.obs import Telemetry, set_telemetry

from .conftest import save_result, save_result_json

N_ASPECTS = 4
REPEATS = 3
OVERHEAD_CEILING = 0.05


def build_tasks():
    rng = np.random.default_rng(29)
    tasks = []
    for index in range(N_ASPECTS):
        config = AutoencoderConfig(
            encoder_units=(64, 32, 16),
            epochs=15,
            batch_size=32,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=derive_seed(29, index),
            dtype="float32",
        )
        tasks.append(AspectTask(f"aspect{index}", rng.random((160, 180), dtype=np.float32), config))
    return tasks


def run_once(tasks, enabled):
    previous = set_telemetry(Telemetry(enabled=enabled))
    try:
        start = time.perf_counter()
        trained = train_ensemble(tasks, n_jobs=1)
        elapsed = time.perf_counter() - start
    finally:
        set_telemetry(previous)
    scores = np.concatenate(
        [trained[t.name].autoencoder.reconstruction_error(t.data) for t in tasks]
    )
    return elapsed, scores


def test_enabled_telemetry_overhead_under_ceiling():
    tasks = build_tasks()
    run_once(tasks, enabled=False)  # warm caches before timing anything

    off_times, on_times = [], []
    off_scores = on_scores = None
    for _ in range(REPEATS):
        elapsed, off_scores = run_once(tasks, enabled=False)
        off_times.append(elapsed)
        elapsed, on_scores = run_once(tasks, enabled=True)
        on_times.append(elapsed)

    # Telemetry must never touch the numerics.
    np.testing.assert_array_equal(off_scores, on_scores)

    best_off, best_on = min(off_times), min(on_times)
    overhead = best_on / best_off - 1.0
    text = "\n".join(
        [
            "Enabled-telemetry overhead (train_ensemble, serial)",
            f"aspects={N_ASPECTS}  encoder=64x32x16  epochs=15  repeats={REPEATS}",
            f"disabled (best): {best_off:8.3f} s",
            f"enabled  (best): {best_on:8.3f} s",
            f"overhead: {overhead * 100:+.2f}% (ceiling {OVERHEAD_CEILING * 100:.0f}%)",
            "parity: scores bit-identical with telemetry on vs off",
        ]
    )
    save_result("telemetry_overhead", text)
    save_result_json(
        "telemetry_overhead",
        metrics={
            "disabled_best_seconds": best_off,
            "enabled_best_seconds": best_on,
            "overhead_fraction": overhead,
            "parity": True,
        },
        params={
            "aspects": N_ASPECTS,
            "encoder_units": [64, 32, 16],
            "epochs": 15,
            "repeats": REPEATS,
            "overhead_ceiling": OVERHEAD_CEILING,
        },
    )
    assert overhead < OVERHEAD_CEILING, (
        f"enabled telemetry costs {overhead * 100:.2f}% wall time "
        f"(ceiling {OVERHEAD_CEILING * 100:.0f}%)"
    )
