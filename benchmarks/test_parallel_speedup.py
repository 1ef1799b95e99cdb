"""Serial-vs-parallel wall-clock benchmark of the ensemble engine.

Trains the same >= 4-aspect autoencoder ensemble with ``n_jobs=1`` and
``n_jobs=4`` through :func:`repro.nn.parallel.train_ensemble`, verifies
the outputs are bit-identical, and records both wall-clock times (and
the speedup) to ``benchmarks/results/parallel_speedup.txt`` plus the
machine-readable ``benchmarks/results/BENCH_parallel_speedup.json``.

Both runs train with BLAS pinned to one thread per task
(:func:`repro.nn.parallel.blas_threads`), so the four workers do not
oversubscribe the cores whatever ``OPENBLAS_NUM_THREADS`` says.

The >= 1.5x speedup assertion only runs on machines with at least four
CPU cores; on fewer the harness records the measurement without failing.
"""

import os
import time

import numpy as np
import pytest

from repro.nn.autoencoder import AutoencoderConfig
from repro.nn.parallel import AspectTask, derive_seed, train_ensemble

from .conftest import save_result, save_result_json

N_ASPECTS = 6
N_JOBS = 4
SPEEDUP_FLOOR = 1.5


def build_tasks():
    """A CERT-shaped ensemble: six aspects of 30-day compound matrices."""
    rng = np.random.default_rng(17)
    tasks = []
    for index in range(N_ASPECTS):
        config = AutoencoderConfig(
            encoder_units=(128, 64, 32),
            epochs=25,
            batch_size=32,
            early_stopping_patience=None,
            validation_split=0.0,
            seed=derive_seed(17, index),
            dtype="float32",
        )
        data = rng.random((180, 240), dtype=np.float32)
        tasks.append(AspectTask(f"aspect{index}", data, config))
    return tasks


def timed_train(tasks, n_jobs):
    start = time.perf_counter()
    trained = train_ensemble(tasks, n_jobs=n_jobs)
    return time.perf_counter() - start, trained


def test_parallel_speedup_and_parity():
    tasks = build_tasks()
    serial_s, serial = timed_train(tasks, n_jobs=1)
    parallel_s, parallel = timed_train(tasks, n_jobs=N_JOBS)
    speedup = serial_s / parallel_s if parallel_s > 0 else float("inf")

    cores = os.cpu_count() or 1
    lines = [
        "Parallel ensemble-training speedup (train_ensemble)",
        f"aspects={N_ASPECTS}  encoder=128x64x32  epochs=25  samples=180  dim=240",
        f"cpu_cores={cores}",
        f"serial   (n_jobs=1): {serial_s:8.2f} s",
        f"parallel (n_jobs={N_JOBS}): {parallel_s:8.2f} s",
        f"speedup: {speedup:.2f}x",
    ]

    # Correctness first: parallel must be bit-identical to serial.
    assert list(serial) == list(parallel)
    for task in tasks:
        np.testing.assert_array_equal(
            serial[task.name].autoencoder.reconstruction_error(task.data),
            parallel[task.name].autoencoder.reconstruction_error(task.data),
        )
        assert serial[task.name].history.loss == parallel[task.name].history.loss
    lines.append("parity: parallel scores and loss curves bit-identical to serial")

    save_result("parallel_speedup", "\n".join(lines))
    save_result_json(
        "parallel_speedup",
        metrics={
            "serial_seconds": serial_s,
            "parallel_seconds": parallel_s,
            "speedup": speedup,
            "parity": True,
        },
        params={
            "aspects": N_ASPECTS,
            "n_jobs": N_JOBS,
            "encoder_units": [128, 64, 32],
            "epochs": 25,
            "samples": 180,
            "dim": 240,
            "speedup_floor": SPEEDUP_FLOOR,
        },
        meta={
            "cpu_cores": cores,
            "blas_threads_per_task": 1,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        },
    )

    if cores < N_JOBS:
        pytest.skip(
            f"only {cores} core(s): speedup not measurable, results recorded"
        )
    assert speedup >= SPEEDUP_FLOOR, (
        f"expected >= {SPEEDUP_FLOOR}x speedup with n_jobs={N_JOBS} "
        f"on {cores} cores, measured {speedup:.2f}x"
    )
