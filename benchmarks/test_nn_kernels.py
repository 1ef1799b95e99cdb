"""nn training throughput benchmark.

Trains the paper's 512/256/128/64 autoencoder architecture through
:meth:`repro.nn.network.Sequential.fit` and records the wall-clock time,
the mini-batch steps per second and the workspace arena's hit rate and
peak bytes to ``benchmarks/results/nn_kernels.txt`` plus the
machine-readable ``benchmarks/results/BENCH_nn_kernels.json`` (gated
against the committed envelope by ``tools/check_bench_regression.py``).

One fit's time moves by 10% and more between runs on a shared host, so
the bench fits :data:`REPEATS` fresh networks on the same seed and
records the median (``fit_seconds``; ``steps_per_sec`` derives from it)
and the spread between the quartiles (``fit_iqr_s``, a name the
regression gate compares informationally, never as a pass/fail metric).
"""

import os
import time

import numpy as np

from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.obs.diff import metric_direction

from .conftest import save_result, save_result_json

ENCODER_UNITS = (512, 256, 128, 64)
N_SAMPLES = 2048
DIM = 512
EPOCHS = 3
BATCH_SIZE = 32
REPEATS = 5


def build_network(seed=11):
    """The paper's mirrored 512/256/128/64 autoencoder as a Sequential."""
    layers = []
    widths = list(ENCODER_UNITS) + list(ENCODER_UNITS[-2::-1]) + [DIM]
    for width in widths[:-1]:
        layers.append(Dense(width))
        layers.append(ReLU())
    layers.append(Dense(widths[-1]))
    layers.append(Sigmoid())
    net = Sequential(layers, seed=seed)
    net.build(DIM)
    return net


def test_nn_kernel_throughput():
    x = np.random.default_rng(7).random((N_SAMPLES, DIM))
    times = []
    for _ in range(REPEATS):
        net = build_network()
        start = time.perf_counter()
        history = net.fit(x, epochs=EPOCHS, batch_size=BATCH_SIZE, validation_split=0.0)
        times.append(time.perf_counter() - start)
        assert np.all(np.isfinite(history.loss))
    q1, seconds, q3 = (float(q) for q in np.percentile(times, [25, 50, 75]))
    assert metric_direction("fit_iqr_s") is None  # the spread is never gated

    steps = EPOCHS * ((N_SAMPLES + BATCH_SIZE - 1) // BATCH_SIZE)
    steps_per_sec = steps / seconds
    stats = net.workspace.stats()
    cores = os.cpu_count() or 1
    lines = [
        "nn training throughput (Sequential.fit)",
        f"architecture={'x'.join(map(str, ENCODER_UNITS))} (mirrored)  "
        f"samples={N_SAMPLES}  dim={DIM}  epochs={EPOCHS}  batch={BATCH_SIZE}",
        f"cpu_cores={cores}",
        f"fit: median {seconds:8.2f} s of {REPEATS}, IQR {q3 - q1:.2f} s  "
        f"({steps} steps, {steps_per_sec:.1f} steps/s at the median)",
        f"arena: hit_rate={stats.hit_rate:.3f}  buffers={stats.buffers}  "
        f"peak_bytes={stats.peak_bytes}",
    ]
    save_result("nn_kernels", "\n".join(lines))
    save_result_json(
        "nn_kernels",
        metrics={
            "fit_seconds": seconds,
            "fit_iqr_s": q3 - q1,
            "steps_per_sec": steps_per_sec,
            "arena_hit_rate": stats.hit_rate,
            "arena_peak_bytes": stats.peak_bytes,
        },
        params={
            "encoder_units": list(ENCODER_UNITS),
            "samples": N_SAMPLES,
            "dim": DIM,
            "epochs": EPOCHS,
            "batch_size": BATCH_SIZE,
            "optimizer": "adadelta",
            "steps": steps,
            "repeats": REPEATS,
        },
        meta={"cpu_cores": cores},
    )
