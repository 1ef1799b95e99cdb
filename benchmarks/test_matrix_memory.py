"""Peak-memory benchmark: zero-copy matrix views vs materialization.

At paper settings (``matrix_days = 30``) every deviation day appears in
up to 30 anchored matrices, so materializing every anchored matrix
(:meth:`repro.core.representation.MatrixView.materialize`) amplifies
memory by ~30x over the underlying value array.  The representation pipeline
streams the same vectors out of one shared array through
``sliding_window_view`` windows, so its peak is the base array plus a
single mini-batch.

This benchmark builds both paths over the same synthetic deviation
cube, measures peak traced memory (``tracemalloc`` tracks numpy's
allocations) and build/consume wall-clock, asserts the view path stays
under half the materialized peak, and records the numbers to
``benchmarks/results/matrix_memory.txt`` plus the machine-readable
``benchmarks/results/BENCH_matrix_memory.json``.
"""

import gc
import resource
import time
import tracemalloc
from datetime import date, timedelta

import numpy as np

from repro.core.deviation import DeviationConfig, compute_deviations
from repro.core.representation import RepresentationPipeline
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.utils.timeutil import TWO_TIMEFRAMES

from benchmarks.conftest import save_result, save_result_json

N_USERS = 32
N_DAYS = 150
WINDOW = 30
MATRIX_DAYS = 30
BATCH = 256
PEAK_RATIO_CEILING = 0.5


def make_deviations():
    fs = FeatureSet(
        [
            AspectSpec("http", (FeatureSpec("f1", "http"), FeatureSpec("f2", "http"))),
            AspectSpec("file", (FeatureSpec("f3", "file"), FeatureSpec("f4", "file"))),
        ]
    )
    users = [f"u{i:03d}" for i in range(N_USERS)]
    days = [date(2010, 1, 1) + timedelta(days=i) for i in range(N_DAYS)]
    values = (
        np.random.default_rng(23)
        .poisson(5.0, size=(N_USERS, 4, 2, N_DAYS))
        .astype(float)
    )
    cube = MeasurementCube(values, users, fs, TWO_TIMEFRAMES, days)
    group_map = {u: f"g{i % 4}" for i, u in enumerate(users)}
    return compute_deviations(cube, group_map, DeviationConfig(window=WINDOW))


def traced(fn):
    """Run ``fn`` under tracemalloc; return (result, peak_bytes, seconds)."""
    gc.collect()
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, peak, elapsed


def test_view_path_halves_peak_memory():
    dev = make_deviations()
    anchors = dev.days[MATRIX_DAYS - 1 :]

    vectors, peak_mat, t_mat = traced(
        lambda: RepresentationPipeline.from_deviations(dev)
        .view(anchors, MATRIX_DAYS)
        .materialize()
    )
    n_vectors = vectors.shape[0] * vectors.shape[1]
    dim = vectors.shape[2]
    materialized_bytes = vectors.nbytes
    checksum_mat = float(vectors.sum())
    del vectors

    def consume_view():
        pipeline = RepresentationPipeline.from_deviations(dev)
        view = pipeline.view(anchors, MATRIX_DAYS)
        checksum = 0.0
        for batch in view.batches(BATCH):
            checksum += float(batch.sum())
        return pipeline.nbytes, checksum

    (base_bytes, checksum_view), peak_view, t_view = traced(consume_view)

    # Same floats flowed through both paths.
    np.testing.assert_allclose(checksum_view, checksum_mat, rtol=1e-12)
    assert peak_view < PEAK_RATIO_CEILING * peak_mat, (
        f"view peak {peak_view:,} B is not under "
        f"{PEAK_RATIO_CEILING} x materialized peak {peak_mat:,} B"
    )

    mib = 1024 * 1024
    ru_maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    save_result_json(
        "matrix_memory",
        metrics={
            "materialized_peak_bytes": int(peak_mat),
            "view_peak_bytes": int(peak_view),
            "peak_ratio": peak_view / peak_mat,
            "materialized_bytes": int(materialized_bytes),
            "base_array_bytes": int(base_bytes),
            "amplification": materialized_bytes / base_bytes,
            "materialized_build_seconds": t_mat,
            "view_build_consume_seconds": t_view,
            "ru_maxrss_bytes": int(ru_maxrss_kib) * 1024,
        },
        params={
            "users": N_USERS,
            "days": N_DAYS,
            "window": WINDOW,
            "matrix_days": MATRIX_DAYS,
            "batch": BATCH,
            "peak_ratio_ceiling": PEAK_RATIO_CEILING,
        },
    )
    save_result(
        "matrix_memory",
        "\n".join(
            [
                f"users={N_USERS} days={N_DAYS} window={WINDOW} "
                f"matrix_days={MATRIX_DAYS} batch={BATCH}",
                f"pooled vectors: {n_vectors} x {dim} "
                f"({materialized_bytes / mib:.1f} MiB materialized, "
                f"{base_bytes / mib:.1f} MiB shared base array, "
                f"{materialized_bytes / base_bytes:.1f}x amplification)",
                f"materialized path: peak {peak_mat / mib:.1f} MiB, "
                f"build {t_mat * 1000:.0f} ms",
                f"view path:         peak {peak_view / mib:.1f} MiB, "
                f"build+consume {t_view * 1000:.0f} ms",
                f"peak ratio view/materialized: {peak_view / peak_mat:.3f} "
                f"(ceiling {PEAK_RATIO_CEILING})",
                f"process ru_maxrss (informational): {ru_maxrss_kib / 1024:.1f} MiB",
            ]
        ),
    )
