"""Figure 2: the compound behavioral deviation matrix.

Regenerates an example matrix -- individual + group blocks, F features,
T=2 time-frames, D window days -- for one user, and benchmarks matrix
assembly over the whole population.
"""

import numpy as np

from benchmarks.conftest import save_result
from repro.core.deviation import DeviationConfig, compute_deviations
from repro.core.representation import RepresentationPipeline
from repro.eval.reporting import heatmap


def test_fig2_compound_matrix(benchmark, cert_bench):
    cfg = cert_bench.config
    deviations = compute_deviations(
        cert_bench.cube,
        cert_bench.group_map,
        DeviationConfig(window=cfg.window),
    )
    anchors = deviations.days[cfg.matrix_days - 1 :]
    http_indices = deviations.feature_set.aspect_indices("http")

    def assemble():
        pipeline = RepresentationPipeline.from_deviations(
            deviations, include_group=True, apply_weights=True
        )
        return pipeline.view(anchors[-5:], cfg.matrix_days, feature_indices=http_indices)

    view = benchmark(assemble)

    # Regenerate the figure: one user's matrix, unflattened, as heatmaps.
    user = cert_bench.abnormal_users[0]
    day = anchors[-1]
    matrix = view.matrix_of(user, day)
    n_features = len(http_indices)
    names = [deviations.feature_set.feature_names[i] for i in http_indices]
    lines = [
        f"Compound behavioral deviation matrix of {user} anchored at {day}",
        f"F={n_features} features x T=2 time-frames x D={cfg.matrix_days} days,",
        "stacked [individual; group], values mapped to [0, 1]:",
    ]
    blocks = [("individual", matrix[:n_features]), ("group", matrix[n_features:])]
    for block_name, block in blocks:
        for t, frame in enumerate(("working-hours", "off-hours")):
            lines.append(f"\n[{block_name} behaviour, {frame}]")
            lines.append(heatmap(block[:, t, :], row_labels=names, lo=0.0, hi=1.0))
    save_result("fig2_compound_matrix", "\n".join(lines))

    # Shape checks: both blocks present, unit interval, full flatten dim.
    vectors = view.materialize()
    assert view.dim == 2 * n_features * 2 * cfg.matrix_days
    assert 0.0 <= vectors.min() and vectors.max() <= 1.0
