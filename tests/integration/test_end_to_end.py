"""End-to-end detection-quality tests on the small CERT benchmark.

These are the paper's headline claims at test scale: ACOBE ranks the
injected insiders near the top of the investigation list and beats the
single-day Baseline.  They are slow (a minute or so on one core) and
marked accordingly.
"""

import numpy as np
import pytest

from repro.core import make_acobe, make_baseline, make_one_day
from repro.eval.experiments import evaluate_run, run_model

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def acobe_run(small_benchmark):
    b = small_benchmark
    model = make_acobe(
        ae_config=b.config.autoencoder,
        window=b.config.window,
        matrix_days=b.config.matrix_days,
        train_stride=b.config.train_stride,
    )
    return run_model(model, b)


class TestAcobeDetection:
    def test_first_victim_found_with_no_false_positives(self, small_benchmark, acobe_run):
        metrics = evaluate_run(acobe_run, small_benchmark.labels)
        assert metrics.fps_before_tps[0] == 0

    def test_auc_high(self, small_benchmark, acobe_run):
        metrics = evaluate_run(acobe_run, small_benchmark.labels)
        assert metrics.auc >= 0.85

    def test_victims_top_device_aspect(self, small_benchmark, acobe_run):
        """Both scenarios abuse thumb drives, so the two injected insiders
        occupy the top of the device-aspect ranking."""
        victims = set(small_benchmark.abnormal_users)
        scores = acobe_run.scores["device"].max(axis=1)
        top_two = {acobe_run.users[i] for i in np.argsort(-scores)[:2]}
        assert top_two == victims

    def test_victim_scores_spike_in_test_period(self, small_benchmark, acobe_run):
        """The abnormal user's anomaly-score trend rises above its own
        baseline once abnormal patterns enter the matrix (Figure 5b)."""
        [inj1] = [i for i in small_benchmark.dataset.injections if i.scenario == 1]
        trend = acobe_run.score_trend("device", inj1.user)
        days = acobe_run.test_days
        before = [s for d, s in zip(days, trend) if d < inj1.start]
        after = [s for d, s in zip(days, trend) if d >= inj1.start]
        assert max(after) > 2.0 * max(before)

    def test_investigation_list_complete(self, small_benchmark, acobe_run):
        assert sorted(acobe_run.investigation.users()) == small_benchmark.cube.users


class TestBaselineComparison:
    def test_baseline_pipeline_runs_end_to_end(self, small_benchmark):
        """The Liu-et-al. Baseline runs on its coarse 24-frame features.

        At this 20-user test scale the Baseline is not reliably worse
        than ACOBE (its weaknesses need a population of busy users to
        show); the quantitative Figure-6 comparison lives in
        benchmarks/test_fig6_roc_pr.py at default scale.
        """
        b = small_benchmark
        baseline = make_baseline(ae_config=b.config.autoencoder, train_stride=b.config.train_stride)
        baseline_run = run_model(baseline, b)  # fits the coarse cube
        metrics = evaluate_run(baseline_run, b.labels)
        assert 0.0 <= metrics.auc <= 1.0
        assert len(baseline_run.investigation.users()) == len(b.cube.users)
        assert set(baseline_run.scores) == {"device", "file", "http", "logon"}

    def test_one_day_waveform_oscillates_weekly(self, small_benchmark):
        """Figure 5(c): single-day reconstruction shows weekday/weekend
        waves for everyone rather than isolating the insider."""
        b = small_benchmark
        model = make_one_day(ae_config=b.config.autoencoder, train_stride=b.config.train_stride)
        run = run_model(model, b)
        scores = run.scores["http"]
        weekday = [j for j, d in enumerate(run.test_days) if d.weekday() < 5]
        weekend = [j for j, d in enumerate(run.test_days) if d.weekday() >= 5]
        assert scores[:, weekday].mean() != pytest.approx(scores[:, weekend].mean(), rel=0.05)
