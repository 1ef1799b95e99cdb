"""Per-epoch observability of ``Sequential.fit``.

What a fit shows while it trains: the returned history and the
``nn.fit`` span and counters.  None of it changes the trained weights.
"""

import numpy as np

from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.obs import Telemetry, set_telemetry

RNG = np.random.default_rng(11)
X = RNG.normal(size=(24, 6))


def make_net(seed=3):
    return Sequential([Dense(4), ReLU(), Dense(6), Sigmoid()], seed=seed).build(6)


class TestFitCallbacks:
    def test_val_loss_none_without_split(self):
        history = make_net().fit(X, epochs=1)
        assert history.val_loss == []
        assert history.best_val_loss is None

    def test_early_stopping_reports_actual_epochs(self):
        history = make_net().fit(
            X, epochs=50, batch_size=8, validation_split=0.25, early_stopping_patience=1
        )
        assert history.epochs_trained < 50
        assert len(history.val_loss) == len(history.grad_norm) == history.epochs_trained


class TestEpochLogger:
    def test_no_output_without_verbose(self, capsys):
        # A fit prints nothing; its history and the run report carry the losses.
        make_net().fit(X, epochs=2, batch_size=8)
        assert capsys.readouterr().out == ""


class TestFitSpan:
    def test_fit_records_a_span_and_counters(self):
        mine = Telemetry(enabled=True)
        previous = set_telemetry(mine)
        try:
            make_net().fit(X, epochs=2, batch_size=8)
        finally:
            set_telemetry(previous)
        span = mine.find_span("nn.fit")
        assert span is not None
        assert span.attributes["samples"] == 24
        assert span.attributes["epochs_trained"] == 2
        counters = mine.metrics.snapshot()["counters"]
        assert counters["nn.fits_total"] == 1
        assert counters["nn.epochs_total"] == 2
        assert counters["nn.batches_total"] == 2 * 3  # 24 rows / batch 8
