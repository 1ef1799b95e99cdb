"""Per-epoch observability of ``Sequential.fit``.

What a fit shows while it trains: the ``verbose`` epoch line, the
returned history, and the ``nn.fit`` span and counters.  None of it
changes the trained weights.
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
    def test_val_loss_none_without_split(self, capsys):
        history = make_net().fit(X, epochs=1, verbose=True)
        assert history.val_loss == []
        assert history.best_val_loss is None
        assert "val_loss" not in capsys.readouterr().out

    def test_early_stopping_reports_actual_epochs(self, capsys):
        history = make_net().fit(
            X, epochs=50, batch_size=8, validation_split=0.25,
            early_stopping_patience=1, verbose=True,
        )
        assert history.epochs_trained < 50
        assert len(history.val_loss) == len(history.grad_norm) == history.epochs_trained
        assert len(capsys.readouterr().out.splitlines()) == history.epochs_trained

    def test_verbose_does_not_change_training(self):
        plain = make_net().fit(X, epochs=4, batch_size=8)
        printed = make_net().fit(X, epochs=4, batch_size=8, verbose=True)
        assert plain.loss == printed.loss
        assert plain.grad_norm == printed.grad_norm
        assert all(g > 0.0 for g in plain.grad_norm)


class TestEpochLogger:
    def test_verbose_prints_one_line_per_epoch(self, capsys):
        history = make_net().fit(
            X, epochs=2, batch_size=8, validation_split=0.25, verbose=True
        )
        assert capsys.readouterr().out.splitlines() == [
            f"epoch {i + 1}/2 loss={loss:.6f} val_loss={val:.6f}"
            for i, (loss, val) in enumerate(zip(history.loss, history.val_loss))
        ]

    def test_verbose_flag_prints_via_default_sink(self, capsys):
        make_net().fit(X, epochs=2, batch_size=8, verbose=True)
        out = capsys.readouterr().out
        assert "epoch 1/2 loss=" in out
        assert "epoch 2/2 loss=" in out
        assert "val_loss" not in out  # no validation split configured

    def test_no_output_without_verbose(self, capsys):
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
