"""Callback protocol tests: the observable face of ``Sequential.fit``."""

import numpy as np
import pytest

from repro.nn.callbacks import Callback, CallbackList, EpochLogger, TelemetryCallback
from repro.nn.layers import Dense, ReLU, Sigmoid
from repro.nn.network import Sequential
from repro.obs import Telemetry

RNG = np.random.default_rng(11)
X = RNG.normal(size=(24, 6))


def make_net(seed=3):
    return Sequential([Dense(4), ReLU(), Dense(6), Sigmoid()], seed=seed).build(6)


class Recorder(Callback):
    """Collects every hook invocation for assertions."""

    def __init__(self):
        self.begin = None
        self.epochs = []
        self.end = None

    def on_train_begin(self, logs):
        self.begin = dict(logs)

    def on_epoch_end(self, epoch, logs):
        self.epochs.append((epoch, dict(logs)))

    def on_train_end(self, history):
        self.end = history


class TestCallbackList:
    def test_dispatches_to_partial_implementations(self):
        class OnlyEpochs:
            def __init__(self):
                self.seen = []

            def on_epoch_end(self, epoch, logs):
                self.seen.append(epoch)

        only = OnlyEpochs()
        cl = CallbackList([only, None])
        cl.on_train_begin({})  # OnlyEpochs lacks the hook; must not raise
        cl.on_epoch_end(0, {})
        cl.on_train_end(None)
        assert only.seen == [0]

    def test_bool_reflects_contents(self):
        assert not CallbackList()
        assert not CallbackList([None])
        assert CallbackList([Callback()])


class TestFitCallbacks:
    def test_hooks_fire_with_full_logs(self):
        recorder = Recorder()
        history = make_net().fit(
            X, epochs=3, batch_size=8, validation_split=0.25, shuffle=False,
            callbacks=[recorder],
        )
        assert recorder.begin["epochs"] == 3
        assert recorder.begin["batch_size"] == 8
        assert [e for e, _ in recorder.epochs] == [0, 1, 2]
        for epoch, logs in recorder.epochs:
            assert logs["epoch"] == epoch
            assert logs["epochs"] == 3
            assert logs["loss"] > 0.0
            assert logs["val_loss"] > 0.0
            assert logs["grad_norm"] > 0.0
            assert logs["learning_rate"] > 0.0
            assert logs["iterations"] > 0
        assert recorder.end is history
        assert [logs["loss"] for _, logs in recorder.epochs] == history.loss
        assert history.grad_norm == [logs["grad_norm"] for _, logs in recorder.epochs]

    def test_val_loss_none_without_split(self):
        recorder = Recorder()
        make_net().fit(X, epochs=1, callbacks=[recorder])
        assert recorder.epochs[0][1]["val_loss"] is None

    def test_early_stopping_reports_actual_epochs(self):
        recorder = Recorder()
        history = make_net().fit(
            X, epochs=50, batch_size=8, validation_split=0.25,
            early_stopping_patience=1, min_delta=10.0, callbacks=[recorder],
        )
        assert len(recorder.epochs) == history.epochs_trained < 50
        assert recorder.end is history

    def test_callbacks_do_not_change_training(self):
        plain = make_net().fit(X, epochs=4, batch_size=8)
        observed = make_net().fit(X, epochs=4, batch_size=8, callbacks=[Recorder()])
        assert plain.loss == observed.loss
        assert plain.grad_norm == observed.grad_norm


class TestEpochLogger:
    def test_verbose_routes_epoch_lines_through_the_logger(self):
        lines = []
        make_net().fit(
            X, epochs=2, batch_size=8, validation_split=0.25, shuffle=False,
            callbacks=[EpochLogger(sink=lines.append)],
        )
        assert len(lines) == 2
        assert lines[0].startswith("epoch 1/2 loss=")
        assert "val_loss=" in lines[0]
        assert lines[1].startswith("epoch 2/2 loss=")

    def test_verbose_flag_prints_via_default_sink(self, capsys):
        make_net().fit(X, epochs=2, batch_size=8, verbose=True)
        out = capsys.readouterr().out
        assert "epoch 1/2 loss=" in out
        assert "epoch 2/2 loss=" in out
        assert "val_loss" not in out  # no validation split configured

    def test_no_output_without_verbose(self, capsys):
        make_net().fit(X, epochs=2, batch_size=8)
        assert capsys.readouterr().out == ""


class TestTelemetryCallback:
    def test_records_training_dynamics(self):
        telemetry = Telemetry(enabled=True)
        make_net().fit(
            X, epochs=3, batch_size=8, validation_split=0.25,
            callbacks=[TelemetryCallback(telemetry, prefix="aspect")],
        )
        snap = telemetry.metrics.snapshot()
        assert snap["counters"]["aspect.epochs"] == 3
        assert snap["histograms"]["aspect.epoch_loss"]["count"] == 3
        assert snap["histograms"]["aspect.val_loss"]["count"] == 3
        assert snap["gauges"]["aspect.grad_norm"] > 0.0

    def test_defaults_to_the_global_telemetry(self):
        from repro.obs import get_telemetry, set_telemetry

        mine = Telemetry(enabled=True)
        previous = set_telemetry(mine)
        try:
            make_net().fit(X, epochs=1, batch_size=8, callbacks=[TelemetryCallback()])
        finally:
            set_telemetry(previous)
        assert mine.metrics.snapshot()["counters"]["nn.epochs"] == 1
        assert get_telemetry() is previous


class TestFitSpan:
    def test_fit_records_a_span_and_counters(self):
        from repro.obs import set_telemetry

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
