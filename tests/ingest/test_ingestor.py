"""Ingestor semantics: watermark, lateness policies, dedup, backpressure."""

import json
from datetime import date, datetime, timedelta

import numpy as np
import pytest

from repro.ingest import (
    IngestBackpressureError,
    IngestConfig,
    IngestError,
    Ingestor,
    LateEventError,
    SealedSlab,
    SlabBuilder,
    WatermarkClock,
)
from repro.logs.schema import DeviceEvent
from repro.obs import Telemetry, set_telemetry
from repro.utils.timeutil import WORKING_HOURS

USERS = ["u0", "u1"]
D = date(2010, 3, 1)


def connect(day_offset, user="u0", host="H1", hour=10):
    day = D + timedelta(days=day_offset)
    return DeviceEvent(datetime(day.year, day.month, day.day, hour), user, "connect", host)


def make_ingestor(**overrides):
    defaults = dict(allowed_lateness_days=1, start_day=D)
    defaults.update(overrides)
    return Ingestor(SlabBuilder(USERS), None, IngestConfig(**defaults))


class TestWatermarkClock:
    def test_empty_clock_has_no_watermark(self):
        clock = WatermarkClock(1)
        assert clock.watermark is None
        assert clock.seal_through is None

    def test_watermark_trails_max_event_day(self):
        clock = WatermarkClock(2)
        clock.advance(D + timedelta(days=5))
        clock.advance(D + timedelta(days=3))  # monotone: no regression
        assert clock.max_event_day == D + timedelta(days=5)
        assert clock.watermark == D + timedelta(days=3)
        assert clock.seal_through == D + timedelta(days=2)

    def test_negative_lateness_rejected(self):
        with pytest.raises(ValueError):
            WatermarkClock(-1)


class TestConfigValidation:
    def test_policy_must_be_known(self):
        with pytest.raises(ValueError, match="late_policy"):
            IngestConfig(late_policy="vanish")

    def test_quarantine_path_pairing(self):
        with pytest.raises(ValueError, match="quarantine_path"):
            IngestConfig(late_policy="quarantine-file")
        with pytest.raises(ValueError, match="quarantine_path"):
            IngestConfig(late_policy="drop", quarantine_path="q.jsonl")

    def test_window_must_hold_watermark(self):
        with pytest.raises(ValueError, match="max_open_days"):
            IngestConfig(allowed_lateness_days=4, max_open_days=4)


class TestSealing:
    def test_day_seals_when_watermark_passes(self):
        ingestor = make_ingestor(allowed_lateness_days=0)
        assert ingestor.push(connect(0)) == []
        results = ingestor.push(connect(1))  # day 1 arrives: day 0 is final
        assert [r.day for r in results] == [D]
        assert isinstance(results[0], SealedSlab)
        assert results[0].n_records == 1

    def test_lateness_one_keeps_previous_day_open(self):
        ingestor = make_ingestor()
        assert ingestor.push(connect(0)) == []
        assert ingestor.push(connect(1)) == []  # day 0 may still trickle in
        results = ingestor.push(connect(2))
        assert [r.day for r in results] == [D]

    def test_gap_days_seal_as_zero_slabs(self):
        ingestor = make_ingestor(allowed_lateness_days=0)
        ingestor.push(connect(0))
        results = ingestor.push(connect(3))
        assert [r.day for r in results] == [D, D + timedelta(days=1), D + timedelta(days=2)]
        assert np.all(results[1].slab == 0.0)

    def test_out_of_order_within_tolerance_is_not_late(self):
        ingestor = make_ingestor()
        ingestor.push(connect(1))
        assert ingestor.push(connect(0)) == []  # one day behind: in tolerance
        assert ingestor.events_late == 0

    def test_flush_seals_through_max_event_day(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0))
        ingestor.push(connect(1))
        results = ingestor.flush()
        assert [r.day for r in results] == [D, D + timedelta(days=1)]
        assert ingestor.cursor == D + timedelta(days=1)

    def test_flush_until_backfills_trailing_empty_days(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0))
        results = ingestor.flush(until=D + timedelta(days=2))
        assert [r.day for r in results] == [D, D + timedelta(days=1), D + timedelta(days=2)]
        assert np.all(results[2].slab == 0.0)

    def test_flush_with_nothing_to_do(self):
        assert make_ingestor().flush() == []
        assert Ingestor(SlabBuilder(USERS)).flush() == []

    def test_events_before_start_day_are_late(self):
        ingestor = make_ingestor()
        ingestor.push(connect(-1))
        assert ingestor.events_late == 1


class TestLatePolicies:
    def _sealed_then_late(self, **overrides):
        ingestor = make_ingestor(allowed_lateness_days=0, **overrides)
        ingestor.push(connect(0))
        ingestor.push(connect(1))  # seals day 0
        return ingestor

    def test_drop_counts_and_discards(self):
        ingestor = self._sealed_then_late()
        assert ingestor.push(connect(0, host="H9")) == []
        assert ingestor.events_late == 1
        assert ingestor.events_pushed == 3

    def test_quarantine_file_appends_json_lines(self, tmp_path):
        quarantine = tmp_path / "late" / "q.jsonl"
        ingestor = self._sealed_then_late(
            late_policy="quarantine-file", quarantine_path=quarantine
        )
        ingestor.push(connect(0, host="H9"))
        ingestor.push(connect(0, host="H8"))
        rows = [json.loads(line) for line in quarantine.read_text().splitlines()]
        assert [row["host"] for row in rows] == ["H9", "H8"]
        assert all(row["type"] == "device" for row in rows)

    def test_raise_policy_does_not_consume(self):
        ingestor = self._sealed_then_late(late_policy="raise")
        before = ingestor.events_pushed
        with pytest.raises(LateEventError, match="sealed day"):
            ingestor.push(connect(0, host="H9"))
        assert ingestor.events_pushed == before
        assert ingestor.events_late == 0


class TestDedup:
    def test_same_fingerprint_collapses(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0), "r1")
        ingestor.push(connect(0), "r1")
        assert ingestor.events_duplicate == 1
        assert ingestor.events_pushed == 2
        [result] = ingestor.flush()
        f = ingestor.builder.feature_set.index_of("device-connect")
        assert result.slab[0, f, 0] == 1.0

    def test_content_fingerprint_fallback(self):
        # Without an explicit fingerprint, identical events collapse.
        ingestor = make_ingestor()
        ingestor.push(connect(0))
        ingestor.push(connect(0))
        assert ingestor.events_duplicate == 1

    def test_distinct_fingerprints_do_not_collapse(self):
        ingestor = make_ingestor()
        ingestor.push(connect(0), "r1")
        ingestor.push(connect(0), "r2")
        assert ingestor.events_duplicate == 0


class TestBackpressure:
    def test_open_day_window_bound(self):
        ingestor = make_ingestor(allowed_lateness_days=1, max_open_days=2)
        ingestor.push(connect(0))
        with pytest.raises(IngestBackpressureError, match="max_open_days"):
            ingestor.push(connect(5))

    def test_buffered_events_bound_and_recovery(self):
        ingestor = make_ingestor(max_buffered_events=2)
        ingestor.push(connect(0), "r1")
        ingestor.push(connect(0, host="H2"), "r2")
        before = (ingestor.events_pushed, ingestor.cursor)
        with pytest.raises(IngestBackpressureError, match="max_buffered_events"):
            ingestor.push(connect(1), "r3")
        # Not consumed: counters and cursor untouched; flush() drains and
        # the same delivery then succeeds.
        assert (ingestor.events_pushed, ingestor.cursor) == before
        ingestor.flush()
        assert ingestor.push(connect(1), "r3") == []
        assert ingestor.events_pushed == 3


class TestRefusedDelivery:
    def test_uncovered_hour_leaves_ingestor_untouched(self):
        # Only working hours are covered, so a 20:00 event has no frame.
        # It must be refused before the clock moves or anything seals.
        ingestor = Ingestor(
            SlabBuilder(["u1"], timeframes=(WORKING_HOURS,)),
            None,
            IngestConfig(allowed_lateness_days=0, start_day=D),
        )
        ingestor.push(connect(0, user="u1"), "r1")
        before = (
            ingestor.cursor, ingestor.watermark, ingestor.days_sealed,
            ingestor.events_pushed, ingestor.builder.open_days(),
            ingestor.builder.buffered_records,
        )
        with pytest.raises(ValueError, match="no time-frame covers hour 20"):
            ingestor.push(connect(2, user="u1", hour=20), "r2")
        after = (
            ingestor.cursor, ingestor.watermark, ingestor.days_sealed,
            ingestor.events_pushed, ingestor.builder.open_days(),
            ingestor.builder.buffered_records,
        )
        assert after == before
        assert before[2] == 0 and before[4] == [D]
        # A covered delivery for the same day then seals the two days
        # before it and returns them to the caller.
        sealed = ingestor.push(connect(2, user="u1"), "r3")
        assert [result.day for result in sealed] == [D, D + timedelta(days=1)]
        assert ingestor.days_sealed == 2


class TestBufferedRecords:
    @staticmethod
    def assert_running_count(ingestor):
        builder = ingestor.builder
        expected = sum(builder.records_in(day) for day in builder.open_days())
        assert builder.buffered_records == expected

    def test_running_count_equals_sum_over_open_days(self):
        ingestor = make_ingestor(max_buffered_events=3)
        ingestor.push(connect(0), "r1")                   # push
        self.assert_running_count(ingestor)
        ingestor.push(connect(0), "r1")                   # duplicate
        self.assert_running_count(ingestor)
        ingestor.push(connect(1), "r2")
        ingestor.push(connect(2), "r3")                   # seals day 0
        assert ingestor.days_sealed == 1
        self.assert_running_count(ingestor)
        ingestor.push(connect(2, host="H2"), "r4")
        with pytest.raises(IngestBackpressureError):      # refusal
            ingestor.push(connect(2, host="H3"), "r5")
        self.assert_running_count(ingestor)
        assert ingestor.builder.buffered_records == 3
        ingestor.push(connect(2, host="H2"), "r4")        # duplicate at the bound
        assert ingestor.events_duplicate == 2
        self.assert_running_count(ingestor)

        doc, arrays = ingestor.export_state()             # export
        self.assert_running_count(ingestor)
        restored = make_ingestor(max_buffered_events=3)
        restored.restore_state(json.loads(json.dumps(doc)), arrays)  # restore
        self.assert_running_count(restored)
        assert restored.builder.buffered_records == 3

        restored.flush()
        self.assert_running_count(restored)
        assert restored.builder.buffered_records == 0


class TestTelemetry:
    def test_counters_flow(self):
        telemetry = Telemetry(enabled=True)
        set_telemetry(telemetry)
        try:
            ingestor = make_ingestor(allowed_lateness_days=0)
            ingestor.push(connect(0), "r1")
            ingestor.push(connect(0), "r1")  # duplicate
            ingestor.push(connect(1), "r2")  # seals day 0
            ingestor.push(connect(0), "r3")  # late
            metrics = telemetry.metrics.snapshot()
            assert metrics["counters"]["ingest.events"] == 4
            assert metrics["counters"]["ingest.events_duplicate"] == 1
            assert metrics["counters"]["ingest.events_late"] == 1
            assert metrics["counters"]["ingest.days_sealed"] == 1
            assert metrics["histograms"]["ingest.seal_latency_seconds"]["count"] == 1
            assert metrics["gauges"]["ingest.open_days"] == 1
        finally:
            set_telemetry(Telemetry(enabled=False))

    def test_open_days_gauge_tracks_span_at_every_push(self):
        telemetry = Telemetry(enabled=True)
        set_telemetry(telemetry)
        try:
            ingestor = make_ingestor(allowed_lateness_days=2)
            offsets = [0, 1, 0, 3, 2, 2, 1, 5, 4, 5, 3, 6]
            for i, offset in enumerate(offsets):
                ingestor.push(connect(offset, host=f"H{i}"), f"r{i}")
                assert telemetry.metrics.gauge("ingest.open_days").value == ingestor.open_day_span
            doc, arrays = ingestor.export_state()
            # A resumed ingestor under fresh telemetry publishes on its
            # first consumed delivery, even one that does not move the clock.
            fresh = Telemetry(enabled=True)
            set_telemetry(fresh)
            resumed = make_ingestor(allowed_lateness_days=2)
            resumed.restore_state(doc, arrays)
            resumed.push(connect(5, host="H-new"), "r-new")
            assert fresh.metrics.gauge("ingest.open_days").value == resumed.open_day_span == 3
        finally:
            set_telemetry(Telemetry(enabled=False))


class TestDetectorMismatch:
    def test_user_axis_must_match(self):
        class FakeDetector:
            users = ["someone-else"]

        with pytest.raises(ValueError, match="user axis"):
            Ingestor(SlabBuilder(USERS), FakeDetector(), IngestConfig())


class TestDetectorFailure:
    """An exception from the detector closes the ingestor: the day it was
    scoring is sealed in the builder but not passed by the cursor, so
    nothing may push, flush or checkpoint that torn state."""

    class FirstDayFails:
        users = USERS

        def __init__(self):
            self.days = []

        def observe_day(self, day, slab):
            self.days.append(day)
            if len(self.days) == 1:
                raise RuntimeError("scoring failed")
            return None

    def test_first_failure_reraised_then_every_call_fails_closed(self):
        detector = self.FirstDayFails()
        ingestor = Ingestor(
            SlabBuilder(USERS), detector, IngestConfig(allowed_lateness_days=0, start_day=D)
        )
        assert ingestor.push(connect(0)) == []
        with pytest.raises(RuntimeError, match="scoring failed") as original:
            ingestor.push(connect(1))  # seals day 0, whose scoring raises
        later_calls = {
            "advancing push": lambda: ingestor.push(connect(3)),
            "same-day push": lambda: ingestor.push(connect(1, user="u1")),
            "late push": lambda: ingestor.push(connect(0, user="u1")),
            "flush": ingestor.flush,
            "export_state": ingestor.export_state,
        }
        for name, call in later_calls.items():
            with pytest.raises(IngestError, match=D.isoformat()) as closed:
                call()
            assert closed.value.__cause__ is original.value, name
        assert detector.days == [D]
        assert ingestor.cursor == D - timedelta(days=1)
