"""Unit tests for the repro.nn.workspace buffer arena."""

import numpy as np
import pytest

from repro.nn.workspace import Workspace


class TestAcquire:
    def test_returns_requested_shape_and_dtype(self):
        ws = Workspace()
        buf = ws.acquire((3, 4), np.float32)
        assert buf.shape == (3, 4)
        assert buf.dtype == np.float32

    def test_scalar_shape(self):
        ws = Workspace()
        assert ws.acquire(5).shape == (5,)

    def test_distinct_buffers_within_generation(self):
        ws = Workspace()
        a = ws.acquire((2, 2))
        b = ws.acquire((2, 2))
        assert a is not b

    def test_recycles_in_acquisition_order_across_generations(self):
        ws = Workspace()
        a = ws.acquire((2, 2))
        b = ws.acquire((2, 2))
        ws.reset()
        assert ws.acquire((2, 2)) is a
        assert ws.acquire((2, 2)) is b

    def test_pools_are_keyed_by_shape_and_dtype(self):
        ws = Workspace()
        a64 = ws.acquire((2, 2), np.float64)
        a32 = ws.acquire((2, 2), np.float32)
        ab = ws.acquire((2, 2), np.bool_)
        assert len({id(a64), id(a32), id(ab)}) == 3
        ws.reset()
        assert ws.acquire((2, 2), np.float64) is a64
        assert ws.acquire((2, 2), np.float32) is a32
        assert ws.acquire((2, 2), np.bool_) is ab

    def test_growth_within_generation_then_full_reuse(self):
        ws = Workspace()
        first = [ws.acquire((4,)) for _ in range(3)]
        ws.reset()
        second = [ws.acquire((4,)) for _ in range(3)]
        assert all(a is b for a, b in zip(first, second))
        stats = ws.stats()
        assert stats.misses == 3
        assert stats.hits == 3

    def test_clear_drops_buffers(self):
        ws = Workspace()
        a = ws.acquire((8, 8))
        ws.clear()
        assert ws.stats().live_bytes == 0
        assert ws.stats().buffers == 0
        ws.reset()
        assert ws.acquire((8, 8)) is not a


class TestStats:
    def test_counters(self):
        ws = Workspace()
        ws.acquire((2, 3))
        ws.reset()
        ws.acquire((2, 3))
        ws.acquire((5,), np.float32)
        stats = ws.stats()
        assert stats.hits == 1
        assert stats.misses == 2
        assert stats.buffers == 2
        assert stats.generations == 1
        expected = 2 * 3 * 8 + 5 * 4
        assert stats.live_bytes == expected
        assert stats.peak_bytes == expected
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_zero_when_unused(self):
        assert Workspace().stats().hit_rate == 0.0

    def test_publish_duck_typed(self):
        class FakeMetric:
            def __init__(self):
                self.value = 0

            def inc(self, n):
                self.value += n

            def set(self, v):
                self.value = v

        class FakeTelemetry:
            def __init__(self):
                self.metrics = {}

            def counter(self, name):
                return self.metrics.setdefault(name, FakeMetric())

            gauge = counter

        ws = Workspace()
        ws.acquire((2, 2))
        ws.reset()
        ws.acquire((2, 2))
        telemetry = FakeTelemetry()
        ws.publish(telemetry)
        assert telemetry.metrics["nn.arena.hits"].value == 1
        assert telemetry.metrics["nn.arena.misses"].value == 1
        assert telemetry.metrics["nn.arena.peak_bytes"].value == 32
        assert telemetry.metrics["nn.arena.buffers"].value == 1

