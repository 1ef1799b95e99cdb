"""Metric exporters: Prometheus rendering, JSONL flushes, durable counters."""

import json

import pytest

from repro.obs import MetricsExporter, Telemetry, render_prometheus


class TestRenderPrometheus:
    def test_counter_gauge_histogram_families(self):
        t = Telemetry(enabled=True)
        t.counter("stream.days_total").inc(3)
        t.gauge("pool.workers").set(2)
        for v in (0.1, 0.2, 0.3, 0.4):
            t.histogram("day_seconds").observe(v)
        snap = t.metrics.snapshot()
        text = render_prometheus(snap["counters"], snap["gauges"], snap["histograms"])
        assert "# TYPE acobe_stream_days_total counter" in text
        assert "acobe_stream_days_total 3" in text
        assert "# TYPE acobe_pool_workers gauge" in text
        assert "acobe_pool_workers 2.0" in text
        assert "# TYPE acobe_day_seconds summary" in text
        assert 'acobe_day_seconds{quantile="0.5"}' in text
        assert 'acobe_day_seconds{quantile="0.95"}' in text
        assert 'acobe_day_seconds{quantile="0.99"}' in text
        assert "acobe_day_seconds_count 4" in text
        assert text.endswith("\n")

    def test_durable_counters_render_as_gauges(self):
        text = render_prometheus({}, {}, {}, durable={"stream.days_observed": 7})
        assert "# TYPE acobe_stream_days_observed gauge" in text
        assert "acobe_stream_days_observed 7.0" in text
        assert "checkpoint-backed" in text

    def test_names_are_sanitized_and_non_finite_gauges_skipped(self):
        text = render_prometheus(
            {"a.b-c/d": 1},
            {"bad": float("nan"), "worse": float("inf"), "none": None, "ok": 2.0},
            {},
        )
        assert "acobe_a_b_c_d 1" in text
        assert "bad" not in text and "worse" not in text and "none" not in text
        assert "acobe_ok 2.0" in text

    def test_empty_histogram_renders_zero_count_only(self):
        text = render_prometheus({}, {}, {"h": {"values": [], "count": 0}})
        assert "acobe_h_count 0" in text
        assert "quantile" not in text


class TestMetricsExporter:
    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ValueError, match="every"):
            MetricsExporter(tmp_path, every=0)

    def test_tick_flushes_on_cadence(self, tmp_path):
        t = Telemetry(enabled=True)
        exporter = MetricsExporter(tmp_path, every=3)
        flushed = [exporter.tick(t) for _ in range(7)]
        assert flushed == [False, False, True, False, False, True, False]
        lines = exporter.jsonl_path.read_text().splitlines()
        assert len(lines) == 2
        assert [json.loads(line)["seq"] for line in lines] == [0, 1]

    def test_flush_writes_both_formats(self, tmp_path):
        t = Telemetry(enabled=True)
        t.counter("c").inc(2)
        t.histogram("h").observe(1.5)
        exporter = MetricsExporter(tmp_path)
        document = exporter.flush(t, durable={"stream.days_observed": 4})
        assert document["counters"] == {"c": 2}
        assert document["histograms"]["h"]["count"] == 1
        assert document["durable"] == {"stream.days_observed": 4.0}
        assert document["run_id"] == t.run_id
        prom = exporter.prom_path.read_text()
        assert "acobe_c 2" in prom
        assert "acobe_stream_days_observed 4.0" in prom
        on_disk = json.loads(exporter.jsonl_path.read_text())
        assert on_disk == document

    def test_prom_file_is_replaced_not_appended(self, tmp_path):
        t = Telemetry(enabled=True)
        exporter = MetricsExporter(tmp_path)
        t.counter("c").inc()
        exporter.flush(t)
        t.counter("c").inc()
        exporter.flush(t)
        prom = exporter.prom_path.read_text()
        value_lines = [l for l in prom.splitlines() if l.startswith("acobe_c ")]
        assert value_lines == ["acobe_c 2"]
        # No leftover temp files from the atomic replace.
        assert [p.name for p in tmp_path.iterdir() if p.name.startswith(".metrics-")] == []
