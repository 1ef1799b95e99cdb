"""Metric snapshot exporters: Prometheus text format and append-only JSONL.

The in-process :class:`~repro.obs.telemetry.Telemetry` registry answers
"what happened inside this process"; this module ships that answer
somewhere a monitoring plane can scrape it:

* ``metrics.prom`` -- the latest snapshot in Prometheus text-exposition
  format, atomically replaced on every flush so a scraper (or
  ``node_exporter``'s textfile collector) never reads a torn file.
  Histograms render as Prometheus summaries with ``quantile`` labels
  for p50/p95/p99 plus ``_count`` and ``_sum`` series.
* ``metrics.jsonl`` -- one JSON object appended per flush (sequence
  number, timestamp, counters, gauges, histogram summaries, durable
  counters), the machine-readable flight recorder of the run.

Process-local telemetry metrics reset when a process restarts, so every
flush also carries a ``durable`` section: counters sourced from
checkpointed object state (``StreamingDetector`` day totals,
``Ingestor`` delivery totals).  After a kill-and-resume, the durable
section of the final export equals the uninterrupted run's exactly --
that is the monitoring contract ``docs/OBSERVABILITY.md`` documents and
the test suite pins.

Wire-up: ``--metrics-export DIR --export-every N`` on ``repro stream``
/ ``repro ingest`` hands an exporter to the run driver
(:func:`repro.eval.run.run`), which ticks it once per consumed step --
one observed day, or one consumed delivery -- with the source's
``durable_counters`` (passed uncalled), and flushes once more at
teardown.
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Union

from repro.obs.telemetry import (
    Telemetry,
    get_telemetry,
    summarize_histogram_snapshot,
)

__all__ = [
    "MetricsExporter",
    "render_prometheus",
]

_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))

_NAME_CLEANER = re.compile(r"[^a-zA-Z0-9_]")


def _prom_name(prefix: str, name: str) -> str:
    """A Prometheus-legal series name: dots and dashes become underscores."""
    cleaned = _NAME_CLEANER.sub("_", name)
    if prefix:
        cleaned = f"{prefix}_{cleaned}"
    if not cleaned or not (cleaned[0].isalpha() or cleaned[0] == "_"):
        cleaned = f"_{cleaned}"
    return cleaned


def _finite(value: Any) -> bool:
    try:
        return math.isfinite(float(value))
    except (TypeError, ValueError):
        return False


def render_prometheus(
    counters: Mapping[str, Any],
    gauges: Mapping[str, Any],
    histograms: Mapping[str, Any],
    durable: Optional[Mapping[str, Any]] = None,
    prefix: str = "acobe",
) -> str:
    """Render one metrics snapshot as Prometheus text-exposition format.

    ``histograms`` maps name -> snapshot entry (dict or raw value list);
    each renders as a summary family with p50/p95/p99 quantile labels.
    ``durable`` counters (checkpoint-backed lifetime totals) render as
    gauges because their value survives process restarts that reset the
    process-local counters.
    """
    lines = []
    for name in sorted(counters):
        series = _prom_name(prefix, name)
        lines.append(f"# TYPE {series} counter")
        lines.append(f"{series} {int(counters[name])}")
    for name in sorted(gauges):
        value = gauges[name]
        if value is None or not _finite(value):
            continue
        series = _prom_name(prefix, name)
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {float(value)}")
    for name, value in sorted((durable or {}).items()):
        series = _prom_name(prefix, name)
        lines.append(f"# HELP {series} checkpoint-backed lifetime total")
        lines.append(f"# TYPE {series} gauge")
        lines.append(f"{series} {float(value)}")
    for name in sorted(histograms):
        summary = summarize_histogram_snapshot(histograms[name])
        series = _prom_name(prefix, name)
        lines.append(f"# TYPE {series} summary")
        if summary.get("count", 0):
            for quantile, key in _QUANTILES:
                lines.append(f'{series}{{quantile="{quantile}"}} {summary[key]}')
            lines.append(f"{series}_sum {summary['mean'] * summary['count']}")
        lines.append(f"{series}_count {summary.get('count', 0)}")
    return "\n".join(lines) + "\n"


class MetricsExporter:
    """Periodic Prometheus + JSONL export of telemetry and durable counters.

    Args:
        directory: destination directory; ``metrics.prom`` (latest
            snapshot, atomically replaced) and ``metrics.jsonl`` (one
            line appended per flush) are created inside it.
        every: flush cadence in ticks.  The run driver ticks once per
            observed day of ``repro stream`` and once per consumed
            delivery of ``repro ingest``, so ``every`` means "days" or
            "deliveries" depending on the source.
        prefix: Prometheus series-name prefix (default ``acobe``).

    The exporter is observational by construction: it reads metric
    snapshots and the caller-provided durable counters, and never feeds
    anything back -- detector outputs are bit-identical with or without
    one.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        every: int = 1,
        prefix: str = "acobe",
    ):
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.every = int(every)
        self.prefix = prefix
        self.prom_path = self.directory / "metrics.prom"
        self.jsonl_path = self.directory / "metrics.jsonl"
        self.ticks = 0
        self.flushes = 0

    def tick(
        self,
        telemetry: Optional[Telemetry] = None,
        durable: Union[Mapping[str, Any], Callable[[], Mapping[str, Any]], None] = None,
    ) -> bool:
        """Count one unit of work; flush when the cadence comes due.

        ``durable`` may be a zero-argument callable returning the
        counters; it is then called only when a flush comes due, so a
        per-delivery tick does not build a dict it will not export.
        """
        self.ticks += 1
        if self.ticks % self.every:
            return False
        self.flush(telemetry, durable() if callable(durable) else durable)
        return True

    def flush(
        self,
        telemetry: Optional[Telemetry] = None,
        durable: Optional[Mapping[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Export one snapshot to both formats; returns the JSONL document."""
        telemetry = telemetry if telemetry is not None else get_telemetry()
        snapshot = telemetry.metrics.snapshot()
        durable = {name: float(value) for name, value in (durable or {}).items()}
        document = {
            "seq": self.flushes,
            "ts": round(time.time(), 6),
            "run_id": telemetry.run_id,
            "counters": snapshot["counters"],
            "gauges": snapshot["gauges"],
            "histograms": {
                name: summarize_histogram_snapshot(entry)
                for name, entry in snapshot["histograms"].items()
            },
            "durable": durable,
        }
        with open(self.jsonl_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(document, sort_keys=True) + "\n")
        text = render_prometheus(
            snapshot["counters"],
            snapshot["gauges"],
            snapshot["histograms"],
            durable,
            prefix=self.prefix,
        )
        self._replace_atomically(self.prom_path, text)
        self.flushes += 1
        return document

    @staticmethod
    def _replace_atomically(path: Path, text: str) -> None:
        fd, tmp_name = tempfile.mkstemp(dir=str(path.parent), prefix=".metrics-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
