"""Shared fixtures for the figure-regeneration benchmark suite.

Every benchmark runs against one shared CERT benchmark dataset and a
cache of fitted model runs, so the expensive work (simulation, feature
extraction, autoencoder training) happens once per model per session.

Scale is controlled by ``ACOBE_BENCH_SCALE`` (small | default | paper);
``default`` fits a laptop core, ``paper`` matches the paper's 929-user
population and 512/256/128/64 autoencoders.  Ensemble training uses
the library default, one forked worker per aspect once the fit is
large enough (results are identical at any worker count).

Every test collected from this directory carries the ``benchmark``
marker, so ``pytest -m "not benchmark"`` excludes the suite wholesale.

Each figure's regenerated text output is printed and also written to
``benchmarks/results/<name>.txt`` so EXPERIMENTS.md can reference it.
Performance benchmarks additionally persist machine-readable
measurements as ``benchmarks/results/BENCH_<name>.json`` (the
``acobe.bench`` schema from :mod:`repro.obs.report`), which is what the
perf trajectory across PRs is tracked from.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Optional

import pytest

from repro.obs import build_bench_report, write_report

from repro.core import (
    make_acobe,
    make_all_in_one,
    make_base_ff,
    make_baseline,
    make_no_group,
    make_one_day,
)
from repro.eval.experiments import build_cert_benchmark, cert_config, run_model

RESULTS_DIR = Path(__file__).parent / "results"


def pytest_collection_modifyitems(items):
    """Mark everything under benchmarks/ with the ``benchmark`` marker."""
    for item in items:
        item.add_marker(pytest.mark.benchmark)


@pytest.fixture(scope="session")
def bench_config():
    return cert_config()


@pytest.fixture(scope="session")
def cert_bench(bench_config):
    return build_cert_benchmark(bench_config)


class ModelRunCache:
    """Fit-once cache of model runs on the shared benchmark."""

    def __init__(self, benchmark):
        self.benchmark = benchmark
        self._runs = {}
        self._models = {}

    def _factory(self, name):
        cfg = self.benchmark.config
        common = dict(
            ae_config=cfg.autoencoder,
            train_stride=cfg.train_stride,
            n_jobs=cfg.n_jobs,
        )
        window = dict(window=cfg.window, matrix_days=cfg.matrix_days)
        factories = {
            "ACOBE": lambda: make_acobe(**common, **window),
            "No-Group": lambda: make_no_group(**common, **window),
            "1-Day": lambda: make_one_day(**common),
            "All-in-1": lambda: make_all_in_one(**common, **window),
            "Baseline": lambda: make_baseline(**common),
            "Base-FF": lambda: make_base_ff(**common),
        }
        return factories[name]

    def run(self, name):
        if name not in self._runs:
            model = self._factory(name)()
            cube = (
                self.benchmark.coarse_cube() if name == "Baseline" else self.benchmark.cube
            )
            self._runs[name] = run_model(model, self.benchmark, cube=cube)
            self._models[name] = model
        return self._runs[name]

    def model(self, name):
        self.run(name)
        return self._models[name]


@pytest.fixture(scope="session")
def runs(cert_bench):
    return ModelRunCache(cert_bench)


def save_result(name: str, text: str) -> None:
    """Print a figure's regenerated text and persist it under results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)


def save_result_json(
    name: str,
    metrics: Mapping[str, Any],
    params: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
) -> Path:
    """Persist one benchmark measurement as ``results/BENCH_<name>.json``.

    The document is the schema-validated ``acobe.bench`` envelope, the
    same family the run-report exporter writes, so the performance
    trajectory is machine-readable across PRs.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    report = build_bench_report(name, metrics, params=params, meta=meta)
    return write_report(RESULTS_DIR / f"BENCH_{name}.json", report)
