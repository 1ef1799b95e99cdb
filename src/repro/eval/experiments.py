"""End-to-end experiment harnesses for every figure in the paper.

Two harness families:

* **CERT benchmark** (Section V / Figures 4-6): simulate a CERT-style
  organization with four departments, inject the two insider-threat
  scenarios (one victim per department, alternating scenario), extract
  features, fit any model of the zoo, and evaluate ordered
  investigation lists.
* **Enterprise case study** (Section VI / Figure 7): simulate the
  enterprise population, inject Zeus or WannaCry against one victim,
  and track the victim's daily investigation rank.

Three scale presets are provided per family: ``small`` for unit tests,
``default`` for the benchmark suite on a laptop, and ``paper`` matching
the paper's population sizes (929 users / 246 employees) and the
512/256/128/64 autoencoder.  Scale selection for benchmarks honours the
``ACOBE_BENCH_SCALE`` environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from datetime import date, timedelta
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.critic import InvestigationList
from repro.core.detector import CompoundBehaviorModel
from repro.datagen.attacks import AttackInjection, inject_wannacry, inject_zeus
from repro.datagen.calendar import SimulationCalendar
from repro.datagen.enterprise import (
    EnterpriseDataset,
    simulate_enterprise_dataset,
)
from repro.datagen.org import build_organization
from repro.datagen.scenarios import (
    inject_scenario1,
    inject_scenario2,
    pick_scenario1_victim,
    pick_scenario2_victim,
)
from repro.datagen.simulator import CertDataset, simulate_cert_dataset
from repro.eval.metrics import (
    auc,
    average_precision,
    fps_before_each_tp,
    precision_recall_curve,
    roc_curve,
)
from repro.features.cert import extract_baseline_measurements, extract_cert_measurements
from repro.features.enterprise import extract_enterprise_measurements
from repro.features.measurements import MeasurementCube
from repro.nn.autoencoder import AutoencoderConfig
from repro.obs import get_telemetry

#: The paper's CERT evaluation starts on this date.
CERT_START = date(2010, 1, 2)


# ---------------------------------------------------------------------------
# CERT benchmark
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CertBenchmarkConfig:
    """Everything needed to rebuild one CERT-style benchmark dataset."""

    name: str
    department_sizes: Tuple[int, ...]
    n_days: int
    window: int
    matrix_days: int
    train_end_offset: int  # last training day, as an offset from start
    s1_start_offset: int
    s1_duration: int
    s2_start_offset: int
    s2_surf_days: int
    s2_exfil_days: int
    autoencoder: AutoencoderConfig
    train_stride: int = 1
    seed: int = 7
    #: worker processes for ensemble training (1 = serial, < 1 = all cores)
    n_jobs: int = 1
    start: date = CERT_START
    #: 1 = alternate scenario 1/2 across departments; 2 = inject both
    #: scenarios in every department (the r6.1+r6.2 structure: each
    #: sub-dataset contributes one instance of each scenario).
    scenarios_per_department: int = 1

    def __post_init__(self) -> None:
        if self.scenarios_per_department not in (1, 2):
            raise ValueError("scenarios_per_department must be 1 or 2")
        if self.n_days <= self.train_end_offset:
            raise ValueError("train_end_offset must leave test days")
        for offset in (self.s1_start_offset, self.s2_start_offset):
            if not self.train_end_offset < offset < self.n_days:
                raise ValueError("scenario starts must fall in the test period")

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.n_days - 1)

    @property
    def train_end(self) -> date:
        return self.start + timedelta(days=self.train_end_offset)


def _small_ae() -> AutoencoderConfig:
    return AutoencoderConfig(
        encoder_units=(64, 32, 16),
        epochs=40,
        batch_size=32,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=11,
        dtype="float32",
    )


def _default_ae() -> AutoencoderConfig:
    return AutoencoderConfig(
        encoder_units=(128, 64, 32, 16),
        epochs=80,
        batch_size=64,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=11,
        dtype="float32",
    )


def _paper_ae() -> AutoencoderConfig:
    return AutoencoderConfig(
        encoder_units=(512, 256, 128, 64),
        epochs=100,
        batch_size=256,
        early_stopping_patience=10,
        validation_split=0.1,
        seed=11,
        dtype="float32",
    )


CERT_SMALL = CertBenchmarkConfig(
    name="small",
    department_sizes=(10, 10),
    n_days=130,
    window=10,
    matrix_days=10,
    train_end_offset=84,
    s1_start_offset=100,
    s1_duration=12,
    s2_start_offset=88,
    s2_surf_days=22,
    s2_exfil_days=10,
    autoencoder=AutoencoderConfig(
        encoder_units=(128, 64, 32, 16),
        epochs=100,
        batch_size=32,
        early_stopping_patience=None,
        validation_split=0.0,
        seed=11,
        dtype="float32",
    ),
    train_stride=1,
)

CERT_DEFAULT = CertBenchmarkConfig(
    name="default",
    department_sizes=(119, 119),
    n_days=300,
    window=30,
    matrix_days=30,
    train_end_offset=209,
    s1_start_offset=245,
    s1_duration=17,
    s2_start_offset=215,
    s2_surf_days=45,
    s2_exfil_days=14,
    autoencoder=_default_ae(),
    train_stride=3,
    scenarios_per_department=2,
)

CERT_PAPER = CertBenchmarkConfig(
    name="paper",
    department_sizes=(114, 272, 270, 273),
    n_days=515,
    window=30,
    matrix_days=30,
    train_end_offset=395,
    s1_start_offset=455,
    s1_duration=17,
    s2_start_offset=425,
    s2_surf_days=45,
    s2_exfil_days=14,
    autoencoder=_paper_ae(),
    train_stride=3,
)

_CERT_PRESETS = {"small": CERT_SMALL, "default": CERT_DEFAULT, "paper": CERT_PAPER}


def _bench_jobs() -> int:
    """Worker count for benchmark runs: $ACOBE_BENCH_JOBS, default serial."""
    return int(os.environ.get("ACOBE_BENCH_JOBS", "1"))


def cert_config(scale: Optional[str] = None) -> CertBenchmarkConfig:
    """Look up a CERT preset; defaults to $ACOBE_BENCH_SCALE or 'default'.

    ``$ACOBE_BENCH_JOBS`` overrides the preset's ensemble-training
    worker count (results are identical at any value; see
    :mod:`repro.nn.parallel`).
    """
    scale = scale or os.environ.get("ACOBE_BENCH_SCALE", "default")
    try:
        config = _CERT_PRESETS[scale]
    except KeyError:
        known = ", ".join(sorted(_CERT_PRESETS))
        raise ValueError(f"unknown scale {scale!r}; expected one of: {known}") from None
    jobs = _bench_jobs()
    if jobs != config.n_jobs:
        config = replace(config, n_jobs=jobs)
    return config


@dataclass
class CertBenchmark:
    """A simulated CERT benchmark: dataset, features and splits."""

    config: CertBenchmarkConfig
    dataset: CertDataset
    cube: MeasurementCube  # ACOBE's fine-grained features
    train_days: List[date]
    test_days: List[date]
    _coarse_cube: Optional[MeasurementCube] = field(default=None, repr=False)

    @property
    def labels(self) -> Dict[str, bool]:
        return self.dataset.labels()

    @property
    def group_map(self) -> Dict[str, str]:
        return self.dataset.organization.group_map()

    @property
    def abnormal_users(self) -> List[str]:
        return self.dataset.abnormal_users

    def coarse_cube(self) -> MeasurementCube:
        """The Liu-baseline's coarse feature cube (built lazily, cached)."""
        if self._coarse_cube is None:
            self._coarse_cube = extract_baseline_measurements(
                self.dataset.store,
                self.cube.users,
                self.cube.days,
            )
        return self._coarse_cube


def build_cert_benchmark(
    config: Optional[CertBenchmarkConfig] = None, scale: Optional[str] = None
) -> CertBenchmark:
    """Simulate, inject and extract one CERT benchmark.

    One victim per department, alternating Scenario 1 / Scenario 2 so an
    organization with four departments reproduces the paper's four
    abnormal instances (two per scenario, as in r6.1 + r6.2).
    """
    config = config or cert_config(scale)
    organization = build_organization(list(config.department_sizes), seed=config.seed)
    calendar = SimulationCalendar.with_default_holidays(config.start, config.end)
    dataset = simulate_cert_dataset(organization, calendar, seed=config.seed)

    victims: List[str] = []
    for i, department in enumerate(organization.departments()):
        if config.scenarios_per_department == 2:
            scenarios = (1, 2)
        else:
            scenarios = (1,) if i % 2 == 0 else (2,)
        for scenario in scenarios:
            if scenario == 1:
                victim = pick_scenario1_victim(dataset, department)
                inject_scenario1(
                    dataset,
                    victim,
                    start=config.start + timedelta(days=config.s1_start_offset),
                    duration_days=config.s1_duration,
                    seed=config.seed + 100 + i,
                )
            else:
                victim = pick_scenario2_victim(dataset, department, exclude=tuple(victims))
                inject_scenario2(
                    dataset,
                    victim,
                    start=config.start + timedelta(days=config.s2_start_offset),
                    surf_days=config.s2_surf_days,
                    exfil_days=config.s2_exfil_days,
                    seed=config.seed + 200 + i,
                )
            victims.append(victim)

    users = organization.user_ids()
    days = calendar.days()
    cube = extract_cert_measurements(dataset.store, users, days)
    train_days = [d for d in days if d <= config.train_end]
    test_days = [d for d in days if d > config.train_end]
    return CertBenchmark(
        config=config,
        dataset=dataset,
        cube=cube,
        train_days=train_days,
        test_days=test_days,
    )


# ---------------------------------------------------------------------------
# Model runs and metrics
# ---------------------------------------------------------------------------


@dataclass
class ModelRun:
    """Result of fitting + scoring one model on a benchmark."""

    name: str
    users: List[str]
    test_days: List[date]
    scores: Dict[str, np.ndarray]  # aspect -> (n_users, n_test_days)
    investigation: InvestigationList

    @property
    def priorities(self) -> Dict[str, int]:
        return {e.user: e.priority for e in self.investigation.entries}

    def score_trend(self, aspect: str, user: str) -> np.ndarray:
        """One user's daily anomaly-score series in one aspect."""
        return self.scores[aspect][self.users.index(user)]


def run_model(
    model: CompoundBehaviorModel,
    benchmark: CertBenchmark,
    cube: Optional[MeasurementCube] = None,
    verbose: bool = False,
    score_batch_size: int = 1024,
) -> ModelRun:
    """Fit a model on the benchmark's training period and score the test.

    ``score_batch_size`` bounds how many flattened matrix vectors are
    materialized at once during scoring (errors are per-row, so any
    value yields identical scores).
    """
    cube = cube if cube is not None else benchmark.cube
    with get_telemetry().span(
        "eval.run_model",
        model=model.config.name,
        benchmark=benchmark.config.name,
        users=len(cube.users),
    ) as span:
        model.fit(cube, benchmark.group_map, benchmark.train_days, verbose=verbose)
        test_anchors = model.valid_anchor_days(benchmark.test_days)
        if not test_anchors:
            raise ValueError("no test day has enough history to score")
        span.annotate(test_anchors=len(test_anchors))
        scores = model.score(test_anchors, batch_size=score_batch_size)
        investigation = model.investigate(test_anchors, batch_size=score_batch_size)
    return ModelRun(
        name=model.config.name,
        users=model.users,
        test_days=test_anchors,
        scores=scores,
        investigation=investigation,
    )


@dataclass
class DetectionMetrics:
    """Figure-6 style metrics of one model run."""

    name: str
    auc: float
    average_precision: float
    fps_before_tps: List[int]
    roc: List
    pr: List


def daily_min_priorities(run: ModelRun, n_votes: int) -> Dict[str, int]:
    """Each user's best (minimum) daily investigation priority.

    This is the paper's operational workflow -- a fresh investigation
    list per day ("our victim is ranked at 1st place ... from Feb 3rd to
    Feb 15th") -- folded into one per-user number: to earn a good
    priority a user must rank high in ``n_votes`` aspects on the *same*
    day, which uncorrelated noise rarely does.
    """
    from repro.core.critic import investigation_list

    users = run.users
    n_votes = min(n_votes, len(run.scores))  # e.g. All-in-1 has one aspect
    best: Dict[str, int] = {u: len(users) + 1 for u in users}
    for j, _day in enumerate(run.test_days):
        aspect_scores = {
            aspect: {u: float(arr[i, j]) for i, u in enumerate(users)}
            for aspect, arr in run.scores.items()
        }
        daily = investigation_list(aspect_scores, n_votes)
        for entry in daily.entries:
            if entry.priority < best[entry.user]:
                best[entry.user] = entry.priority
    return best


def evaluate_run(
    run: ModelRun,
    labels: Mapping[str, bool],
    aggregation: str = "pooled",
    n_votes: int = 3,
) -> DetectionMetrics:
    """ROC/PR/FP-count metrics of a run against ground truth.

    Args:
        aggregation: 'pooled' scores each aspect by its max daily error
            over the whole period and runs the critic once; 'daily' runs
            the critic per day and takes each user's best priority (the
            paper's periodic-investigation workflow).
        n_votes: critic N for the 'daily' aggregation.
    """
    if aggregation == "pooled":
        priorities = run.priorities
    elif aggregation == "daily":
        priorities = daily_min_priorities(run, n_votes)
    else:
        raise ValueError(f"unknown aggregation {aggregation!r}")
    roc = roc_curve(priorities, labels)
    pr = precision_recall_curve(priorities, labels)
    return DetectionMetrics(
        name=run.name,
        auc=auc(roc),
        average_precision=average_precision(priorities, labels),
        fps_before_tps=fps_before_each_tp(priorities, labels),
        roc=roc,
        pr=pr,
    )


# ---------------------------------------------------------------------------
# Enterprise case studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CaseStudyConfig:
    """Configuration of one Section-VI case study."""

    name: str
    attack: str  # "zeus" | "wannacry"
    n_employees: int
    n_days: int
    window: int
    matrix_days: int
    train_end_offset: int
    attack_day_offset: int
    autoencoder: AutoencoderConfig
    critic_n: int = 3
    train_stride: int = 1
    #: worker processes for ensemble training (1 = serial, < 1 = all cores)
    n_jobs: int = 1
    seed: int = 13
    start: date = date(2021, 7, 1)

    def __post_init__(self) -> None:
        if not self.train_end_offset < self.attack_day_offset < self.n_days:
            raise ValueError("attack day must fall in the test period")
        if self.attack not in ("zeus", "wannacry"):
            raise ValueError(f"unknown attack {self.attack!r}")

    @property
    def end(self) -> date:
        return self.start + timedelta(days=self.n_days - 1)

    @property
    def train_end(self) -> date:
        return self.start + timedelta(days=self.train_end_offset)

    @property
    def attack_day(self) -> date:
        return self.start + timedelta(days=self.attack_day_offset)


def case_study_config(attack: str, scale: Optional[str] = None) -> CaseStudyConfig:
    """A case-study preset for one attack at one scale."""
    scale = scale or os.environ.get("ACOBE_BENCH_SCALE", "default")
    presets = {
        "small": dict(
            n_employees=12,
            n_days=80,
            window=7,
            matrix_days=7,
            train_end_offset=55,
            attack_day_offset=62,
            autoencoder=AutoencoderConfig(
                encoder_units=(64, 32, 16),
                epochs=40,
                batch_size=32,
                early_stopping_patience=None,
                validation_split=0.0,
                seed=11,
            ),
            train_stride=1,
        ),
        "default": dict(
            n_employees=60,
            n_days=150,
            window=14,
            matrix_days=14,
            train_end_offset=110,
            attack_day_offset=118,
            autoencoder=_small_ae(),
            train_stride=2,
        ),
        # Paper: 246 employees, 7 months (6 train + 1 test), 2-week window.
        "paper": dict(
            n_employees=246,
            n_days=212,
            window=14,
            matrix_days=14,
            train_end_offset=181,
            attack_day_offset=186,
            autoencoder=_paper_ae(),
            train_stride=2,
        ),
    }
    try:
        kwargs = presets[scale]
    except KeyError:
        known = ", ".join(sorted(presets))
        raise ValueError(f"unknown scale {scale!r}; expected one of: {known}") from None
    return CaseStudyConfig(
        name=f"{attack}-{scale}",
        attack=attack,
        n_jobs=_bench_jobs(),
        **kwargs,
    )


@dataclass
class CaseStudyBenchmark:
    """A simulated enterprise dataset with one injected attack."""

    config: CaseStudyConfig
    dataset: EnterpriseDataset
    cube: MeasurementCube
    injection: AttackInjection
    train_days: List[date]
    test_days: List[date]

    @property
    def victim(self) -> str:
        return self.injection.victim


def build_case_study(config: CaseStudyConfig) -> CaseStudyBenchmark:
    """Simulate the enterprise logs and inject the configured attack.

    The victim is the employee with the least habitual Command/Config
    activity, mirroring the paper's case-study victim ("the victim
    barely has any activities in the Command aspect, such deviations
    are significant").
    """
    calendar = SimulationCalendar.with_default_holidays(config.start, config.end)
    dataset = simulate_enterprise_dataset(config.n_employees, calendar, seed=config.seed)
    victim = min(
        dataset.users(),
        key=lambda u: dataset.profiles[u].command_rate + dataset.profiles[u].config_rate,
    )
    if config.attack == "zeus":
        injection = inject_zeus(dataset, victim, config.attack_day, seed=config.seed + 1)
    else:
        injection = inject_wannacry(dataset, victim, config.attack_day, seed=config.seed + 1)

    users = dataset.users()
    days = calendar.days()
    cube = extract_enterprise_measurements(dataset.store, users, days)
    train_days = [d for d in days if d <= config.train_end]
    test_days = [d for d in days if d > config.train_end]
    return CaseStudyBenchmark(
        config=config,
        dataset=dataset,
        cube=cube,
        injection=injection,
        train_days=train_days,
        test_days=test_days,
    )


@dataclass
class CaseStudyRun:
    """Result of running ACOBE on a case study."""

    benchmark: CaseStudyBenchmark
    run: ModelRun
    daily_rank: Dict[date, int]  # victim's daily investigation position

    def days_at_rank_one(self) -> List[date]:
        """Days on which the victim tops the investigation list."""
        return sorted(d for d, rank in self.daily_rank.items() if rank == 1)


def run_case_study(
    benchmark: CaseStudyBenchmark, verbose: bool = False, score_batch_size: int = 1024
) -> CaseStudyRun:
    """Fit ACOBE on the case study and track the victim's daily rank."""
    from repro.core.detector import ModelConfig

    cfg = benchmark.config
    model = CompoundBehaviorModel(
        ModelConfig(
            name="ACOBE",
            window=cfg.window,
            matrix_days=cfg.matrix_days,
            critic_n=cfg.critic_n,
            train_stride=cfg.train_stride,
            n_jobs=cfg.n_jobs,
            autoencoder=cfg.autoencoder,
        )
    )
    model.fit(benchmark.cube, None, benchmark.train_days, verbose=verbose)
    test_anchors = model.valid_anchor_days(benchmark.test_days)
    scores = model.score(test_anchors, batch_size=score_batch_size)
    investigation = model.investigate(test_anchors, batch_size=score_batch_size)
    run = ModelRun(
        name="ACOBE",
        users=model.users,
        test_days=test_anchors,
        scores=scores,
        investigation=investigation,
    )
    daily_rank: Dict[date, int] = {}
    users = model.users
    for j, day in enumerate(test_anchors):
        aspect_scores = {
            aspect: {user: float(array[i, j]) for i, user in enumerate(users)}
            for aspect, array in scores.items()
        }
        daily = model_investigation_for_day(aspect_scores, cfg.critic_n)
        daily_rank[day] = daily.position_of(benchmark.victim)
    return CaseStudyRun(benchmark=benchmark, run=run, daily_rank=daily_rank)


def model_investigation_for_day(
    aspect_scores: Mapping[str, Mapping[str, float]], n_votes: int
) -> InvestigationList:
    """A single day's investigation list (used for daily-rank tracking)."""
    from repro.core.critic import investigation_list

    return investigation_list(aspect_scores, n_votes)
