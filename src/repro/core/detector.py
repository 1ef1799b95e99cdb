"""The compound-behaviour detector and the paper's model zoo.

:class:`CompoundBehaviorModel` is a single configurable pipeline that
covers every model evaluated in the paper:

=========  ==============  ======  =====  =======  ========
model      representation  window  days   group    aspects
=========  ==============  ======  =====  =======  ========
ACOBE      deviation       30      30     yes      split
No-Group   deviation       30      30     no       split
1-Day      normalized      --      1      yes      split
All-in-1   deviation       30      30     yes      merged
Base-FF    normalized      --      1      no       split
Baseline   normalized      --      1      no       split (coarse
                                                   features, 24 frames)
=========  ==============  ======  =====  =======  ========

The Baseline/Base-FF rows differ from ACOBE exactly as Section V-C
describes; Baseline additionally consumes the coarse-grained feature
cube from :func:`repro.features.cert.extract_baseline_measurements`.

Workflow: ``fit(cube, group_map, train_days)`` then
``score(days)`` / ``investigate(days)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from datetime import date
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.core.critic import InvestigationList
from repro.core.deviation import (
    DeviationConfig,
    DeviationCube,
    compute_deviations,
    compute_normalized,
)
from repro.core.pipeline import DetectionPipeline
from repro.core.representation import MatrixView, RepresentationPipeline
from repro.features.measurements import MeasurementCube
from repro.features.spec import AspectSpec, FeatureSet, FeatureSpec
from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.network import TrainingHistory
from repro.nn.parallel import AspectTask, derive_seed, train_ensemble
from repro.obs import get_telemetry


@dataclass(frozen=True)
class ModelConfig:
    """Configuration of a compound-behaviour model.

    ``n_jobs`` controls how many worker processes train the per-aspect
    ensemble (< 1 = one per aspect, the default; 1 = in-process serial).
    Training results are bit-identical for every value -- each aspect's
    autoencoder seed is derived from ``autoencoder.seed`` with
    :func:`repro.nn.parallel.derive_seed`, so the trained weights depend
    only on the configuration, never on scheduling.
    """

    name: str = "ACOBE"
    representation: str = "deviation"  # "deviation" | "normalized"
    window: int = 30
    matrix_days: int = 30
    delta: float = 3.0
    epsilon: float = 1e-6
    apply_weights: bool = True
    include_group: bool = True
    all_in_one: bool = False
    critic_n: int = 3
    train_stride: int = 1
    n_jobs: int = 0
    autoencoder: AutoencoderConfig = field(default_factory=AutoencoderConfig)

    def __post_init__(self) -> None:
        if self.representation not in ("deviation", "normalized"):
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.matrix_days < 1:
            raise ValueError(f"matrix_days must be >= 1, got {self.matrix_days}")
        if self.train_stride < 1:
            raise ValueError(f"train_stride must be >= 1, got {self.train_stride}")
        if self.critic_n < 1:
            raise ValueError(f"critic_n must be >= 1, got {self.critic_n}")


class CompoundBehaviorModel:
    """An ensemble of per-aspect autoencoders over compound matrices."""

    def __init__(self, config: ModelConfig):
        self.config = config
        self._deviations: Optional[DeviationCube] = None
        self._pipeline: Optional[RepresentationPipeline] = None
        self._engine = DetectionPipeline()
        self._aspects: List[AspectSpec] = []
        self._autoencoders: Dict[str, Autoencoder] = {}
        self._histories: Dict[str, TrainingHistory] = {}
        self._fitted = False

    # ------------------------------------------------------------------
    @property
    def fitted(self) -> bool:
        return self._fitted

    @property
    def aspect_names(self) -> List[str]:
        return [a.name for a in self._aspects]

    def autoencoder(self, aspect: str) -> Autoencoder:
        """The trained autoencoder of one aspect."""
        try:
            return self._autoencoders[aspect]
        except KeyError:
            raise KeyError(f"no autoencoder for aspect {aspect!r} (model not fitted?)") from None

    def training_history(self, aspect: str) -> TrainingHistory:
        """The per-epoch loss curves of one aspect's training run."""
        try:
            return self._histories[aspect]
        except KeyError:
            raise KeyError(f"no training history for aspect {aspect!r} (model not fitted?)") from None

    @property
    def training_histories(self) -> Dict[str, TrainingHistory]:
        """Aspect name -> training history, in ensemble order."""
        return dict(self._histories)

    # ------------------------------------------------------------------
    def fit(
        self,
        cube: MeasurementCube,
        group_map: Optional[Mapping[str, str]],
        train_days: Sequence[date],
        verbose: bool = False,
    ) -> "CompoundBehaviorModel":
        """Build the behavioural representation and train the ensemble.

        Args:
            cube: raw measurements covering training *and* scoring days
                (the representation is causal, so this leaks nothing).
            group_map: user -> group; may be None for a single group.
            train_days: days whose matrices form the (assumed normal)
                training set; only days with enough history are used.
        """
        cfg = self.config
        telemetry = get_telemetry()
        with telemetry.span("detector.fit", model=cfg.name, n_jobs=cfg.n_jobs) as span:
            with telemetry.span("detector.representation"):
                self._prepare_representation(cube, group_map, train_days)

            anchors = self.valid_anchor_days(train_days)
            if not anchors:
                raise ValueError(
                    "no training day has enough history "
                    f"(window={cfg.window}, matrix_days={cfg.matrix_days})"
                )
            anchors = anchors[:: cfg.train_stride]
            span.annotate(
                users=len(self._deviations.users),
                aspects=len(self._aspects),
                train_anchors=len(anchors),
            )

            # One self-contained task per aspect: the derived seed makes each
            # autoencoder's training independent of execution order, so the
            # ensemble can fan out over processes with bit-identical results.
            # Each task carries a zero-copy MatrixView (a lazy row source) --
            # training streams mini-batches out of the shared value array
            # instead of materializing the pooled (users*anchors, dim) tensor.
            tasks = []
            for index, aspect in enumerate(self._aspects):
                view = self._view_for(aspect, anchors)
                ae_config = replace(
                    cfg.autoencoder, seed=derive_seed(cfg.autoencoder.seed, index)
                )
                tasks.append(AspectTask(aspect.name, view, ae_config))

            trained = train_ensemble(tasks, n_jobs=cfg.n_jobs, verbose=verbose)
            self._autoencoders = {name: t.autoencoder for name, t in trained.items()}
            self._histories = {name: t.history for name, t in trained.items()}
            self._fitted = True
        return self

    def score(self, days: Sequence[date], batch_size: int = 1024) -> Dict[str, np.ndarray]:
        """Per-aspect anomaly scores.

        A thin wrapper over :class:`~repro.core.pipeline.ScoringStage`:
        scoring streams ``batch_size`` flattened matrices at a time
        through each autoencoder.  Errors are per-row, so any batch size
        yields identical scores.

        Returns:
            aspect name -> array ``(n_users, len(days))`` of
            reconstruction errors (higher = more anomalous).
        """
        self._require_fitted()
        days = list(days)
        telemetry = get_telemetry()
        scoring = self._engine.scoring
        scores: Dict[str, np.ndarray] = {}
        with telemetry.span("detector.score", model=self.config.name, days=len(days)):
            for aspect in self._aspects:
                with telemetry.span("detector.score.aspect", aspect=aspect.name):
                    view = self._view_for(aspect, days)
                    ae = self._autoencoders[aspect.name]
                    errors = scoring.score_view(view, ae, batch_size=batch_size)
                    scores[aspect.name] = errors.reshape(view.n_users, view.n_anchors)
                telemetry.counter("detector.scored_vectors_total").inc(
                    view.n_users * view.n_anchors
                )
        return scores

    def investigate(
        self,
        days: Sequence[date],
        n_votes: Optional[int] = None,
        reduce: str = "max",
        batch_size: int = 1024,
    ) -> InvestigationList:
        """The ordered investigation list over a scoring period.

        Each aspect scores a user by the ``reduce`` ("max" or "mean") of
        its daily reconstruction errors over ``days``; the critic then
        combines per-aspect ranks into priorities.
        """
        if reduce not in ("max", "mean"):
            raise ValueError(f"reduce must be 'max' or 'mean', got {reduce!r}")
        telemetry = get_telemetry()
        with telemetry.span(
            "detector.investigate", model=self.config.name, reduce=reduce
        ):
            scores = self.score(days, batch_size=batch_size)
            reduced = {
                name: (array.max(axis=1) if reduce == "max" else array.mean(axis=1))
                for name, array in scores.items()
            }
            return self._engine.critic.investigate(
                reduced, self._deviations.users, n_votes or self.config.critic_n
            )

    def valid_anchor_days(self, days: Sequence[date]) -> List[date]:
        """The subset of ``days`` with enough history for a matrix."""
        self._require_representation()
        available = set(self._deviations.days[self.config.matrix_days - 1 :])
        return sorted(d for d in days if d in available)

    @property
    def users(self) -> List[str]:
        self._require_representation()
        return list(self._deviations.users)

    @property
    def deviations(self) -> DeviationCube:
        """The underlying behavioural representation (for inspection)."""
        self._require_representation()
        return self._deviations

    @property
    def representation(self) -> RepresentationPipeline:
        """The shared value pipeline built at fit time (for inspection)."""
        self._require_representation()
        return self._pipeline

    @property
    def engine(self) -> DetectionPipeline:
        """The scoring and critic stages that batch and streaming runs of this model use."""
        return self._engine

    # ------------------------------------------------------------------
    def _prepare_representation(
        self,
        cube: MeasurementCube,
        group_map: Optional[Mapping[str, str]],
        train_days: Sequence[date],
    ) -> None:
        """Build the deviations, value pipeline and aspect list.

        The value pipeline combines the weighted/normalized arrays
        exactly once for ``score``/``investigate`` and every per-aspect
        view.
        """
        cfg = self.config
        self._deviations = self._build_representation(cube, dict(group_map or {}), train_days)
        self._aspects = self._resolve_aspects(cube.feature_set)
        self._pipeline = RepresentationPipeline.from_deviations(
            self._deviations,
            include_group=cfg.include_group,
            apply_weights=cfg.apply_weights,
        )

    def _build_representation(
        self,
        cube: MeasurementCube,
        group_map: Dict[str, str],
        train_days: Sequence[date],
    ) -> DeviationCube:
        cfg = self.config
        if cfg.representation == "deviation":
            dev_config = DeviationConfig(window=cfg.window, delta=cfg.delta, epsilon=cfg.epsilon)
            return compute_deviations(cube, group_map, dev_config)
        return compute_normalized(cube, group_map, train_days, cfg.delta)

    def _resolve_aspects(self, feature_set: FeatureSet) -> List[AspectSpec]:
        if not self.config.all_in_one:
            return list(feature_set.aspects)
        merged = AspectSpec(
            "all",
            tuple(
                FeatureSpec(f.name, "all", f.description) for f in feature_set.features
            ),
        )
        return [merged]

    def _view_for(self, aspect: AspectSpec, anchors: Sequence[date]) -> MatrixView:
        """A zero-copy matrix view of one aspect over the given anchors."""
        feature_set = self._deviations.feature_set
        if self.config.all_in_one:
            indices = list(range(len(feature_set)))
        else:
            indices = feature_set.aspect_indices(aspect.name)
        return self._pipeline.view(
            anchors, self.config.matrix_days, feature_indices=indices
        )

    def _require_representation(self) -> None:
        if self._deviations is None:
            raise RuntimeError("model has no representation yet; call fit() first")

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("model is not fitted; call fit() first")


# ---------------------------------------------------------------------------
# Model zoo
# ---------------------------------------------------------------------------


def _zoo_model(
    config: ModelConfig,
    ae_config: Optional[AutoencoderConfig],
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    if ae_config is not None:
        config = replace(config, autoencoder=ae_config)
    if dtype is not None:
        # Compute-dtype override (CLI --dtype / presets): float32 halves
        # memory traffic but is not bit-comparable with float64 runs.
        config = replace(config, autoencoder=replace(config.autoencoder, dtype=dtype))
    return CompoundBehaviorModel(config)


def make_acobe(
    ae_config: Optional[AutoencoderConfig] = None,
    window: int = 30,
    matrix_days: Optional[int] = None,
    critic_n: int = 3,
    train_stride: int = 1,
    n_jobs: int = 0,
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    """ACOBE as evaluated in Section V (N=3, omega=30)."""
    return _zoo_model(
        ModelConfig(
            name="ACOBE",
            window=window,
            matrix_days=matrix_days or window,
            critic_n=critic_n,
            train_stride=train_stride,
            n_jobs=n_jobs,
        ),
        ae_config,
        dtype=dtype,
    )


def make_no_group(
    ae_config: Optional[AutoencoderConfig] = None,
    window: int = 30,
    matrix_days: Optional[int] = None,
    critic_n: int = 3,
    train_stride: int = 1,
    n_jobs: int = 0,
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    """The No-Group ablation: ACOBE without the group-behaviour block."""
    return _zoo_model(
        ModelConfig(
            name="No-Group",
            include_group=False,
            window=window,
            matrix_days=matrix_days or window,
            critic_n=critic_n,
            train_stride=train_stride,
            n_jobs=n_jobs,
        ),
        ae_config,
        dtype=dtype,
    )


def make_one_day(
    ae_config: Optional[AutoencoderConfig] = None,
    critic_n: int = 3,
    train_stride: int = 1,
    n_jobs: int = 0,
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    """The 1-Day ablation: normalized single-day occurrences."""
    return _zoo_model(
        ModelConfig(
            name="1-Day",
            representation="normalized",
            matrix_days=1,
            apply_weights=False,
            critic_n=critic_n,
            train_stride=train_stride,
            n_jobs=n_jobs,
        ),
        ae_config,
        dtype=dtype,
    )


def make_all_in_one(
    ae_config: Optional[AutoencoderConfig] = None,
    window: int = 30,
    matrix_days: Optional[int] = None,
    critic_n: int = 1,
    train_stride: int = 1,
    n_jobs: int = 0,
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    """The All-in-1 ablation: one autoencoder over every feature."""
    return _zoo_model(
        ModelConfig(
            name="All-in-1",
            all_in_one=True,
            window=window,
            matrix_days=matrix_days or window,
            critic_n=critic_n,
            train_stride=train_stride,
            n_jobs=n_jobs,
        ),
        ae_config,
        dtype=dtype,
    )


def make_baseline(
    ae_config: Optional[AutoencoderConfig] = None,
    critic_n: int = 3,
    train_stride: int = 1,
    n_jobs: int = 0,
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    """Liu et al.'s Baseline (fit it with the coarse-grained cube).

    Single-day normalized activity counts, no group behaviour, no
    weights; pair with
    :func:`repro.features.cert.extract_baseline_measurements` (24
    one-hour time-frames, four aspects).
    """
    return _zoo_model(
        ModelConfig(
            name="Baseline",
            representation="normalized",
            matrix_days=1,
            apply_weights=False,
            include_group=False,
            critic_n=critic_n,
            train_stride=train_stride,
            n_jobs=n_jobs,
        ),
        ae_config,
        dtype=dtype,
    )


def make_base_ff(
    ae_config: Optional[AutoencoderConfig] = None,
    critic_n: int = 3,
    train_stride: int = 1,
    n_jobs: int = 0,
    dtype: Optional[str] = None,
) -> CompoundBehaviorModel:
    """Base-FF: the Baseline framework on ACOBE's fine-grained features.

    Fit it with the fine-grained cube from
    :func:`repro.features.cert.extract_cert_measurements`.
    """
    return _zoo_model(
        ModelConfig(
            name="Base-FF",
            representation="normalized",
            matrix_days=1,
            apply_weights=False,
            include_group=False,
            critic_n=critic_n,
            train_stride=train_stride,
            n_jobs=n_jobs,
        ),
        ae_config,
        dtype=dtype,
    )
