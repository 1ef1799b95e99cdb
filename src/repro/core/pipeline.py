"""The scoring and critic stages shared by the batch and streaming paths.

Batch (:class:`~repro.core.detector.CompoundBehaviorModel`), streaming
(:class:`~repro.core.streaming.StreamingDetector`) and evaluation
(:func:`repro.eval.experiments.run_model`) all score rows through
:class:`ScoringStage` and rank users through :class:`CriticStage`, so
each step has one entry point and one telemetry surface.  The
representation step has no stage of its own: callers use
:mod:`repro.core.deviation` directly.

Layering: this module sits below :mod:`repro.core.detector` /
:mod:`repro.core.streaming` (both import it) and must never import
them, nor :mod:`repro.eval` / :mod:`repro.cli` (enforced by
``tools/check_layering.py``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.critic import InvestigationList, investigation_list
from repro.nn.autoencoder import Autoencoder
from repro.obs import get_telemetry

__all__ = ["CriticStage", "DetectionPipeline", "ScoringStage"]


class ScoringStage:
    """Scores rows against a trained autoencoder."""

    def score_view(self, view, autoencoder: Autoencoder) -> np.ndarray:
        """Reconstruction errors of every pooled ``(user, anchor)`` row of a
        :class:`~repro.core.representation.MatrixView`."""
        return autoencoder.reconstruction_error(view)

    def score_vectors(self, vectors: np.ndarray, autoencoder: Autoencoder) -> np.ndarray:
        """Reconstruction errors of dense per-user vectors ``(n_users, dim)``."""
        return autoencoder.reconstruction_error(vectors)


class CriticStage:
    """Ranks per-aspect user scores into Algorithm 1's investigation list."""

    def investigate(
        self,
        aspect_arrays: Mapping[str, np.ndarray],
        users: Sequence[str],
        n_votes: int,
    ) -> InvestigationList:
        """Rank the scores: aspect -> ``(n_users,)`` array aligned with ``users``."""
        with get_telemetry().span(
            "pipeline.critic", aspects=len(aspect_arrays), users=len(users)
        ):
            aspect_scores = {
                aspect: {user: float(array[i]) for i, user in enumerate(users)}
                for aspect, array in aspect_arrays.items()
            }
            return investigation_list(aspect_scores, n_votes)


class DetectionPipeline:
    """Holds one :class:`ScoringStage` and one :class:`CriticStage`."""

    def __init__(self) -> None:
        self.scoring = ScoringStage()
        self.critic = CriticStage()
