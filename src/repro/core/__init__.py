"""ACOBE: Anomaly detection based on COmpound BEhavior (the paper's core).

* :mod:`repro.core.deviation` -- behavioural deviation math of
  Section IV-A: sliding-history z-scores clamped to +/-Delta, and the
  TF-IDF-inspired feature weights of Eq. (1).
* :mod:`repro.core.representation` -- the compound behavioral deviation
  matrices (individual + group blocks across time-frames and a multi-day
  window, mapped to [0, 1]): the combined weighted/normalized value
  array computed once, exposed as zero-copy
  :class:`~repro.core.representation.MatrixView` row sources shared by
  batch training, scoring and streaming.
* :mod:`repro.core.critic` -- the anomaly detection critic
  (Algorithm 1): N-th-best-rank voting and the ordered investigation
  list.
* :mod:`repro.core.critic_advanced` -- the waveform-inspecting critic
  the paper sketches as future work.
* :mod:`repro.core.detector` -- the configurable compound-behaviour
  model and the named model zoo (ACOBE, No-Group, 1-Day, All-in-1,
  Baseline, Base-FF).
* :mod:`repro.core.pipeline` -- the scoring and critic stages shared
  by the batch and streaming paths.
* :mod:`repro.core.streaming` -- day-by-day detection with a fitted
  model (:class:`StreamingDetector`).
* :mod:`repro.core.persistence` -- save/load of trained models.
* :mod:`repro.core.checkpoint` -- durable streaming: atomic,
  checksummed checkpoint/resume of :class:`StreamingDetector` state
  with bit-identical continuation.

The package re-exports the names its examples and documentation import;
everything else is imported from its module.
"""

from repro.core.checkpoint import resume_streaming, save_checkpoint
from repro.core.critic_advanced import AdvancedCritic
from repro.core.detector import (
    CompoundBehaviorModel,
    ModelConfig,
    make_acobe,
    make_all_in_one,
    make_base_ff,
    make_baseline,
    make_no_group,
    make_one_day,
)
from repro.core.deviation import DeviationConfig, compute_deviations, compute_normalized
from repro.core.persistence import attach_representation, load_model, save_model
from repro.core.representation import RepresentationPipeline
from repro.core.streaming import StreamingDetector

__all__ = [
    "AdvancedCritic",
    "CompoundBehaviorModel",
    "DeviationConfig",
    "ModelConfig",
    "RepresentationPipeline",
    "StreamingDetector",
    "attach_representation",
    "compute_deviations",
    "compute_normalized",
    "load_model",
    "make_acobe",
    "make_all_in_one",
    "make_base_ff",
    "make_baseline",
    "make_no_group",
    "make_one_day",
    "resume_streaming",
    "save_checkpoint",
    "save_model",
]
