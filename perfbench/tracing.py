"""Outside-in tracing: spans around calls into the program's public API.

Nothing in ``src/`` records spans for the benchmark.  Instead, a traced
run replaces selected functions and methods -- looked up where their
callers look them up -- with wrappers that time each call, and puts the
originals back afterwards.  Untraced runs install no wrapper at all.

Spans nest: a span's *self* time is its duration minus the time of the
spans that ran inside it, so the self times of all spans add up to the
time spent inside any span.  What is left of the traced wall is the
harness's own loop and the wrappers' call overhead, reported as
``trace.unattributed_s``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

import numpy as np

#: Layer classes of the paper's autoencoder (Dense, BatchNormalization,
#: ReLU hidden activations, Sigmoid reconstruction head).
NN_LAYER_CLASSES = ("Dense", "BatchNormalization", "ReLU", "Sigmoid")

Count = Callable[[tuple, object], int]
Keep = Callable[[object], bool]


def _rows_of_second_arg(args: tuple, _result) -> int:
    return len(args[1])


def _autoencoder_samples(args: tuple, history) -> int:
    return len(args[1]) * history.epochs_trained


def _one(_args, _result) -> int:
    return 1


def _always(_result) -> bool:
    return True


def _scored(result) -> bool:
    return result is not None  # warm-up days return None


#: (module, class or None, attribute, span name, count, keep sample).
#: ``count(args, result)`` adds to the span's count; ``keep(result)``
#: decides whether the call's duration joins the span's samples.
#: Each function is patched where its caller looks it up: the streaming
#: detector's imported names in ``repro.core.streaming``,
#: ``train_ensemble`` as bound in ``repro.core.detector``, the
#: checkpoint entry points in ``repro.ingest.checkpoint``.
SPANS = [
    ("repro.ingest.ingestor", "Ingestor", "push", "ingest.push", None, None),
    ("repro.ingest.ingestor", "Ingestor", "flush", "ingest.flush", None, None),
    ("repro.ingest.slab", "SlabBuilder", "seal", "ingest.seal", None, _always),
    ("repro.core.streaming", "StreamingDetector", "observe_day", "stream.observe_day", None, _scored),
    ("repro.core.streaming", None, "sharded_deviate_against_history", "repr.deviate", None, None),
    ("repro.core.streaming", None, "deviate_against_history", "repr.deviate", None, None),
    ("repro.core.streaming", None, "group_means", "repr.deviate", None, None),
    ("repro.core.streaming", None, "compound_values", "repr.compound", None, None),
    ("repro.core.representation", "RepresentationPipeline", "from_deviations", "repr.build", None, None),
    ("repro.core.pipeline", "ScoringStage", "score_vectors", "pipeline.score", _rows_of_second_arg, None),
    ("repro.core.pipeline", "ScoringStage", "score_view", "pipeline.score", _rows_of_second_arg, None),
    ("repro.core.pipeline", "CriticStage", "investigate", "pipeline.critic", None, None),
    ("repro.nn.autoencoder", "Autoencoder", "reconstruction_error", "nn.predict", _rows_of_second_arg, None),
    ("repro.core.detector", None, "train_ensemble", "nn.fit", None, None),
    ("repro.nn.autoencoder", "Autoencoder", "fit", "nn.autoencoder_fit", _autoencoder_samples, None),
    ("repro.nn.optimizers", "Optimizer", "step", "nn.optimizer", _one, None),
    *[
        ("repro.nn.layers", cls, method, f"nn.{cls}.{method}", None, None)
        for cls in NN_LAYER_CLASSES
        for method in ("forward", "backward")
    ],
    ("repro.ingest.checkpoint", None, "save_ingest_checkpoint", "checkpoint.save", None, _always),
    ("repro.ingest.ingestor", "Ingestor", "export_state", "checkpoint.ingest_export", None, None),
    ("repro.ingest.checkpoint", None, "save_checkpoint", "checkpoint.write", None, None),
    ("repro.ingest.checkpoint", None, "resume_ingest", "checkpoint.resume", None, _always),
    ("repro.core.detector", "CompoundBehaviorModel", "fit", "detector.fit", None, None),
    ("repro.core.detector", "CompoundBehaviorModel", "score", "detector.score", None, None),
    ("repro.core.detector", "CompoundBehaviorModel", "investigate", "detector.investigate", None, None),
]


class Tracer:
    """Span totals of one traced phase, keyed by span name."""

    def __init__(self) -> None:
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        # Time of finished child spans inside the innermost open span.
        self._children = [0.0]

    def wrap(self, name: str, fn, count: Optional[Count] = None, keep: Optional[Keep] = None):
        """``fn`` timed as span ``name`` (harness code uses ``harness.*``)."""
        clock = time.perf_counter
        children = self._children
        inclusive, self_time, calls = self.inclusive, self.self_time, self.calls
        counts, samples = self.counts, self.samples[name]

        def traced(*args, **kwargs):
            outer = children[0]
            children[0] = 0.0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_time[name] += elapsed - children[0]
                children[0] = outer + elapsed
                inclusive[name] += elapsed
                calls[name] += 1
            if keep is not None and keep(result):
                samples.append(elapsed)
            if count is not None:
                counts[name] += count(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Patch every span in :data:`SPANS`; restore the originals on exit."""
        patches = []
        try:
            for module_name, class_name, attr, name, count, keep in SPANS:
                owner = importlib.import_module(module_name)
                if class_name is not None:
                    owner = getattr(owner, class_name)
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(name, raw.__func__, count, keep))
                else:
                    wrapped = self.wrap(name, raw, count, keep)
                setattr(owner, attr, wrapped)
                patches.append((owner, attr, raw))
            yield self
        finally:
            for owner, attr, raw in reversed(patches):
                setattr(owner, attr, raw)

    def attributed(self) -> float:
        """Seconds inside any span (the sum of all self times)."""
        return sum(self.self_time.values())

    def sample_ms(self, name: str, q: float) -> float:
        values = self.samples.get(name)
        return float(np.percentile(values, q)) * 1e3 if values else 0.0

    def table(self) -> str:
        """Human-readable span table, heaviest self time first."""
        lines = [f"{'span':<32} {'calls':>9} {'incl s':>9} {'self s':>9}"]
        for name in sorted(self.self_time, key=self.self_time.get, reverse=True):
            lines.append(
                f"{name:<32} {self.calls[name]:>9} {self.inclusive[name]:>9.3f} "
                f"{self.self_time[name]:>9.3f}"
            )
        return "\n".join(lines)
