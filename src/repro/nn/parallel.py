"""Parallel training of per-aspect autoencoder ensembles.

ACOBE's detector trains one autoencoder per behavioural aspect.  The
aspects are independent -- each training run owns its data, its config
and its RNG -- so by default the ensemble fans out over a ``fork``
:class:`concurrent.futures.ProcessPoolExecutor`, one worker per task
(the aspects are unequal in size, so fewer workers leave a core idle),
unless the work is too small to pay for the forks (:data:`_MIN_FORK_WORK`).

Determinism is an explicit contract:

* Every :class:`AspectTask` carries a *final* :class:`AutoencoderConfig`
  whose ``seed`` fully determines weight initialization and mini-batch
  shuffling (see :func:`derive_seed` for how the detector derives one
  seed per aspect from the model-level seed).
* Every task trains with BLAS pinned to one thread
  (:func:`blas_threads`), in-process and in workers: the thread count
  changes float32 bits, and workers must not each run a BLAS pool.
* Workers never touch a shared RNG, so the result of
  :func:`train_ensemble` is bit-identical for any ``n_jobs`` -- serial
  (``n_jobs=1``), parallel, and the fallback path all produce the same
  weights, the same :class:`TrainingHistory` and therefore the same
  anomaly scores.
* Workers read their task from memory inherited through ``fork`` (no
  training data is pickled) and return each layer's raw ``state_dict``
  arrays, which the parent loads with ``load_state_dict``: every float
  bit survives, BatchNormalization running statistics included.

Telemetry (:mod:`repro.obs`) crosses the process boundary the same way:
when the parent's telemetry is enabled, each worker records its own
span tree and metrics into a fresh per-task :class:`~repro.obs.Telemetry`,
returns the snapshot alongside the weights, and the parent merges
every snapshot back in -- so parallel training is exactly as
inspectable as serial, and merged counters equal the serial run's
(``nn.epochs_total`` etc. are sums of per-task contributions).
Workers inherit the parent's ``run_id`` and continue its trace
(the fork-inherited innermost span becomes their roots' parent), so
one ``trace_id`` grep in a structured log (:mod:`repro.obs.log`)
reconstructs a fan-out across processes.

Platforms without the ``fork`` start method (and sandboxes where
process pools cannot be created at all) silently fall back to the
same-process serial path, which is result-identical by construction.
"""

from __future__ import annotations

import ctypes
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.data import input_dim_of, is_row_source, n_samples_of
from repro.nn.network import TrainingHistory
from repro.obs import Telemetry, get_telemetry, set_telemetry

__all__ = [
    "AspectTask",
    "TrainedAspect",
    "blas_threads",
    "derive_seed",
    "resolve_n_jobs",
    "train_ensemble",
]


@lru_cache(maxsize=None)
def _openblas_threads():
    """OpenBLAS's ``(get, set)`` thread-count functions, or None.

    Looked up by the name ``numpy.show_config`` reports for numpy's BLAS
    (``scipy-openblas`` exports ``scipy_openblas_*``, a plain OpenBLAS
    ``openblas_*``; 64-bit-integer builds add a ``64_`` suffix), through
    a numpy extension module that links it.
    """
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        library = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, KeyError, OSError, TypeError):
        return None
    prefix = "scipy_openblas" if name.startswith("scipy") else "openblas"
    for suffix in ("64_", ""):
        get = getattr(library, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(library, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextmanager
def blas_threads(n: int = 1) -> Iterator[None]:
    """Run the block with BLAS on ``n`` threads; restore the old count after.

    A no-op where numpy's BLAS exposes no OpenBLAS thread control.
    """
    control = _openblas_threads()
    if control is None:
        yield
        return
    get, set_ = control
    previous = get()
    set_(n)
    try:
        yield
    finally:
        set_(previous)


def derive_seed(base_seed: Optional[int], index: int) -> Optional[int]:
    """Deterministic per-aspect seed from the ensemble-level seed.

    Uses :class:`numpy.random.SeedSequence` with ``index`` as the spawn
    key, so every aspect trains from a statistically independent stream
    while the whole ensemble stays reproducible from one integer.  A
    ``None`` base (explicitly non-deterministic training) stays ``None``.

    The derivation depends only on ``(base_seed, index)`` -- not on
    process identity, scheduling order, or platform -- which is what
    makes parallel training bit-identical to serial.
    """
    if base_seed is None:
        return None
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    sequence = np.random.SeedSequence(base_seed, spawn_key=(index,))
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


@dataclass(frozen=True)
class AspectTask:
    """One self-contained training job: an aspect's data and final config.

    ``config.seed`` must already be the *derived* per-aspect seed; the
    engine does not re-derive so that the task alone fully determines
    the trained weights.

    ``data`` is either a dense ``(n_samples, input_dim)`` matrix or a
    row source (:mod:`repro.nn.data`, e.g. a compound-matrix view) that
    gathers mini-batches lazily; workers read it through ``fork``.
    """

    name: str
    data: object  # (n_samples, input_dim) matrix, or a row source
    config: AutoencoderConfig

    def __post_init__(self) -> None:
        if is_row_source(self.data):
            if len(self.data) == 0:
                raise ValueError(f"task {self.name!r} has an empty row source")
            return
        data = np.asarray(self.data)
        if data.ndim != 2 or data.shape[0] == 0:
            raise ValueError(
                f"task {self.name!r} needs a non-empty 2-D training matrix, "
                f"got shape {data.shape}"
            )


@dataclass
class TrainedAspect:
    """A trained ensemble member with its loss curves."""

    name: str
    autoencoder: Autoencoder
    history: TrainingHistory


def resolve_n_jobs(n_jobs: Optional[int], n_tasks: int) -> int:
    """Effective worker count: ``n_jobs < 1`` means one worker per task.

    A positive value caps the count (1 and ``None`` train in-process);
    the result is clamped to ``[1, n_tasks]``.
    """
    if n_tasks < 1:
        raise ValueError(f"n_tasks must be >= 1, got {n_tasks}")
    if n_jobs is None:
        return 1
    return n_tasks if n_jobs < 1 else min(n_jobs, n_tasks)


def _train(task: AspectTask, ae: Autoencoder, verbose: bool = False) -> TrainingHistory:
    """Fit ``ae`` on one task in the current process, BLAS on one thread."""
    telemetry = get_telemetry()
    with telemetry.span(
        "train.aspect",
        aspect=task.name,
        samples=n_samples_of(task.data),
        input_dim=ae.input_dim,
    ) as span, blas_threads(1):
        history = ae.fit(task.data, verbose=verbose)
        span.annotate(epochs_trained=history.epochs_trained)
    telemetry.counter("train.aspects_total").inc()
    if history.loss:
        telemetry.histogram("train.final_loss").observe(history.loss[-1])
    return history


#: Training work (trainable scalars x samples x epochs, summed over the
#: tasks) below which the default ``n_jobs`` trains in-process: a fork
#: costs the parent ~0.1 s of page-table copies and later write faults
#: (docs/PERFORMANCE.md section 9), which smaller fits do not win back.
_MIN_FORK_WORK = 3e9

#: ``(tasks, autoencoders, verbose)`` of each fan-out in flight.  Workers
#: are forked while their fan-out is registered here and train their
#: inherited copy of its autoencoder, so no training data is pickled.
_FANOUTS: Dict[int, Tuple[List[AspectTask], List[Autoencoder], bool]] = {}
_FANOUT_KEYS = count()


def _train_in_worker(key: int, index: int) -> Tuple[TrainingHistory, List[dict], Optional[dict]]:
    """Worker entry point: train task ``index`` of fan-out ``key``.

    Returns the history, each layer's ``state_dict`` and, when the
    parent's telemetry is enabled (inherited through ``fork``), the
    snapshot of the fresh worker-local :class:`~repro.obs.Telemetry` the
    task trained under, for the parent to merge.
    """
    tasks, autoencoders, verbose = _FANOUTS[key]
    task, ae = tasks[index], autoencoders[index]
    parent = local = get_telemetry()
    if parent.enabled:
        # The worker continues the parent's trace: same run_id, the
        # parent's innermost open span (fork-inherited) becomes the worker
        # roots' parent, and any log events buffer in the snapshot for the
        # parent's sink to drain on merge.
        context = parent.current_context()
        local = Telemetry(
            enabled=True,
            trace_memory=parent.trace_memory,
            run_id=parent.run_id,
            parent_context={k: v for k, v in context.items() if k != "run_id"},
        )
        local.capture_logs = parent.log_sink is not None or parent.capture_logs
    previous = set_telemetry(local)
    try:
        history = _train(task, ae, verbose)
    finally:
        set_telemetry(previous)
    snapshot = local.snapshot() if parent.enabled else None
    return history, [layer.state_dict() for layer in ae.network.layers], snapshot


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """The ``fork`` multiprocessing context, or None where unsupported."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    return multiprocessing.get_context("fork")


def train_ensemble(
    tasks: Sequence[AspectTask],
    n_jobs: Optional[int] = 0,
    verbose: bool = False,
) -> Dict[str, TrainedAspect]:
    """Train every task, by default one forked worker per task.

    Args:
        tasks: independent per-aspect training jobs; names must be unique.
        n_jobs: worker processes; values < 1 (the default) mean one per
            task -- or in-process when the tasks' training work is below
            :data:`_MIN_FORK_WORK` -- a positive value caps the count and
            1 trains in-process.  Results are bit-identical for every
            value.
        verbose: per-epoch progress lines (printed by the workers when
            parallel).

    Returns:
        task name -> :class:`TrainedAspect`, in task order.
    """
    tasks = list(tasks)
    if not tasks:
        return {}
    names = [t.name for t in tasks]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate task names: {names}")

    telemetry = get_telemetry()
    context = _fork_context()
    # Built before any fork: workers train their inherited copies, and the
    # parent loads the trained weights into its own.
    autoencoders = [Autoencoder(input_dim=input_dim_of(t.data), config=t.config) for t in tasks]
    workers = resolve_n_jobs(n_jobs, len(tasks))
    work = sum(
        ae.network.num_parameters() * n_samples_of(t.data) * t.config.epochs
        for t, ae in zip(tasks, autoencoders)
    )
    if n_jobs is not None and n_jobs < 1 and work < _MIN_FORK_WORK:
        workers = 1  # too little work to pay for the forks

    def train_all_serial() -> Dict[str, TrainedAspect]:
        return {
            t.name: TrainedAspect(t.name, ae, _train(t, ae, verbose))
            for t, ae in zip(tasks, autoencoders)
        }

    with telemetry.span(
        "parallel.train_ensemble", tasks=len(tasks), n_jobs=workers
    ) as span:
        telemetry.counter("parallel.tasks_total").inc(len(tasks))
        if workers == 1 or context is None:
            # In-process path: records straight into the parent telemetry
            # (no snapshot round-trip).
            span.annotate(mode="serial")
            return train_all_serial()

        key = next(_FANOUT_KEYS)
        _FANOUTS[key] = (tasks, autoencoders, verbose)
        try:
            with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
                futures = [pool.submit(_train_in_worker, key, i) for i in range(len(tasks))]
                results = [f.result() for f in futures]
        except OSError:
            # Sandboxes without working semaphores / process spawning: the
            # serial path is result-identical, so degrade silently.
            span.annotate(mode="serial-fallback")
            return train_all_serial()
        finally:
            del _FANOUTS[key]
        span.annotate(mode="parallel")

        telemetry.gauge("parallel.pool_workers").set(workers)
        trained = {}
        merged = 0
        for task, ae, (history, states, snapshot) in zip(tasks, autoencoders, results):
            for layer, state in zip(ae.network.layers, states):
                layer.load_state_dict(state)
            ae._fitted = True  # weights are trained; loading replaces fit()
            trained[task.name] = TrainedAspect(task.name, ae, history)
            if snapshot is not None:
                telemetry.merge(snapshot)
                merged += 1
        telemetry.counter("parallel.snapshots_merged").inc(merged)
        return trained
