"""From-scratch neural-network substrate used by ACOBE's autoencoders.

The paper implements its models with TensorFlow 2.0 Keras (``Dense`` layers
activated by ReLU, ``BatchNormalization`` between layers, the Adadelta
optimizer, and an MSE loss).  TensorFlow is not available in this
environment, so this subpackage provides exactly that model on top of
numpy with hand-written, gradient-checked backpropagation:

* :mod:`repro.nn.initializers` -- Glorot/He/zero initialization schemes.
* :mod:`repro.nn.layers` -- ``Dense``, ``BatchNormalization``, ``ReLU``
  and ``Sigmoid`` layers with ``forward``/``backward`` passes.
* :mod:`repro.nn.losses` -- the mean-squared-error loss.
* :mod:`repro.nn.optimizers` -- the Adadelta optimizer.
* :mod:`repro.nn.network` -- a ``Sequential`` container with a mini-batch
  training loop (shuffling, validation split, early stopping).
* :mod:`repro.nn.data` -- the lazy *row source* protocol the training
  loop accepts alongside dense arrays (e.g. zero-copy compound-matrix
  views).
* :mod:`repro.nn.autoencoder` -- the deep fully-connected autoencoder used
  throughout the paper (encoder 512/256/128/64, mirrored decoder).
* :mod:`repro.nn.gradcheck` -- finite-difference gradient checking used by
  the test-suite to validate every layer's backward pass.
* :mod:`repro.nn.parallel` -- deterministic fan-out of per-aspect
  autoencoder training over forked workers, BLAS pinned to one thread.
* :mod:`repro.nn.serialization` -- bit-exact ``.npz`` save/load of
  trained networks.
"""

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.data import ArrayRowSource, input_dim_of, is_row_source, n_samples_of
from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid
from repro.nn.callbacks import Callback, CallbackList, EpochLogger, TelemetryCallback
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.optimizers import Adadelta, Optimizer
from repro.nn.parallel import (
    AspectTask,
    TrainedAspect,
    blas_threads,
    derive_seed,
    resolve_n_jobs,
    train_ensemble,
)
from repro.nn.serialization import load_network, save_network

__all__ = [
    "Adadelta",
    "ArrayRowSource",
    "AspectTask",
    "Autoencoder",
    "AutoencoderConfig",
    "BatchNormalization",
    "Callback",
    "CallbackList",
    "Dense",
    "EpochLogger",
    "MeanSquaredError",
    "Optimizer",
    "ReLU",
    "Sequential",
    "Sigmoid",
    "TelemetryCallback",
    "TrainedAspect",
    "TrainingHistory",
    "blas_threads",
    "derive_seed",
    "input_dim_of",
    "is_row_source",
    "load_network",
    "n_samples_of",
    "resolve_n_jobs",
    "save_network",
    "train_ensemble",
]
