"""From-scratch neural-network substrate used by ACOBE's autoencoders.

The paper implements its models with TensorFlow 2.0 Keras (``Dense`` layers
activated by ReLU, ``BatchNormalization`` between layers, the Adadelta
optimizer, and an MSE loss).  TensorFlow is not available in this
environment, so this subpackage provides exactly that model on top of
numpy with hand-written, gradient-checked backpropagation:

* :mod:`repro.nn.layers` -- ``Dense`` (Glorot-uniform kernel, zero bias),
  ``BatchNormalization``, ``ReLU`` and ``Sigmoid`` layers with
  ``forward``/``backward`` passes.
* :mod:`repro.nn.losses` -- the mean-squared-error loss.
* :mod:`repro.nn.optimizers` -- the Adadelta optimizer.
* :mod:`repro.nn.network` -- a ``Sequential`` container with a mini-batch
  reconstruction training loop (shuffling, validation split, early
  stopping).
* :mod:`repro.nn.workspace` -- the scratch-buffer arena the layers, loss
  and optimizer run their ``out=`` kernels over.
* :mod:`repro.nn.data` -- the lazy *row source* protocol the training
  loop accepts alongside dense arrays (e.g. zero-copy compound-matrix
  views).
* :mod:`repro.nn.autoencoder` -- the deep fully-connected autoencoder used
  throughout the paper (encoder 512/256/128/64, mirrored decoder).
* :mod:`repro.nn.parallel` -- deterministic fan-out of per-aspect
  autoencoder training over forked workers, BLAS pinned to one thread.
* :mod:`repro.nn.serialization` -- bit-exact ``.npz`` save/load of
  trained networks.
"""

from repro.nn.autoencoder import Autoencoder, AutoencoderConfig
from repro.nn.layers import BatchNormalization, Dense, ReLU, Sigmoid
from repro.nn.network import Sequential

__all__ = [
    "Autoencoder",
    "AutoencoderConfig",
    "BatchNormalization",
    "Dense",
    "ReLU",
    "Sequential",
    "Sigmoid",
]
