"""The deep fully-connected autoencoder used throughout the paper.

Architecture (Section V, "Implementation"): encoder hidden sizes
512/256/128/64, mirrored decoder 64/128/256/512, every fully-connected
layer ReLU-activated with BatchNormalization between layers, trained with
Adadelta on an MSE loss.  Inputs are flattened compound behavioral
deviation matrices mapped to [0, 1], so the reconstruction head is a
sigmoid.  That recipe is fixed: the config sets only sizes, training-loop
settings, the seed and the dtype.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.nn.data import is_row_source
from repro.nn.layers import BatchNormalization, Dense, Layer, ReLU, Sigmoid
from repro.nn.losses import MeanSquaredError
from repro.nn.network import Sequential, TrainingHistory


@dataclass(frozen=True)
class AutoencoderConfig:
    """Hyper-parameters of the paper's autoencoder.

    Attributes:
        encoder_units: hidden sizes of the encoder; the decoder mirrors
            them in reverse.  Defaults to the paper's 512/256/128/64.
        epochs / batch_size: training-loop settings.
        early_stopping_patience: epochs without improvement before stop.
        validation_split: fraction held out to monitor early stopping.
        seed: RNG seed for weight init and shuffling.
        dtype: compute dtype, 'float64' (default, bit-reproducible) or
            'float32' (roughly half the memory traffic; results are NOT
            bit-comparable with float64 runs -- see docs/PERFORMANCE.md).
    """

    encoder_units: Tuple[int, ...] = (512, 256, 128, 64)
    epochs: int = 100
    batch_size: int = 64
    early_stopping_patience: Optional[int] = 10
    validation_split: float = 0.1
    seed: Optional[int] = 7
    dtype: str = "float64"

    def __post_init__(self) -> None:
        if not self.encoder_units:
            raise ValueError("encoder_units must not be empty")
        if any(u <= 0 for u in self.encoder_units):
            raise ValueError(f"encoder_units must be positive, got {self.encoder_units}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.validation_split < 1.0:
            raise ValueError(
                f"validation_split must be in [0, 1), got {self.validation_split}"
            )
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")

    def scaled(self, factor: float) -> "AutoencoderConfig":
        """Return a config with hidden sizes scaled down (for tests/benches)."""
        from dataclasses import replace

        units = tuple(max(2, int(round(u * factor))) for u in self.encoder_units)
        return replace(self, encoder_units=units)


#: Fields ``AutoencoderConfig`` once had, at the only values any model
#: was trained with.  Models saved before the recipe was fixed carry them:
#: :func:`repro.core.persistence.load_model` accepts them at these values
#: only, and :func:`repro.core.checkpoint.config_digest` still hashes them,
#: so the digests of existing checkpoints stay valid.
RETIRED_FIELDS = {
    "activation": "relu",
    "output_activation": "sigmoid",
    "batch_norm": True,
    "optimizer": "adadelta",
    "loss": "mse",
    "extra": {},
}


class Autoencoder:
    """Encoder/decoder pair with reconstruction-error scoring.

    Example:
        >>> import numpy as np
        >>> cfg = AutoencoderConfig(encoder_units=(8, 4), epochs=5, validation_split=0.0)
        >>> ae = Autoencoder(input_dim=16, config=cfg)
        >>> x = np.random.default_rng(0).random((32, 16))
        >>> _ = ae.fit(x)
        >>> ae.reconstruction_error(x).shape
        (32,)
    """

    def __init__(self, input_dim: int, config: Optional[AutoencoderConfig] = None):
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        self.input_dim = input_dim
        self.config = config or AutoencoderConfig()
        self.network = Sequential(
            self._build_layers(), seed=self.config.seed, dtype=self.config.dtype
        )
        self.network.build(input_dim)
        self._fitted = False

    def _build_layers(self) -> List[Layer]:
        units = self.config.encoder_units
        layers: List[Layer] = []
        for width in list(units) + list(reversed(units[:-1])):
            layers += [Dense(width), BatchNormalization(), ReLU()]
        return layers + [Dense(self.input_dim), Sigmoid()]

    @property
    def fitted(self) -> bool:
        return self._fitted

    def fit(self, x: np.ndarray, verbose: bool = False) -> TrainingHistory:
        """Train the autoencoder to reconstruct ``x`` (normal data only).

        ``x`` may be a dense ``(n, input_dim)`` array or a row source
        (:mod:`repro.nn.data`, e.g. a
        :class:`repro.core.representation.MatrixView`) whose mini-batches
        are gathered lazily -- both train bit-identically.
        """
        if is_row_source(x):
            if int(x.dim) != self.input_dim:
                raise ValueError(f"expected rows of width {self.input_dim}, got {x.dim}")
            n_samples = len(x)
        else:
            x = self._validate(x)
            n_samples = x.shape[0]
        cfg = self.config
        # A validation split needs at least a handful of rows on each side.
        split = cfg.validation_split if n_samples >= 10 else 0.0
        history = self.network.fit(
            x,
            epochs=cfg.epochs,
            batch_size=cfg.batch_size,
            validation_split=split,
            early_stopping_patience=cfg.early_stopping_patience,
            verbose=verbose,
        )
        self._fitted = True
        return history

    def reconstruct(self, x: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        """Inference-mode reconstruction of ``x``."""
        return self.network.predict(self._validate(x), batch_size=batch_size)

    def reconstruction_error(self, x: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        """Per-sample anomaly score: reconstruction MSE of each row.

        Accepts a dense array or a row source (:mod:`repro.nn.data`);
        row sources are scored in ``batch_size`` chunks so only one
        batch of flattened vectors is ever materialized.  Scores are
        per-row, hence identical either way.
        """
        per_sample = MeanSquaredError.per_sample
        if is_row_source(x):
            if int(x.dim) != self.input_dim:
                raise ValueError(f"expected rows of width {self.input_dim}, got {x.dim}")
            n = len(x)
            errors = np.empty(n)
            for start in range(0, n, batch_size):
                idx = np.arange(start, min(start + batch_size, n))
                xb = np.asarray(x.rows(idx), dtype=np.float64)
                errors[idx] = per_sample(xb, self.network.predict(xb, batch_size=batch_size))
            return errors
        x = self._validate(x)
        return per_sample(x, self.reconstruct(x, batch_size=batch_size))

    def _validate(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"expected shape (n, {self.input_dim}), got {x.shape}")
        return x
