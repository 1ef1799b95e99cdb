"""The deep fully-connected autoencoder used throughout the paper.

Architecture (Section V, "Implementation"): encoder hidden sizes
512/256/128/64, mirrored decoder 64/128/256/512, every fully-connected
layer ReLU-activated with BatchNormalization between layers, trained with
Adadelta on an MSE loss.  Inputs are flattened compound behavioral
deviation matrices mapped to [0, 1], so the reconstruction head is a
sigmoid by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.data import is_row_source
from repro.nn.layers import BatchNormalization, Dense, Layer, get_activation
from repro.nn.losses import MeanAbsoluteError, MeanSquaredError
from repro.nn.network import Sequential, TrainingHistory
from repro.nn.optimizers import Optimizer


@dataclass(frozen=True)
class AutoencoderConfig:
    """Hyper-parameters of the paper's autoencoder.

    Attributes:
        encoder_units: hidden sizes of the encoder; the decoder mirrors
            them in reverse.  Defaults to the paper's 512/256/128/64.
        activation: hidden activation ('relu' in the paper).
        output_activation: reconstruction head; 'sigmoid' suits the
            paper's [0, 1]-normalized inputs.
        batch_norm: insert BatchNormalization between layers (paper: yes).
        epochs / batch_size / optimizer: training-loop settings.
        early_stopping_patience: epochs without improvement before stop.
        validation_split: fraction held out to monitor early stopping.
        seed: RNG seed for weight init and shuffling.
        dtype: compute dtype, 'float64' (default, bit-reproducible) or
            'float32' (roughly half the memory traffic; results are NOT
            bit-comparable with float64 runs -- see docs/PERFORMANCE.md).
    """

    encoder_units: Tuple[int, ...] = (512, 256, 128, 64)
    activation: str = "relu"
    output_activation: str = "sigmoid"
    batch_norm: bool = True
    epochs: int = 100
    batch_size: int = 64
    optimizer: str = "adadelta"
    loss: str = "mse"
    early_stopping_patience: Optional[int] = 10
    validation_split: float = 0.1
    seed: Optional[int] = 7
    dtype: str = "float64"
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not self.encoder_units:
            raise ValueError("encoder_units must not be empty")
        if any(u <= 0 for u in self.encoder_units):
            raise ValueError(f"encoder_units must be positive, got {self.encoder_units}")

    def scaled(self, factor: float) -> "AutoencoderConfig":
        """Return a config with hidden sizes scaled down (for tests/benches)."""
        from dataclasses import replace

        units = tuple(max(2, int(round(u * factor))) for u in self.encoder_units)
        return replace(self, encoder_units=units)


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
        cfg = self.config
        layers: List[Layer] = []
        encoder = list(cfg.encoder_units)
        decoder = list(reversed(cfg.encoder_units[:-1])) + [self.input_dim]
        hidden = encoder + decoder
        for i, units in enumerate(hidden):
            layers.append(Dense(units))
            is_output = i == len(hidden) - 1
            if is_output:
                layers.append(get_activation(cfg.output_activation))
            else:
                if cfg.batch_norm:
                    layers.append(BatchNormalization())
                layers.append(get_activation(cfg.activation))
        return layers

    @property
    def code_dim(self) -> int:
        """Width of the bottleneck representation."""
        return self.config.encoder_units[-1]

    @property
    def fitted(self) -> bool:
        return self._fitted

    def fit(
        self,
        x: np.ndarray,
        optimizer: Optional[Union[str, Optimizer]] = None,
        verbose: bool = False,
        callbacks: Optional[Sequence] = None,
    ) -> TrainingHistory:
        """Train the autoencoder to reconstruct ``x`` (normal data only).

        ``x`` may be a dense ``(n, input_dim)`` array or a row source
        (:mod:`repro.nn.data`, e.g. a
        :class:`repro.core.representation.MatrixView`) whose mini-batches
        are gathered lazily -- both train bit-identically.  ``callbacks``
        are forwarded to :meth:`Sequential.fit`
        (:mod:`repro.nn.callbacks`).
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
            loss=cfg.loss,
            optimizer=optimizer or cfg.optimizer,
            validation_split=split,
            early_stopping_patience=cfg.early_stopping_patience,
            verbose=verbose,
            callbacks=callbacks,
        )
        self._fitted = True
        return history

    def reconstruct(self, x: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        """Inference-mode reconstruction of ``x``."""
        return self.network.predict(self._validate(x), batch_size=batch_size)

    def encode(self, x: np.ndarray) -> np.ndarray:
        """Return the bottleneck code for ``x``.

        The code is read at the output of the activation following the last
        encoder Dense layer.
        """
        x = self._validate(x)
        n_encoder_dense = len(self.config.encoder_units)
        seen_dense = 0
        for layer in self.network.layers:
            x = layer.forward(x, training=False)
            if isinstance(layer, Dense):
                seen_dense += 1
            # Stop once the activation after the bottleneck Dense has run.
            if seen_dense == n_encoder_dense and not isinstance(layer, (Dense, BatchNormalization)):
                return x
        raise RuntimeError("bottleneck activation not found")  # pragma: no cover

    def reconstruction_error(
        self, x: np.ndarray, metric: str = "mse", batch_size: int = 1024
    ) -> np.ndarray:
        """Per-sample anomaly score: reconstruction error of each row.

        Accepts a dense array or a row source (:mod:`repro.nn.data`);
        row sources are scored in ``batch_size`` chunks so only one
        batch of flattened vectors is ever materialized.  Scores are
        per-row, hence identical either way.
        """
        if metric == "mse":
            per_sample = MeanSquaredError.per_sample
        elif metric == "mae":
            per_sample = MeanAbsoluteError.per_sample
        else:
            raise ValueError(f"unknown metric {metric!r}; expected 'mse' or 'mae'")
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
