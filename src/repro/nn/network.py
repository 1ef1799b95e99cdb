"""A Sequential container with a Keras-like mini-batch training loop.

Training data may be a dense ``(n, dim)`` array or any *row source*
(see :mod:`repro.nn.data`) -- a lazy object handing out row subsets per
mini-batch, so e.g. compound-matrix views train without the pooled
tensor ever being materialized.  Both paths draw the same RNG sequence
and select the same rows, so they produce bit-identical weights.

``fit`` and ``predict`` run every mini-batch gather, layer output,
gradient and optimizer temporary through ``out=`` kernels over the
network's :class:`repro.nn.workspace.Workspace` arena, which recycles
scratch buffers generation-by-generation (one generation per
mini-batch), so steady-state training performs zero array allocation.
Float64 results are pinned bit for bit against a straight-line NumPy
reference (``tests/nn/test_kernel_equivalence``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.nn.callbacks import CallbackList, EpochLogger
from repro.nn.data import is_row_source
from repro.nn.layers import Layer, Parameter
from repro.nn.losses import Loss, get_loss
from repro.nn.optimizers import Optimizer, get_optimizer
from repro.nn.workspace import Workspace
from repro.obs import get_telemetry


@dataclass
class TrainingHistory:
    """Per-epoch training curves produced by :meth:`Sequential.fit`.

    ``grad_norm`` holds the global L2 norm of the last mini-batch's
    gradients at each epoch end -- a cheap divergence signal (a curve
    that grows instead of decaying means training is blowing up).
    """

    loss: List[float] = field(default_factory=list)
    val_loss: List[float] = field(default_factory=list)
    grad_norm: List[float] = field(default_factory=list)

    @property
    def epochs_trained(self) -> int:
        return len(self.loss)

    @property
    def best_val_loss(self) -> Optional[float]:
        return min(self.val_loss) if self.val_loss else None


class Sequential:
    """A stack of layers trained with backprop.

    Example:
        >>> import numpy as np
        >>> from repro.nn.layers import Dense, ReLU
        >>> net = Sequential([Dense(4), ReLU(), Dense(2)], seed=0)
        >>> net.build(input_dim=2)
        >>> y = net.predict(np.zeros((3, 2)))
        >>> y.shape
        (3, 2)
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        seed: Optional[int] = None,
        dtype: Union[str, np.dtype] = np.float64,
    ):
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers: List[Layer] = list(layers)
        self._rng = np.random.default_rng(seed)
        self.dtype = np.dtype(dtype)
        if self.dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
            raise ValueError(f"dtype must be float32 or float64, got {self.dtype}")
        self.input_dim: Optional[int] = None
        self.output_dim: Optional[int] = None
        self._workspace: Optional[Workspace] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def build(self, input_dim: int) -> "Sequential":
        """Allocate every layer's parameters for the given input width."""
        if input_dim <= 0:
            raise ValueError(f"input_dim must be positive, got {input_dim}")
        dim = input_dim
        for layer in self.layers:
            dim = layer.build(dim, self._rng, dtype=self.dtype)
            layer.cast(self.dtype)  # no-op for layers built in-dtype; safety net otherwise
        self.input_dim = input_dim
        self.output_dim = dim
        return self

    @property
    def built(self) -> bool:
        return self.input_dim is not None

    @property
    def workspace(self) -> Workspace:
        """The network's lazily created scratch-buffer arena."""
        if self._workspace is None:
            self._workspace = Workspace()
        return self._workspace

    def parameters(self) -> List[Parameter]:
        """All trainable parameters in layer order."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.extend(layer.parameters())
        return params

    def num_parameters(self) -> int:
        """Total number of trainable scalars."""
        return sum(p.value.size for p in self.parameters())

    # ------------------------------------------------------------------
    # forward / backward
    # ------------------------------------------------------------------
    def forward(
        self, x: np.ndarray, training: bool = False, ws: Optional[Workspace] = None
    ) -> np.ndarray:
        """Run the full stack; ``training`` toggles BatchNorm/Dropout mode.

        With ``ws``, layer outputs live in that arena and are only valid
        until its next ``reset()`` -- copy anything that must survive.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D batch, got shape {x.shape}")
        if self.built and x.shape[1] != self.input_dim:
            raise ValueError(f"expected input dim {self.input_dim}, got {x.shape[1]}")
        for layer in self.layers:
            x = layer.forward(x, training=training, ws=ws)
        return x

    def backward(self, grad: np.ndarray, ws: Optional[Workspace] = None) -> np.ndarray:
        """Backpropagate dL/d(output); returns dL/d(input)."""
        for layer in reversed(self.layers):
            grad = layer.backward(grad, ws=ws)
        return grad

    def predict(self, x: np.ndarray, batch_size: int = 1024) -> np.ndarray:
        """Inference-mode forward pass in batches.

        Each chunk runs through the arena and is copied into one output
        array, so the result outlives the arena's next generation.
        """
        x = np.asarray(x, dtype=self.dtype)
        ws = self.workspace
        out = None
        # An empty input still runs one (empty) chunk to learn the width.
        for start in range(0, x.shape[0], batch_size) or [0]:
            ws.reset()
            h = self.forward(x[start : start + batch_size], training=False, ws=ws)
            if out is None:
                out = np.empty((x.shape[0], h.shape[1]), dtype=h.dtype)
            out[start : start + h.shape[0]] = h
        return out

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: Optional[np.ndarray] = None,
        epochs: int = 10,
        batch_size: int = 32,
        loss: Union[str, Loss] = "mse",
        optimizer: Union[str, Optimizer] = "adadelta",
        validation_split: float = 0.0,
        shuffle: bool = True,
        early_stopping_patience: Optional[int] = None,
        min_delta: float = 0.0,
        verbose: bool = False,
        callbacks: Optional[Sequence] = None,
    ) -> TrainingHistory:
        """Train with mini-batch gradient descent.

        Args:
            x: training inputs -- a ``(n, input_dim)`` array, or a row
                source (:mod:`repro.nn.data`) whose mini-batches are
                gathered lazily; the row-source path is reconstruction
                only (``y`` must be None) and trains bit-identically to
                passing the materialized array.
            y: targets; defaults to ``x`` (autoencoder reconstruction).
            epochs: maximum number of passes over the data.
            batch_size: mini-batch size.
            loss: loss name or instance (default MSE, as in the paper).
            optimizer: optimizer name or instance (default Adadelta).
            validation_split: trailing fraction of the (shuffled) data held
                out for validation loss / early stopping.
            shuffle: reshuffle training rows every epoch.
            early_stopping_patience: stop after this many epochs without
                ``min_delta`` improvement in the monitored loss
                (validation loss when a split is used, else training loss).
            verbose: print one line per epoch (an
                :class:`~repro.nn.callbacks.EpochLogger` appended to
                ``callbacks``).
            callbacks: objects implementing (a subset of) the callback
                protocol in :mod:`repro.nn.callbacks`; they observe
                training without affecting its numerics.

        Returns:
            A :class:`TrainingHistory` with per-epoch losses.
        """
        if is_row_source(x):
            if y is not None:
                raise ValueError("row-source training is reconstruction-only (y must be None)")
            source, width, n_total = x, int(x.dim), len(x)

            def fetch(idx: np.ndarray):
                xb = np.asarray(source.rows(idx), dtype=self.dtype)
                return xb, xb

            # Row sources gather through arbitrary Python objects, so the
            # mini-batch fetch itself stays allocating (layers, loss and
            # optimizer still run through the arena).
            def fetch_batch(sel: np.ndarray, ws: Workspace):
                return fetch(train_idx[sel])

        else:
            x = np.asarray(x, dtype=self.dtype)
            y = x if y is None else np.asarray(y, dtype=self.dtype)
            if x.shape[0] != y.shape[0]:
                raise ValueError(f"x and y row counts differ: {x.shape[0]} vs {y.shape[0]}")
            width, n_total = x.shape[1], x.shape[0]

            def fetch(idx: np.ndarray):
                return x[idx], y[idx]

            def fetch_batch(sel: np.ndarray, ws: Workspace):
                # Compose train_idx[order[...]] and the row gather through
                # np.take(..., out=) -- bit-identical to fancy indexing.
                idx = ws.acquire(sel.shape, train_idx.dtype)
                np.take(train_idx, sel, out=idx)
                xb = ws.acquire((sel.shape[0], width), self.dtype)
                np.take(x, idx, axis=0, out=xb)
                if y is x:
                    return xb, xb
                yb = ws.acquire((sel.shape[0], y.shape[1]), self.dtype)
                np.take(y, idx, axis=0, out=yb)
                return xb, yb

        if n_total == 0:
            raise ValueError("cannot fit on an empty dataset")
        if not 0.0 <= validation_split < 1.0:
            raise ValueError(f"validation_split must be in [0, 1), got {validation_split}")
        if not self.built:
            self.build(width)

        loss_fn = get_loss(loss) if isinstance(loss, str) else loss
        opt = get_optimizer(optimizer) if isinstance(optimizer, str) else optimizer
        ws = self.workspace

        n_val = int(round(n_total * validation_split))
        if n_val > 0:
            perm = self._rng.permutation(n_total)
            train_idx = perm[:-n_val]
            if train_idx.shape[0] == 0:
                raise ValueError("validation_split leaves no training data")
            x_val, y_val = fetch(perm[-n_val:])
        else:
            x_val = y_val = None
            train_idx = np.arange(n_total)

        history = TrainingHistory()
        params = self.parameters()
        best_monitor = np.inf
        stale_epochs = 0
        n = train_idx.shape[0]
        n_batches = 0

        callback_list = CallbackList(callbacks)
        if verbose:
            callback_list.callbacks.append(EpochLogger())
        telemetry = get_telemetry()
        arena_before = ws.stats()

        with telemetry.span(
            "nn.fit", samples=int(n), input_dim=int(width), batch_size=batch_size
        ) as span:
            callback_list.on_train_begin(
                {"epochs": epochs, "n_samples": int(n), "batch_size": batch_size}
            )
            for epoch in range(epochs):
                order = self._rng.permutation(n) if shuffle else np.arange(n)
                epoch_loss = 0.0
                for start in range(0, n, batch_size):
                    sel = order[start : start + batch_size]
                    # One generation of arena buffers per mini-batch
                    # (asarray/shape checks skipped -- the gather already
                    # produced a 2-D batch of self.dtype).
                    ws.reset()
                    xb, yb = fetch_batch(sel, ws)
                    pred = xb
                    for layer in self.layers:
                        pred = layer.forward(pred, training=True, ws=ws)
                    epoch_loss += loss_fn.value(yb, pred, ws) * sel.shape[0]
                    grad = loss_fn.gradient(yb, pred, ws)
                    for layer in reversed(self.layers):
                        grad = layer.backward(grad, ws=ws)
                    opt.step(params, ws=ws)
                    n_batches += 1
                epoch_loss /= n
                history.loss.append(epoch_loss)
                # Read-only diagnostic of the last mini-batch's gradients;
                # computed unconditionally so the history is the same with
                # and without observers attached.
                grad_norm = float(
                    np.sqrt(sum(float(np.sum(np.square(p.grad))) for p in params))
                )
                history.grad_norm.append(grad_norm)

                if x_val is not None:
                    val_pred = self.predict(x_val)
                    val_loss = loss_fn.value(y_val, val_pred)
                    history.val_loss.append(val_loss)
                    monitor = val_loss
                else:
                    val_loss = None
                    monitor = epoch_loss

                callback_list.on_epoch_end(
                    epoch,
                    {
                        "epoch": epoch,
                        "epochs": epochs,
                        "loss": epoch_loss,
                        "val_loss": val_loss,
                        "grad_norm": grad_norm,
                        "learning_rate": float(opt.learning_rate),
                        "iterations": int(opt.iterations),
                    },
                )

                if early_stopping_patience is not None:
                    if monitor < best_monitor - min_delta:
                        best_monitor = monitor
                        stale_epochs = 0
                    else:
                        stale_epochs += 1
                        if stale_epochs >= early_stopping_patience:
                            break
            callback_list.on_train_end(history)
            span.annotate(epochs_trained=history.epochs_trained)
        telemetry.counter("nn.epochs_total").inc(history.epochs_trained)
        telemetry.counter("nn.batches_total").inc(n_batches)
        telemetry.counter("nn.fits_total").inc()
        arena_after = ws.stats()
        telemetry.counter("nn.arena.hits").inc(arena_after.hits - arena_before.hits)
        telemetry.counter("nn.arena.misses").inc(arena_after.misses - arena_before.misses)
        telemetry.gauge("nn.arena.peak_bytes").set(arena_after.peak_bytes)
        return history

    def evaluate(self, x: np.ndarray, y: Optional[np.ndarray] = None, loss: Union[str, Loss] = "mse") -> float:
        """Inference-mode loss over a dataset (computed in ``self.dtype``)."""
        y = np.asarray(x, dtype=self.dtype) if y is None else np.asarray(y, dtype=self.dtype)
        loss_fn = get_loss(loss) if isinstance(loss, str) else loss
        return loss_fn.value(y, self.predict(x))
