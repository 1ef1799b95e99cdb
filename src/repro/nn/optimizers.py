"""The Adadelta optimizer (Zeiler 2012), the one the paper trains with.

:class:`Adadelta` keeps two accumulators per parameter keyed by
``id(parameter)``, so the same instance must be used with a fixed set of
parameters for the whole training run (which is what
:class:`repro.nn.network.Sequential` does).  ``Optimizer`` names the same
class: it is the type the training loop steps.

:meth:`Adadelta.step` is one cache-blocked loop.  It walks flat views of
each parameter's value, gradient and accumulators in blocks of
:data:`BLOCK_BYTES` per array and runs every in-place ``out=`` kernel of
the update on a block while its arrays are still in cache, instead of
streaming each full weight matrix through memory once per pass.  The
update is elementwise, so every element sees the same operations in the
same order as an unblocked update (the results are bit-identical).  The
two scratch buffers come from a :class:`repro.nn.workspace.Workspace` (a
throwaway one when the caller passes none) once per step, at block size;
the accumulators are allocated once per parameter and mutated in place.
Gradients must have their parameter's dtype; a float32 network updates
entirely in float32.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.nn.layers import Parameter
from repro.nn.workspace import Workspace

#: Bytes per array in one block of :meth:`Adadelta.step`: 64 Ki elements
#: in float32, 32 Ki in float64.  A block's working set is six such
#: arrays (value, gradient, two accumulators, two scratch), 1.5 MiB,
#: which stays within a 2 MiB per-core L2 while a block is long enough
#: that the per-block call overhead is negligible.  Results do not
#: depend on it.
BLOCK_BYTES = 256 * 1024

#: Zeiler's Adadelta constants: the decay of both moving averages and the
#: conditioning term.  The learning rate is Zeiler's 1.0, so the update is
#: applied unscaled (Keras' 0.001 default effectively freezes training).
RHO = 0.95
EPSILON = 1e-6


class Adadelta:
    """Adadelta (Zeiler 2012).

    Maintains exponential moving averages of squared gradients and squared
    updates; the effective step size adapts per dimension without a
    manually tuned global learning rate.
    """

    def __init__(self) -> None:
        #: ``id(parameter)`` -> (acc_grad, acc_delta), in the parameter's
        #: shape and dtype.
        self._state: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

    def step(self, parameters: Iterable[Parameter], ws: Optional[Workspace] = None) -> None:
        """Apply one update to every parameter using its current ``grad``.

        Raises:
            TypeError: a gradient's dtype differs from its parameter's.
            ValueError: a parameter's value is not C-contiguous (a flat
                view of it would be a copy, and the update would be lost).
        """
        ws = ws or Workspace()
        parameters = list(parameters)
        largest = max((p.value.size for p in parameters), default=0)
        scratch: Dict[np.dtype, Tuple[np.ndarray, np.ndarray]] = {}
        for param in parameters:
            value = param.value
            if param.grad.dtype != value.dtype:
                raise TypeError(
                    f"gradient of {param.name!r} is {param.grad.dtype}, "
                    f"parameter is {value.dtype}"
                )
            if not value.flags.c_contiguous:
                raise ValueError(f"parameter {param.name!r} is not C-contiguous")
            state = self._state.get(id(param))
            if state is None:
                state = self._state[id(param)] = (
                    np.zeros(value.shape, value.dtype),
                    np.zeros(value.shape, value.dtype),
                )
            block = BLOCK_BYTES // value.itemsize
            pair = scratch.get(value.dtype)
            if pair is None:
                size = min(block, largest)
                pair = scratch[value.dtype] = (
                    ws.acquire((size,), value.dtype),
                    ws.acquire((size,), value.dtype),
                )
            value_flat, grad_flat = value.reshape(-1), param.grad.reshape(-1)
            acc_grad_flat, acc_delta_flat = (a.reshape(-1) for a in state)
            n = value.size
            for start in range(0, n, block):
                stop = min(start + block, n)
                v, g = value_flat[start:stop], grad_flat[start:stop]
                acc_grad, acc_delta = acc_grad_flat[start:stop], acc_delta_flat[start:stop]
                t1, t2 = pair[0][: stop - start], pair[1][: stop - start]
                # acc_grad = RHO * acc_grad + (1 - RHO) * grad**2
                acc_grad *= RHO
                np.multiply(g, g, out=t1)
                np.multiply(t1, 1.0 - RHO, out=t1)
                acc_grad += t1
                # update = sqrt(acc_delta + EPSILON) / sqrt(acc_grad + EPSILON) * grad
                np.add(acc_delta, EPSILON, out=t1)
                np.sqrt(t1, out=t1)
                np.add(acc_grad, EPSILON, out=t2)
                np.sqrt(t2, out=t2)
                np.divide(t1, t2, out=t1)
                np.multiply(t1, g, out=t1)
                # acc_delta = RHO * acc_delta + (1 - RHO) * update**2
                acc_delta *= RHO
                np.multiply(t1, t1, out=t2)
                np.multiply(t2, 1.0 - RHO, out=t2)
                acc_delta += t2
                # value -= update
                v -= t1


#: The optimizer type the training loop steps: the paper's one optimizer.
Optimizer = Adadelta
