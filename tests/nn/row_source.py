"""The row-source protocol's reference implementation (see ``repro.nn.data``)."""

from typing import Sequence

import numpy as np


class ArrayRowSource:
    """The trivial row source: an in-memory 2-D array.

    Training on it must be bit-identical to training on the bare array.
    """

    def __init__(self, array: np.ndarray):
        array = np.asarray(array)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-D array, got shape {array.shape}")
        self._array = array

    def __len__(self) -> int:
        return self._array.shape[0]

    @property
    def dim(self) -> int:
        return self._array.shape[1]

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        return self._array[np.asarray(indices, dtype=np.intp)]
