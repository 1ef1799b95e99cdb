"""Save/load trained networks to ``.npz`` archives.

The archive stores every layer's ``state_dict`` flattened under
``layer{i}/{param}`` keys plus a small JSON header describing the stack,
so a model trained once (e.g. for a long benchmark) can be reloaded
without retraining.  The round-trip is bit-exact -- parameters *and*
non-trainable state such as BatchNormalization running statistics are
restored to the same floats.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Union

import numpy as np

from repro.nn.network import Sequential

_HEADER_KEY = "__header__"

PathOrFile = Union[str, Path, IO[bytes]]


def _writable(path: PathOrFile):
    return path if hasattr(path, "write") else str(path)


def _readable(path: PathOrFile):
    return path if hasattr(path, "read") else str(path)


def save_network(network: Sequential, path: PathOrFile) -> None:
    """Serialize a built network's parameters and stats to ``path``.

    ``path`` may be a filesystem path or a writable binary file object.
    """
    if not network.built:
        raise ValueError("cannot save an un-built network")
    arrays = {}
    header = {
        "input_dim": network.input_dim,
        "output_dim": network.output_dim,
        "layers": [type(layer).__name__ for layer in network.layers],
        "dtype": network.dtype.name,
    }
    for i, layer in enumerate(network.layers):
        for name, value in layer.state_dict().items():
            arrays[f"layer{i}/{name}"] = value
    arrays[_HEADER_KEY] = np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8)
    np.savez(_writable(path), **arrays)


def load_network(network: Sequential, path: PathOrFile) -> Sequential:
    """Load parameters saved by :func:`save_network` into ``network``.

    The target network must already be built with a matching architecture;
    mismatches raise ``ValueError``.  ``path`` may be a filesystem path
    or a readable binary file object.
    """
    if not network.built:
        raise ValueError("build the network before loading parameters into it")
    with np.load(_readable(path)) as archive:
        header = json.loads(bytes(archive[_HEADER_KEY]).decode("utf-8"))
        expected_layers = [type(layer).__name__ for layer in network.layers]
        if header["layers"] != expected_layers:
            raise ValueError(
                f"architecture mismatch: file has {header['layers']}, "
                f"network has {expected_layers}"
            )
        if header["input_dim"] != network.input_dim:
            raise ValueError(
                f"input_dim mismatch: file has {header['input_dim']}, "
                f"network has {network.input_dim}"
            )
        # Archives written before the dtype field existed omit it; those
        # all predate float32 support and are float64.
        saved_dtype = header.get("dtype", "float64")
        if saved_dtype != network.dtype.name:
            raise ValueError(
                f"dtype mismatch: file has {saved_dtype}, "
                f"network has {network.dtype.name}"
            )
        for i, layer in enumerate(network.layers):
            prefix = f"layer{i}/"
            state = {
                key[len(prefix) :]: archive[key]
                for key in archive.files
                if key.startswith(prefix)
            }
            if state:
                layer.load_state_dict(state)
    return network

