"""Checkpoint files: named float64 tensors plus a metadata object.

A checkpoint is an npz file written and read through ``beamseq._files``: one
``.npy`` member ``t/<name>.npy`` per tensor, in the order given, and a member
``metadata.npy`` holding the metadata's UTF-8 JSON as uint8. The ``t/``
prefix keeps a tensor name from colliding with the metadata member.
"""

from __future__ import annotations

import numpy as np

from .._files import load_npz, save_npz

__all__ = ["CheckpointError", "save_tensors", "load_tensors"]

_PREFIX = "t/"


class CheckpointError(RuntimeError):
    """Malformed, truncated, or incompatible checkpoint file."""


def save_tensors(path, named_tensors: list[tuple[str, np.ndarray]], metadata: dict) -> None:
    """Write the tensors, as float64, and metadata to ``path``, replacing it
    atomically.

    Raises ``ValueError``, before the file is opened, for what ``load_tensors``
    would reject or lose: a tensor name that appears twice, a name holding NUL
    (zip member names end there) or a lone surrogate (they are UTF-8),
    metadata that is not a dict, or a tensor that does not cast to float64.
    """
    if not isinstance(metadata, dict):
        raise ValueError(f"metadata must be a dict, got {type(metadata).__name__}")
    arrays = {}
    for name, tensor in named_tensors:
        if _PREFIX + name in arrays:
            raise ValueError(f"tensor {name!r} appears twice")
        if "\0" in name:
            raise ValueError(f"tensor name {name!r} holds NUL")
        try:
            name.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError(f"tensor name {name!r} is not valid UTF-8") from exc
        arrays[_PREFIX + name] = np.asarray(tensor, dtype=np.float64)
    save_npz(path, arrays, metadata)


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    arrays, metadata = load_npz(path, CheckpointError)
    tensors = {}
    for key, arr in arrays.items():
        name = key.removeprefix(_PREFIX)
        if name == key:
            raise CheckpointError(f"member {key!r} is not a tensor")
        if arr.dtype != np.float64:
            raise CheckpointError(f"tensor {name!r} is {arr.dtype}, not float64")
        tensors[name] = arr
    return tensors, metadata
