"""Binary checkpoint container: named float64 tensors plus a metadata block.

Layout (little-endian throughout):

    magic "BMCK" | version u32 | tensor count u32
    per tensor: name length u32 | name UTF-8 | rank u32 | dims u32 each | f64 data
    metadata length u32 | metadata UTF-8 (JSON)
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .._files import atomic_write

__all__ = ["CheckpointError", "save_tensors", "load_tensors", "FORMAT_VERSION"]

MAGIC = b"BMCK"
FORMAT_VERSION = 1


class CheckpointError(RuntimeError):
    """Malformed, truncated, or incompatible checkpoint file."""


def save_tensors(path, named_tensors: list[tuple[str, np.ndarray]], metadata: dict) -> None:
    """Write the tensors and metadata to ``path``, replacing it atomically."""
    meta_bytes = json.dumps(metadata, sort_keys=True).encode("utf-8")
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(named_tensors)))
        for name, tensor in named_tensors:
            # ascontiguousarray makes a 0-d tensor 1-d; keep its rank
            arr = np.ascontiguousarray(tensor, dtype=np.float64).reshape(np.shape(tensor))
            name_bytes = name.encode("utf-8")
            fh.write(struct.pack("<I", len(name_bytes)))
            fh.write(name_bytes)
            fh.write(struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape))
            fh.write(arr.astype("<f8", copy=False).data)
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)


def _take(buf: bytes, offset: int, count: int) -> tuple[bytes, int]:
    end = offset + count
    if end > len(buf):
        raise CheckpointError("truncated checkpoint file")
    return buf[offset:end], end


def load_tensors(path) -> tuple[dict[str, np.ndarray], dict]:
    buf = Path(path).read_bytes()
    chunk, off = _take(buf, 0, 4)
    if chunk != MAGIC:
        raise CheckpointError(f"bad magic {chunk!r}, expected {MAGIC!r}")
    chunk, off = _take(buf, off, 8)
    version, count = struct.unpack("<II", chunk)
    if version != FORMAT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        chunk, off = _take(buf, off, 4)
        (name_len,) = struct.unpack("<I", chunk)
        chunk, off = _take(buf, off, name_len)
        try:
            name = chunk.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"tensor name {chunk!r} is not UTF-8") from exc
        chunk, off = _take(buf, off, 4)
        (rank,) = struct.unpack("<I", chunk)
        chunk, off = _take(buf, off, 4 * rank)
        dims = struct.unpack(f"<{rank}I", chunk)
        # Python ints: corrupt dims must read as truncation, not overflow.
        n_values = math.prod(dims)
        chunk, off = _take(buf, off, 8 * n_values)
        if name in tensors:
            raise CheckpointError(f"tensor {name!r} appears twice")
        tensors[name] = np.frombuffer(chunk, dtype="<f8").reshape(dims).copy()
    chunk, off = _take(buf, off, 4)
    (meta_len,) = struct.unpack("<I", chunk)
    chunk, off = _take(buf, off, meta_len)
    try:
        metadata = json.loads(chunk.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"bad metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise CheckpointError(f"metadata is a JSON {type(metadata).__name__}, not an object")
    if off != len(buf):
        raise CheckpointError(f"{len(buf) - off} trailing bytes after metadata")
    return tensors, metadata
