"""Atomic file replacement, the npz container of checkpoints (one
uncompressed ``.npy`` member per array plus ``metadata.npy``, the UTF-8 JSON
of a metadata object as uint8, read with ``allow_pickle=False``), and the type
tests of file metadata values."""

import json
import math
import os
import zipfile
from contextlib import contextmanager
from pathlib import Path

import numpy as np

_METADATA = "metadata"
_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}

# What np.load and zipfile raise for a malformed archive: a bad or CRC-failing
# zip, truncation, a missing member, an unknown compression method (NotImplementedError),
# an encrypted member (RuntimeError) or a seek outside the file (OSError).
_MALFORMED = (zipfile.BadZipFile, EOFError, ValueError, KeyError, NotImplementedError,
              RuntimeError, OSError)


def is_int(value, least) -> bool:
    """An int, not a bool, of at least ``least``."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= least


def is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@contextmanager
def atomic_write(path):
    """Yield a binary file handle on a sibling temp file; when the block
    completes, ``os.replace`` it over ``path``. If the block raises, ``path``
    keeps its previous contents and the temp file is removed."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_npz(path, arrays: dict[str, np.ndarray], metadata) -> None:
    """Write ``arrays`` and the JSON of ``metadata`` to ``path`` (no ``.npz``
    suffix is appended), replacing it atomically."""
    meta = np.frombuffer(json.dumps(metadata, sort_keys=True).encode("utf-8"), dtype=np.uint8)
    with atomic_write(path) as fh:  # a handle: given a path, numpy appends ".npz"
        np.savez(fh, **arrays, **{_METADATA: meta})


def _check_member_sizes(zf: zipfile.ZipFile) -> None:
    """Raise ValueError when a ``.npy`` member's header declares a data size
    other than the bytes that follow it, before numpy allocates the declared
    shape: a header can claim far more than its member holds. A member
    without the ``.npy`` magic is left to ``load_npz``'s own checks."""
    for info in zf.infolist():
        if not info.filename.endswith(".npy"):
            continue
        with zf.open(info) as fh:
            magic = fh.read(np.lib.format.MAGIC_LEN)
            if not magic.startswith(np.lib.format.MAGIC_PREFIX):
                continue
            version = tuple(magic[-2:])
            if version not in _HEADER_READERS:
                raise ValueError(f"member {info.filename!r} has .npy version {version}")
            shape, _, dtype = _HEADER_READERS[version](fh)
            held = info.file_size - fh.tell()
        declared = math.prod(shape) * dtype.itemsize
        if declared != held:
            raise ValueError(f"member {info.filename!r} declares {shape} {dtype}, "
                             f"{declared} bytes, but holds {held}")


def load_npz(path, error) -> tuple[dict[str, np.ndarray], dict]:
    """``(arrays, metadata)`` of a ``save_npz`` file, arrays in file order.

    Raises ``error`` for a file that is not an npz archive, is truncated or
    corrupt, repeats a member, holds a member that is not an array or whose
    header declares more or less data than it holds, or lacks a metadata
    member that is a JSON object. A file that cannot be opened
    raises the ``OSError`` of ``open``.
    """
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            bare = isinstance(archive, np.ndarray)
            if not bare:
                with archive:
                    _check_member_sizes(archive.zip)
                    names = archive.zip.namelist()
                    members = {name: archive[name] for name in names}
        except _MALFORMED as exc:
            raise error(f"malformed npz file {path}: {exc!r}") from exc
    if bare:
        raise error(f"{path} is a bare .npy array, not an npz archive")
    if len(members) != len(names):
        twice = next(name for name in names if names.count(name) > 1)
        raise error(f"{twice.removesuffix('.npy')!r} appears twice")
    arrays = {}
    for name, value in members.items():
        if not (name.endswith(".npy") and isinstance(value, np.ndarray)):
            raise error(f"member {name!r} is not a .npy array")
        arrays[name.removesuffix(".npy")] = value
    if _METADATA not in arrays:
        raise error("no metadata member")
    try:
        metadata = json.loads(arrays.pop(_METADATA).tobytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise error(f"bad metadata block: {exc}") from exc
    if not isinstance(metadata, dict):
        raise error(f"metadata is a JSON {type(metadata).__name__}, not an object")
    return arrays, metadata
