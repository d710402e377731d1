"""Atomic file replacement shared by every writer in the package."""

import os
from contextlib import contextmanager
from pathlib import Path


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
