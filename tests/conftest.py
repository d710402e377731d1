"""Shared fixtures."""

import json
import tracemalloc
import warnings
import zipfile

import numpy as np
import pytest


@pytest.fixture
def write_archive():
    """``write(path, members, metadata)``: an npz file laid out as
    ``beamseq._files.save_npz`` writes it, one ``<name>.npy`` member per
    ``(name, array)`` pair and then ``metadata.npy``, but without its checks:
    names may repeat and ``metadata`` may be any JSON value."""

    def write(path, members, metadata):
        meta = np.frombuffer(json.dumps(metadata).encode(), dtype=np.uint8)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # zipfile warns on a repeated name
            with zipfile.ZipFile(path, "w") as zf:
                for name, array in [*members, ("metadata", meta)]:
                    with zf.open(f"{name}.npy", "w") as fh:
                        np.lib.format.write_array(fh, np.asarray(array))

    return write


@pytest.fixture
def traced_memory():
    """``measure(call)``: run ``call()`` under ``tracemalloc``; returns (its
    result, the bytes it allocated that are still held when it returns, the
    peak of its allocations above those)."""

    def measure(call):
        tracemalloc.start()
        try:
            result = call()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, retained, peak - retained

    return measure
