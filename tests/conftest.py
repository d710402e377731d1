"""Shared fixtures."""

import json
import tracemalloc
import warnings
import zipfile
from collections import namedtuple

import numpy as np
import pytest

from beamseq import nn
from beamseq.nn import layers

Crossing = namedtuple("Crossing", "name where held peak")


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


@pytest.fixture
def phase_memory():
    """``probe(call, names)``: run ``call()`` under ``tracemalloc`` with each
    ``beamseq.nn`` function in ``names`` wrapped wherever ``nn`` or
    ``nn.layers`` looks it up. Returns (its result, one ``Crossing`` per entry
    to and exit from a wrapped function, in call order). A crossing's
    ``where`` is "entry" or "exit", ``held`` the traced bytes held there, and
    ``peak`` the most held since the previous crossing, so an exit's peak is
    the peak inside the function when no wrapped function runs within it."""

    def probe(call, names):
        crossings = []

        def cross(name, where):
            held, peak = tracemalloc.get_traced_memory()
            crossings.append(Crossing(name, where, held, peak))
            tracemalloc.reset_peak()

        def wrap(name, fn):
            def wrapped(*args, **kwargs):
                cross(name, "entry")
                result = fn(*args, **kwargs)
                cross(name, "exit")
                return result

            return wrapped

        with pytest.MonkeyPatch.context() as mp:
            for name in names:
                wrapped = wrap(name, getattr(nn, name))
                for module in (nn, layers):
                    if hasattr(module, name):
                        mp.setattr(module, name, wrapped)
            tracemalloc.start()
            try:
                result = call()
            finally:
                tracemalloc.stop()
        return result, crossings

    return probe
