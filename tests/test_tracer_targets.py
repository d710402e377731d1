"""Every name the benchmark's tracer wraps still exists in the package.

``perfbench/tracer.py`` replaces module attributes by name; a function renamed
or removed under ``src/`` would break ``run.py --trace 1`` only when the
benchmark runs, so the names are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(m, a) for m, a, *_ in module.TARGETS]


@pytest.mark.parametrize("module_name, attr", _targets())
def test_tracer_target_exists(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr))
