"""Every ``__all__`` under ``beamseq`` names something its module defines,
and every console script in ``pyproject.toml`` names a callable.

A name left in ``__all__`` after its definition is deleted breaks only a star
import, which nothing in the package runs, so each module is star-imported
here. A dangling script target fails only once the package is installed.
"""

import importlib
import pkgutil
from pathlib import Path

import pytest

import beamseq

MODULES = ["beamseq"] + sorted(
    info.name for info in pkgutil.walk_packages(beamseq.__path__, prefix="beamseq.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_star_import_resolves(module_name):
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)


def test_project_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    for name, target in pyproject["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), name
