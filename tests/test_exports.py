"""Every ``__all__`` under ``beamseq`` names something its module defines.

A name left in ``__all__`` after its definition is deleted breaks only a star
import, which nothing in the package runs, so each module is star-imported
here.
"""

import pkgutil

import pytest

import beamseq

MODULES = ["beamseq"] + sorted(
    info.name for info in pkgutil.walk_packages(beamseq.__path__, prefix="beamseq.")
)


@pytest.mark.parametrize("module_name", MODULES)
def test_star_import_resolves(module_name):
    namespace: dict = {}
    exec(f"from {module_name} import *", namespace)
