"""Every ``__all__`` under ``beamseq`` names something its module defines,
and every console script in ``pyproject.toml`` names a callable.

A name left in ``__all__`` after its definition is deleted breaks only a star
import, which nothing in the package runs, so each module is star-imported
here. A dangling script target fails only once the package is installed.

The settable values of the pipeline are pinned too: the fields of its
config objects and the parameters of ``make_dataset``. A value that becomes
settable again changes that test, and CHANGES.md says why.
"""

import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import beamseq
from beamseq.data import make_dataset
from beamseq.scene import SceneParams
from beamseq.seq2seq import Seq2SeqHyper, TrainConfig

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


def test_settable_values_are_pinned():
    fields = {cls.__name__: [f.name for f in dataclasses.fields(cls)]
              for cls in (TrainConfig, SceneParams, Seq2SeqHyper)}
    assert fields == {
        "TrainConfig": ["batch_size", "max_epochs", "patience", "seed"],
        "SceneParams": ["grid_spacing", "rsu_standoff", "rsu_antennas"],
        "Seq2SeqHyper": ["feature_dim", "history", "horizon", "num_beams", "hidden",
                         "embed_dim", "dropout"],
    }
    assert list(inspect.signature(make_dataset).parameters) == [
        "scene", "grid", "source_bs", "target_rsu", "num_trajectories", "codebook", "seed",
        "history", "horizon", "stride", "slots_per_trajectory",
    ]
