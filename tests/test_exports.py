"""Every ``__all__`` under ``beamseq`` names something its module defines,
and every console script in ``pyproject.toml`` names a callable.

A name left in ``__all__`` after its definition is deleted breaks only a star
import, which nothing in the package runs, so each module is star-imported
here. A dangling script target fails only once the package is installed.

The settable values of the pipeline are pinned too: the fields of its
config objects and the parameters of ``make_dataset``. A value that becomes
settable again changes that test, and CHANGES.md says why. So is the public
surface, each module's ``__all__``: a public name is added or removed only
by changing that test, and CHANGES.md says why.
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


def test_public_names_are_pinned():
    layers = [
        "NumericError", "DenseParams", "EmbeddingParams", "LSTMParams", "AttentionParams",
        "dense_forward", "dense_backward", "embedding_forward", "embedding_backward",
        "lstm_input_product", "lstm_recurrence", "lstm_sequence_forward",
        "lstm_sequence_backward", "lstm_states", "lstm_cell_forward", "lstm_cell_backward",
        "attention_memory_forward", "attention_attend_forward", "attention_sequence_forward",
        "attention_sequence_backward", "attention_forward", "attention_backward",
        "dropout_forward", "dropout_backward", "dropout_apply", "softmax",
        "softmax_cross_entropy_batch", "init_dense", "init_embedding", "init_lstm",
        "init_attention", "params_items", "accumulate_params",
    ]
    optim = ["AdamState", "adam_init", "adam_step", "clip_global_norm"]
    checkpoint = ["CheckpointError", "save_tensors", "load_tensors"]
    names = {m: getattr(importlib.import_module(m), "__all__", None) for m in MODULES}
    assert names == {
        "beamseq": None,
        "beamseq._files": None,
        "beamseq.data": [
            "LOG_EPSILON", "preprocess_csi", "grid_features", "grid_beam_labels",
            "TrainingSample", "WindowTable", "Dataset", "make_dataset", "save_dataset",
            "load_dataset", "DatasetFormatError",
        ],
        "beamseq.mobility": ["sample_trajectory", "sample_trajectories", "TrajectoryError"],
        "beamseq.nn": [*layers, *optim, *checkpoint],
        "beamseq.nn.checkpoint": checkpoint,
        "beamseq.nn.layers": layers,
        "beamseq.nn.optim": optim,
        "beamseq.phy": [
            "SPEED_OF_LIGHT", "OutageError", "ArrayGeometry", "PathComponent", "ChannelSnapshot",
            "Codebook", "steering_vector", "synthesize_channels", "synthesize_channel",
            "build_dft_codebook", "best_beams", "optimal_beam",
        ],
        "beamseq.scene": [
            "Wall", "Scatterer", "BaseStation", "GridSpec", "Scene", "SceneParams",
            "generate_scene", "ChannelGrid", "build_channel_grid", "snap_positions",
        ],
        "beamseq.seq2seq": [
            "Seq2SeqHyper", "Seq2SeqModel", "EncoderOutput", "TrainConfig", "TrainState",
            "init_model", "encode", "decode_greedy", "train", "save_model", "load_model",
            "save_train_state", "load_train_state", "write_history",
        ],
    }
