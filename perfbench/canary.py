"""Behaviour fingerprint on fixed inputs, compared with ``reference.json``.

Every run rebuilds a small fixed world (scene seed 0, 0.5 m grid, both
handover pairings) whatever its ``--seed``, so its numbers can be recorded
once and compared on every run:

* snapshot checksums per BS, ``u^T S v`` for fixed random u, v, plus the
  energy ``sum |S|^2``, compared to 1e-10 relative;
* per dataset: window count and label histogram (exact), sum of squared
  stored features (1e-9 relative), and the sha256 of the file bytes;
* the train loss after a fixed number of steps from a fixed-seed small model
  (1e-8 relative);
* greedy labels of the paper-shaped, fixed-seed ``infer`` model on fixed
  windows (exact).

The sha256 digests are reported for before/after comparisons but do not fail
a run: they move with the last bit of any float, which a correct change to
float summation order may do.

Regenerate the reference from the code under ``src/``, from the checkout
root, with

    PYTHONPATH=src python3 perfbench/canary.py
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from beamseq import data, phy, scene, seq2seq

REFERENCE_PATH = Path(__file__).with_name("reference.json")

SEED = 0
GRID_SPACING = 0.5
TRAJECTORIES = 40
PAIRINGS = (("mbs", "rsu1"), ("rsu0", "rsu1"))
NUM_BEAMS = 64
HISTORY = HORIZON = 50
SMALL_MODEL = dict(hidden=32, embed_dim=16)
TRAIN_CONFIG = dict(batch_size=8, max_epochs=2, seed=SEED)
INFER_MODEL_SEED = 0
GREEDY_WINDOWS = 4


def paper_hyper(feature_dim: int = 128, **overrides) -> seq2seq.Seq2SeqHyper:
    return seq2seq.Seq2SeqHyper(
        feature_dim=feature_dim,
        history=HISTORY,
        horizon=HORIZON,
        num_beams=NUM_BEAMS,
        **overrides,
    )


def snapshot_checksum(snaps: np.ndarray) -> dict:
    """Float summary of an (M, N) snapshot table that tolerates last-bit
    changes, plus its exact sha256."""
    rng = np.random.default_rng(12345)
    u = rng.standard_normal(snaps.shape[0])
    v = rng.standard_normal(snaps.shape[1])
    proj = complex(u @ (snaps @ v))
    return {
        "energy": float(np.sum(snaps.real**2 + snaps.imag**2)),
        "proj_re": proj.real,
        "proj_im": proj.imag,
        "sha256": hashlib.sha256(np.ascontiguousarray(snaps).tobytes()).hexdigest(),
    }


def dataset_summary(ds: data.Dataset, blob: bytes) -> dict:
    feats = np.stack([s.features for s in ds.samples]).astype(np.float32)
    return {
        "windows": len(ds.samples),
        "label_histogram": ds.label_histogram().tolist(),
        "feature_sumsq": float(np.sum(feats.astype(np.float64) ** 2)),
        "bytes": len(blob),
        "sha256": hashlib.sha256(blob).hexdigest(),
    }


def compute(workdir) -> dict:
    """The fingerprint of the current code on the fixed inputs."""
    sc = scene.generate_scene(scene.SceneParams(grid_spacing=GRID_SPACING), seed=SEED)
    grid = scene.build_channel_grid(sc)
    codebook = phy.build_dft_codebook(NUM_BEAMS, sc.station("rsu1").geometry.num_antennas)
    fp = {
        "scene_digest": sc.digest(),
        "snapshots": {bs: snapshot_checksum(grid.snapshots[bs]) for bs in grid.bs_ids},
        "datasets": {},
    }
    datasets = {}
    for src, tgt in PAIRINGS:
        ds = data.make_dataset(
            sc, grid, src, tgt, TRAJECTORIES, codebook, seed=SEED,
            history=HISTORY, horizon=HORIZON,
        )
        path = os.path.join(workdir, f"canary-{src}-{tgt}.bmsq")
        data.save_dataset(ds, path)
        fp["datasets"][f"{src}-{tgt}"] = dataset_summary(ds, Path(path).read_bytes())
        datasets[src] = ds

    ds = datasets["mbs"]
    model = seq2seq.init_model(paper_hyper(**SMALL_MODEL), seed=SEED)
    _, history, _ = seq2seq.train(model, ds, seq2seq.TrainConfig(**TRAIN_CONFIG))
    fp["train_loss"] = [row["train_loss"] for row in history]

    model = seq2seq.init_model(paper_hyper(), seed=INFER_MODEL_SEED)
    test_x, _ = ds.arrays("test")
    fp["greedy_labels"] = [
        seq2seq.decode_greedy(model, seq2seq.encode(model, x)).tolist()
        for x in test_x[:GREEDY_WINDOWS]
    ]
    return fp


def _close(a: float, b: float, rtol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rtol * max(abs(a), abs(b))


def compare(fp: dict, ref: dict) -> tuple[list[str], dict]:
    """(failures, exact-digest matches) of a fingerprint against the reference."""
    failures = []
    digests = {}
    if fp["scene_digest"] != ref["scene_digest"]:
        failures.append(f"canary scene digest {fp['scene_digest']} != {ref['scene_digest']}")
    for bs, want in ref["snapshots"].items():
        got = fp["snapshots"].get(bs)
        if got is None:
            failures.append(f"canary snapshots missing for {bs}")
            continue
        for key in ("energy", "proj_re", "proj_im"):
            if not _close(got[key], want[key], 1e-10):
                failures.append(f"canary snapshot {bs}.{key} {got[key]!r} != {want[key]!r}")
        digests[f"snapshots.{bs}"] = got["sha256"] == want["sha256"]
    for name, want in ref["datasets"].items():
        got = fp["datasets"].get(name)
        if got is None:
            failures.append(f"canary dataset {name} missing")
            continue
        for key in ("windows", "label_histogram", "bytes"):
            if got[key] != want[key]:
                failures.append(f"canary dataset {name} {key} differs from the reference")
        if not _close(got["feature_sumsq"], want["feature_sumsq"], 1e-9):
            failures.append(
                f"canary dataset {name} feature_sumsq {got['feature_sumsq']!r} "
                f"!= {want['feature_sumsq']!r}"
            )
        digests[f"dataset.{name}"] = got["sha256"] == want["sha256"]
    if len(fp["train_loss"]) != len(want_loss := ref["train_loss"]) or not all(
        _close(a, b, 1e-8) for a, b in zip(fp["train_loss"], want_loss)
    ):
        failures.append(f"canary train loss {fp['train_loss']} != {want_loss}")
    if fp["greedy_labels"] != ref["greedy_labels"]:
        failures.append("canary greedy labels differ from the reference")
    return failures, digests


def check(workdir) -> tuple[list[str], dict, dict]:
    """(failures, fingerprint, exact-digest matches) for this run."""
    fp = compute(workdir)
    ref = json.loads(REFERENCE_PATH.read_text())
    failures, digests = compare(fp, ref)
    return failures, fp, digests


def main() -> int:
    runs_dir = Path(".perfbench_runs")
    runs_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=runs_dir) as workdir:
        fp = compute(workdir)
    REFERENCE_PATH.write_text(json.dumps(fp, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
