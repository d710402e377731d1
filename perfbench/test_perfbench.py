"""Self-tests of the benchmark: tiny-size smoke runs and mutation checks.

Run from the checkout root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import canary  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    grid_spacing=0.5,
    trajectories=12,
    spot_points=8,
    coarse_spacing=1.0,
    train_windows=8,
    val_windows=2,
    batch_size=4,
    hidden=8,
    embed_dim=4,
    heldout_windows=3,
    min_requests=5,
)
NAME = re.compile(r"[A-Za-z0-9_.-]+")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric(workload, trace):
    report, result = bench.run(workload, seed=3, seconds=0.5, trace=trace, sizes=TINY, root=ROOT)
    assert result["correct"], report["checks"]["failures"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert isinstance(m["value"], (int, float)) and np.isfinite(m["value"]), name
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in spec)


def test_benchmark_json_matches_harness():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.PER_LAYER
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


def test_run_without_sources_exits_nonzero(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "infer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def tiny_pass(tmp_path_factory):
    wl = workloads.Datagen()
    ctx = wl.setup(seed=5, sizes=TINY, workdir=str(tmp_path_factory.mktemp("datagen")))
    return wl, ctx, wl.op(ctx).outputs


def test_tiny_pass_passes_its_checks(tiny_pass):
    wl, ctx, out = tiny_pass
    failures, _ = wl.verify(ctx, out)
    assert failures == []


def test_perturbed_snapshot_fails_the_check(tiny_pass):
    _, ctx, out = tiny_pass
    grid = copy.copy(out["grid"])
    grid.snapshots = dict(grid.snapshots)
    snaps = grid.snapshots["rsu1"] = grid.snapshots["rsu1"].copy()
    point = workloads._spot_indices(grid, TINY.spot_points, ctx["seed"])[0]
    snaps[point, 3] *= 1 + 1e-9
    failures = workloads.check_snapshots(grid, TINY.spot_points, ctx["seed"])
    assert any(f"rsu1 point {point}" in f for f in failures)


def test_perturbed_label_fails_the_check(tiny_pass):
    _, _, out = tiny_pass
    loaded = copy.deepcopy(out["loaded"]["mbs"])
    sample = loaded.samples[0]
    sample.labels[0] = (int(sample.labels[0]) + 1) % loaded.num_beams
    failures = workloads.check_dataset(out["built"]["mbs"], loaded, TINY.trajectories)
    assert any("labels" in f for f in failures)
    assert any("histogram" in f for f in failures)


def test_canary_detects_snapshot_and_label_changes():
    ref = json.loads(canary.REFERENCE_PATH.read_text())
    assert canary.compare(ref, ref)[0] == []
    bad = copy.deepcopy(ref)
    bad["snapshots"]["mbs"]["proj_re"] *= 1 + 1e-9
    assert any("snapshot mbs.proj_re" in f for f in canary.compare(bad, ref)[0])
    bad = copy.deepcopy(ref)
    hist = bad["datasets"]["rsu0-rsu1"]["label_histogram"]
    hist[0], hist[1] = hist[0] + 1, hist[1] - 1
    assert any("label_histogram" in f for f in canary.compare(bad, ref)[0])
    bad = copy.deepcopy(ref)
    bad["greedy_labels"][0][0] += 1
    assert any("greedy" in f for f in canary.compare(bad, ref)[0])
