"""The benchmark's workloads: ``datagen``, ``train`` and ``infer``.

Each workload has a ``setup`` that builds its inputs from the seed and warms
the code it times, an ``op`` that runs one timed operation, a ``verify`` that
checks the operation's outputs untimed, and ``counters`` taken from the
outputs of traced operations. One process, one client, closed loop: the next
operation starts when the previous one has returned.

* ``datagen`` op: the paper scene (``SceneParams()`` but a 0.1 m grid, 30k points),
  one channel grid per BS, then for each handover pairing (mbs->rsu1, F=128;
  rsu0->rsu1, F=32) ``make_dataset`` + ``save_dataset`` + ``load_dataset``.
  Unit of work: trajectories.
* ``train`` op: one epoch of ``seq2seq.train`` from a fresh model at paper
  shapes (B=64, T=K=50, H=256, F=128, X=64) on a fixed-size train split, then
  ``save_train_state`` + ``load_train_state``. Unit of work: batches.
* ``infer`` op: one request, ``seq2seq.encode`` + ``seq2seq.decode_greedy``
  on one held-out (50, 128) window against a fixed-seed model. Unit of work:
  requests.
"""

from __future__ import annotations

import dataclasses
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from beamseq import data, nn, phy, scene, seq2seq
from beamseq.mobility import TrajectoryError

import canary

# Errors the program raises for bad inputs or numerics; an operation that
# raises one is counted as failed instead of ending the run.
TYPED_ERRORS = (
    phy.OutageError,
    TrajectoryError,
    nn.NumericError,
    data.DatasetFormatError,
    nn.CheckpointError,
)

BS_IDS = ("rsu0", "rsu1", "mbs")
PAIRINGS = canary.PAIRINGS
NUM_BEAMS = canary.NUM_BEAMS
HISTORY = canary.HISTORY
HORIZON = canary.HORIZON
SNAPSHOT_RTOL = 1e-12
# An untrained model predicts close to uniformly over X beams, so one epoch
# from a fresh model leaves the loss near ln(X).
LOSS_TOLERANCE = 0.5

# Sub-stream tags for values the benchmark itself draws from the seed.
_TAG_SPOT = 101
_TAG_REQUESTS = 102


@dataclass(frozen=True)
class Sizes:
    # datagen: the paper scene at twice its 0.05 m grid spacing (30k points),
    # so that a 30 s run holds four passes instead of one
    grid_spacing: float = 0.1
    trajectories: int = 300  # datagen: per dataset
    spot_points: int = 128  # datagen: spot-checked grid points per BS
    coarse_spacing: float = 0.5  # train / infer: grid built in set-up
    train_windows: int = 128
    val_windows: int = 32
    batch_size: int = 64
    hidden: int = 256
    embed_dim: int = 100
    heldout_windows: int = 32
    min_requests: int = 100  # infer: so that ten requests fall beyond p90


PAPER = Sizes()


@dataclass
class OpResult:
    seconds: float
    windows: int
    outputs: object


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), tag]))


def _merge_grids(sc: scene.Scene, parts: list[scene.ChannelGrid]) -> scene.ChannelGrid:
    """One ChannelGrid from grids built one BS at a time."""
    fields = ("path_gains", "path_aods", "path_aoas", "path_valid", "snapshots")
    merged = {f: {} for f in fields}
    for part in parts:
        for f in fields:
            merged[f].update(getattr(part, f))
    bs_ids = tuple(bs for part in parts for bs in part.bs_ids)
    return scene.ChannelGrid(scene=sc, bs_ids=bs_ids, **merged)


def _dataset_with_splits(sc, grid, codebook, seed, wanted: dict[str, int]) -> data.Dataset:
    """mbs->rsu1 dataset holding exactly ``wanted[split]`` windows per split.

    Enough trajectories are drawn for every split to expect twice its size,
    so set-up does the same work for (almost) every seed; then each split is
    cut to its size, so the work per operation does not vary with the seed.
    """
    ratios = dict(zip(data.SPLIT_NAMES, data.Dataset.split_ratios))
    n = math.ceil(2 * max(k / ratios[s] for s, k in wanted.items()))
    while True:
        ds = data.make_dataset(
            sc, grid, "mbs", "rsu1", n, codebook, seed=seed, history=HISTORY, horizon=HORIZON
        )
        chosen = {split: ds.split_samples(split) for split in wanted}
        short = max(k / max(len(chosen[s]), 1) for s, k in wanted.items())
        if short <= 1:
            samples = [x for s, k in wanted.items() for x in chosen[s][:k]]
            return dataclasses.replace(ds, samples=samples)
        n = math.ceil(1.25 * short * n)


def _coarse_world(seed: int, sizes: Sizes):
    sc = scene.generate_scene(scene.SceneParams(grid_spacing=sizes.coarse_spacing), seed=seed)
    grid = scene.build_channel_grid(sc, ("mbs", "rsu1"))
    codebook = phy.build_dft_codebook(NUM_BEAMS, sc.station("rsu1").geometry.num_antennas)
    return sc, grid, codebook


def nn_forward_flops(hyper: seq2seq.Seq2SeqHyper) -> int:
    """Matmul flops (2 per multiply-add) of one teacher-forced or greedy
    forward pass over one window."""
    t, k, f, h = hyper.history, hyper.horizon, hyper.feature_dim, hyper.hidden
    e, x = hyper.embed_dim, hyper.num_beams
    encoder = 2 * t * f * h + t * 2 * (8 * h * (h + h))
    dec_lstm = 8 * h * (e + h) + 8 * h * (h + h)
    attention = 2 * h * h + 4 * t * h + 2 * h * 2 * h
    return encoder + k * (dec_lstm + attention + 2 * h * x)


class Workload:
    """Defaults for the hooks a workload need not define."""

    def min_ops(self, ctx) -> int:
        return 1

    def counters(self, ctx, out: dict) -> dict[str, float]:
        return {}

    def nn_work(self, ctx) -> tuple[int, int]:
        """(matmul flops of one forward pass over one window, forward-pass
        equivalents per operation)."""
        return 0, 0


# ---------------------------------------------------------------------------
# datagen


class Datagen(Workload):
    name = "datagen"

    def setup(self, seed: int, sizes: Sizes, workdir: str):
        codebook = phy.build_dft_codebook(
            NUM_BEAMS, scene.SceneParams().rsu_antennas
        )
        ctx = dict(
            seed=seed, sizes=sizes, workdir=workdir, codebook=codebook, sha=None,
            scene=scene.generate_scene(scene.SceneParams(grid_spacing=sizes.grid_spacing), seed=seed),
        )
        # Warm-up: the whole pass on a grid with a tenth of the points. It
        # must hold large arrays too: the first pass that frees arrays of the
        # timed size runs ~10% slower than later ones.
        self._pass(ctx, sizes.grid_spacing * math.sqrt(10), max(2, sizes.trajectories // 10))
        return ctx

    def units_per_op(self, ctx) -> int:
        return len(PAIRINGS) * ctx["sizes"].trajectories

    def op(self, ctx) -> OpResult:
        return self._pass(ctx, ctx["sizes"].grid_spacing, ctx["sizes"].trajectories)

    def _pass(self, ctx, spacing: float, trajectories: int) -> OpResult:
        seed = ctx["seed"]
        t0 = time.perf_counter()
        sc = scene.generate_scene(scene.SceneParams(grid_spacing=spacing), seed=seed)
        grid = _merge_grids(sc, [scene.build_channel_grid(sc, (bs,)) for bs in BS_IDS])
        built, loaded, paths = {}, {}, {}
        for src, tgt in PAIRINGS:
            ds = data.make_dataset(
                sc, grid, src, tgt, trajectories, ctx["codebook"], seed=seed,
                history=HISTORY, horizon=HORIZON,
            )
            path = os.path.join(ctx["workdir"], f"{src}-{tgt}.bmsq")
            data.save_dataset(ds, path)
            built[src], loaded[src], paths[src] = ds, data.load_dataset(path), path
        seconds = time.perf_counter() - t0
        windows = sum(len(ds.samples) for ds in built.values())
        return OpResult(seconds, windows, dict(scene=sc, grid=grid, built=built, loaded=loaded, paths=paths))

    def verify(self, ctx, out: dict) -> tuple[list[str], dict]:
        grid, codebook, sizes = out["grid"], ctx["codebook"], ctx["sizes"]
        failures = check_snapshots(grid, sizes.spot_points, ctx["seed"])
        failures += check_labels(grid, codebook, sizes.spot_points, ctx["seed"])
        fingerprint = {
            "scene_digest": out["scene"].digest(),
            "snapshots": {bs: canary.snapshot_checksum(grid.snapshots[bs]) for bs in grid.bs_ids},
            "datasets": {},
        }
        for src, tgt in PAIRINGS:
            built, loaded = out["built"][src], out["loaded"][src]
            failures += check_dataset(built, loaded, sizes.trajectories)
            with open(out["paths"][src], "rb") as fh:
                fingerprint["datasets"][f"{src}-{tgt}"] = canary.dataset_summary(built, fh.read())
        # Every pass of one run sees the same inputs, so it must write the same bytes.
        sha = {k: v["sha256"] for k, v in fingerprint["datasets"].items()}
        if ctx["sha"] is not None and sha != ctx["sha"]:
            failures.append("dataset bytes differ between passes with the same seed")
        ctx["sha"] = sha
        return failures, fingerprint

    def counters(self, ctx, out: dict) -> dict[str, float]:
        grid = out["grid"]
        m = grid.scene.grid.num_points
        n_slots = {bs: grid.path_valid[bs].shape[1] for bs in grid.bs_ids}
        visited = np.unique(
            np.concatenate(
                [
                    scene.snap_positions(s.positions, grid.scene.grid)
                    for ds in out["built"].values()
                    for s in ds.samples
                ]
            )
        )
        counts = {
            "scene.grid_points": m,
            "scene.paths_per_point": float(
                np.mean([grid.path_valid[bs].sum(axis=1).mean() for bs in grid.bs_ids])
            ),
            "scene.synth_terms": sum(m * n_slots[bs] * grid.snapshots[bs].shape[1] for bs in grid.bs_ids),
            "scene.snapshot_bytes": sum(grid.snapshots[bs].nbytes for bs in grid.bs_ids),
            "data.windows": sum(len(ds.samples) for ds in out["built"].values()),
            "data.dropped_trajectories": sum(ds.dropped_trajectories for ds in out["built"].values()),
            "data.grid_visited_frac": visited.size / m,
        }
        for bs in BS_IDS:
            counts[f"scene.outage_frac.{bs}"] = float(grid.outage(bs).mean())
        return counts


def _spot_indices(grid: scene.ChannelGrid, count: int, seed: int) -> np.ndarray:
    m = grid.scene.grid.num_points
    return np.sort(_rng(seed, _TAG_SPOT).choice(m, size=min(count, m), replace=False))


def check_snapshots(grid: scene.ChannelGrid, count: int, seed: int) -> list[str]:
    """Rebuild the cached snapshot at sampled points from the traced paths
    with the scalar ``phy.synthesize_channel``."""
    failures = []
    for bs in grid.bs_ids:
        geometry = grid.scene.station(bs).geometry
        cached = grid.snapshots[bs]
        for i in _spot_indices(grid, count, seed):
            paths = grid.paths_at(bs, int(i))
            if not paths:
                if np.any(cached[i]):
                    failures.append(f"{bs} point {i}: outage point has a non-zero snapshot")
                continue
            ref = phy.synthesize_channel(paths, geometry).coefficients
            err = np.linalg.norm(cached[i] - ref)
            if not err <= SNAPSHOT_RTOL * np.linalg.norm(ref):
                failures.append(
                    f"{bs} point {i}: snapshot differs from synthesize_channel "
                    f"by {err / np.linalg.norm(ref):.3e} relative"
                )
    return failures


def check_labels(grid: scene.ChannelGrid, codebook: phy.Codebook, count: int, seed: int) -> list[str]:
    """``phy.optimal_beam`` on sampled points equals ``grid_beam_labels``."""
    failures = []
    for bs in ("rsu0", "rsu1"):
        labels, _ = data.grid_beam_labels(grid, bs, codebook)
        outage = grid.outage(bs)
        for i in _spot_indices(grid, count, seed):
            if outage[i]:
                continue
            want = phy.optimal_beam(grid.snapshots[bs][i], codebook)
            if want != labels[i]:
                failures.append(f"{bs} point {i}: optimal_beam {want} != grid label {labels[i]}")
    return failures


def check_dataset(built: data.Dataset, loaded: data.Dataset, trajectories: int) -> list[str]:
    """Save->load round trip, window count and label histogram."""
    name = f"{built.source_bs}->{built.target_rsu}"
    failures = []
    header = ("num_beams", "history", "horizon", "source_bs", "target_rsu", "seed",
              "scene_digest", "dropped_trajectories")
    for key in header:
        if getattr(built, key) != getattr(loaded, key):
            failures.append(f"{name}: {key} did not round-trip")
    for key in ("feature_mean", "feature_std"):
        if not np.array_equal(getattr(built, key), getattr(loaded, key)):
            failures.append(f"{name}: {key} did not round-trip")
    if len(built.samples) != len(loaded.samples):
        return failures + [f"{name}: {len(loaded.samples)} windows loaded, {len(built.samples)} saved"]
    pairs = list(zip(built.samples, loaded.samples))
    if not all(
        np.array_equal(a.labels, b.labels)
        and (a.trajectory_id, a.start_slot) == (b.trajectory_id, b.start_slot)
        for a, b in pairs
    ):
        failures.append(f"{name}: labels or window ids did not round-trip")
    if pairs and not np.array_equal(
        np.stack([a.features for a, _ in pairs]).astype(np.float32).astype(np.float64),
        np.stack([b.features for _, b in pairs]),
    ):
        failures.append(f"{name}: features did not round-trip through float32")

    meta = built.extra_metadata
    per_trajectory = len(range(built.history - 1, meta["slots_per_trajectory"] - built.horizon, meta["stride"]))
    want_windows = (trajectories - built.dropped_trajectories) * per_trajectory
    if len(built.samples) != want_windows:
        failures.append(f"{name}: {len(built.samples)} windows, expected {want_windows}")
    hist = built.label_histogram()
    if hist.sum() != len(built.samples) * built.horizon:
        failures.append(f"{name}: label histogram counts {hist.sum()} labels")
    if not np.array_equal(hist, loaded.label_histogram()):
        failures.append(f"{name}: label histogram changed on reload")
    return failures


# ---------------------------------------------------------------------------
# train


class Train(Workload):
    name = "train"

    def setup(self, seed: int, sizes: Sizes, workdir: str):
        sc, grid, codebook = _coarse_world(seed, sizes)
        ds = _dataset_with_splits(
            sc, grid, codebook, seed, {"train": sizes.train_windows, "val": sizes.val_windows}
        )
        hyper = canary.paper_hyper(hidden=sizes.hidden, embed_dim=sizes.embed_dim)
        config = seq2seq.TrainConfig(batch_size=sizes.batch_size, max_epochs=1, seed=seed)
        # Warm-up: one training step at the timed batch shape.
        warm = dataclasses.replace(ds, samples=ds.split_samples("train")[: sizes.batch_size])
        seq2seq.train(seq2seq.init_model(hyper, seed), warm, config)
        return dict(
            seed=seed, sizes=sizes, scene=sc, dataset=ds, hyper=hyper, config=config,
            checkpoint=os.path.join(workdir, "train-state.bmck"), loss=None,
        )

    def units_per_op(self, ctx) -> int:
        return math.ceil(ctx["sizes"].train_windows / ctx["sizes"].batch_size)

    def op(self, ctx) -> OpResult:
        model = seq2seq.init_model(ctx["hyper"], ctx["seed"])
        t0 = time.perf_counter()
        model, history, state = seq2seq.train(model, ctx["dataset"], ctx["config"])
        seq2seq.save_train_state(ctx["checkpoint"], model, state)
        restored = seq2seq.load_train_state(ctx["checkpoint"])
        seconds = time.perf_counter() - t0
        return OpResult(seconds, ctx["sizes"].train_windows, dict(model=model, history=history, state=state, restored=restored))

    def verify(self, ctx, out: dict) -> tuple[list[str], dict]:
        loss = out["history"][0]["train_loss"]
        failures = []
        if not abs(loss - math.log(NUM_BEAMS)) <= LOSS_TOLERANCE:
            failures.append(f"epoch loss {loss!r} not within {LOSS_TOLERANCE} of ln X")
        # Same seed, same fresh model, same batches: every epoch is bit-identical.
        if ctx["loss"] is not None and loss != ctx["loss"]:
            failures.append(f"epoch loss {loss!r} differs from the first epoch's {ctx['loss']!r}")
        ctx["loss"] = loss
        failures += check_train_state(out["model"], out["state"], *out["restored"][:2])
        return failures, {"epoch_loss": loss}

    def nn_work(self, ctx) -> tuple[int, int]:
        # backward costs about twice the forward; validation is forward only
        sizes = ctx["sizes"]
        return nn_forward_flops(ctx["hyper"]), 3 * sizes.train_windows + sizes.val_windows


def check_train_state(model, state, model2, state2) -> list[str]:
    """Everything ``save_train_state`` wrote comes back from ``load_train_state``."""
    failures = []
    a, b = model.named_params(), model2.named_params()
    if a.keys() != b.keys() or not all(np.array_equal(a[k], b[k]) for k in a):
        failures.append("model parameters did not round-trip through the checkpoint")
    for key in ("m", "v"):
        x, y = getattr(state.adam, key), getattr(state2.adam, key)
        if x.keys() != y.keys() or not all(np.array_equal(x[k], y[k]) for k in x):
            failures.append(f"Adam {key} did not round-trip through the checkpoint")
    if not all(np.array_equal(state.best_params[k], state2.best_params[k]) for k in state.best_params):
        failures.append("best parameters did not round-trip through the checkpoint")
    for key in ("rng_state", "next_epoch", "best_val_loss", "epochs_since_best"):
        if getattr(state, key) != getattr(state2, key):
            failures.append(f"train state {key} did not round-trip through the checkpoint")
    if state.adam.t != state2.adam.t:
        failures.append("Adam step count did not round-trip through the checkpoint")
    return failures


# ---------------------------------------------------------------------------
# infer


class Infer(Workload):
    name = "infer"

    def setup(self, seed: int, sizes: Sizes, workdir: str):
        sc, grid, codebook = _coarse_world(seed, sizes)
        ds = _dataset_with_splits(sc, grid, codebook, seed, {"test": sizes.heldout_windows})
        heldout, _ = ds.arrays("test")
        model = seq2seq.init_model(
            canary.paper_hyper(hidden=sizes.hidden, embed_dim=sizes.embed_dim),
            seed=canary.INFER_MODEL_SEED,
        )
        ctx = dict(
            seed=seed, sizes=sizes, scene=sc, model=model, heldout=heldout,
            order=_rng(seed, _TAG_REQUESTS).permutation(len(heldout)), next=0, seen={},
        )
        # Warm-up requests; ten of them also keep set-up long enough to time
        # steadily on a shared machine.
        for i in range(10):
            seq2seq.decode_greedy(model, seq2seq.encode(model, heldout[i % len(heldout)]))
        return ctx

    def min_ops(self, ctx) -> int:
        return ctx["sizes"].min_requests

    def units_per_op(self, ctx) -> int:
        return 1

    def op(self, ctx) -> OpResult:
        window = int(ctx["order"][ctx["next"] % len(ctx["order"])])
        ctx["next"] += 1
        x, model = ctx["heldout"][window], ctx["model"]
        t0 = time.perf_counter()
        labels = seq2seq.decode_greedy(model, seq2seq.encode(model, x))
        seconds = time.perf_counter() - t0
        return OpResult(seconds, 1, dict(window=window, labels=labels))

    def verify(self, ctx, out: dict) -> tuple[list[str], dict]:
        labels, window = out["labels"], out["window"]
        failures = []
        if labels.shape != (HORIZON,) or labels.min() < 0 or labels.max() >= NUM_BEAMS:
            failures.append(f"request {window}: labels of shape {labels.shape} out of range")
        # Greedy decoding is deterministic: a repeated window gets the same labels.
        first = ctx["seen"].setdefault(window, labels)
        if not np.array_equal(first, labels):
            failures.append(f"request {window}: labels differ from an earlier request")
        return failures, {}

    def nn_work(self, ctx) -> tuple[int, int]:
        return nn_forward_flops(ctx["model"].hyper), 1


WORKLOADS = {w.name: w for w in (Datagen, Train, Infer)}
