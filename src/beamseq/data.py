"""CSI preprocessing, supervised dataset assembly, and the dataset file format.

A training sample pairs T slots of preprocessed source-BS features with the
K following optimal beam indices at the target RSU, collected along a vehicle
trajectory that is snapped to the channel grid slot by slot.

Features are computed and standardized in float64 and held in float32, the
precision the dataset file keeps, so a fresh dataset holds the same feature
values as its save/load copy.

Every trajectory falls in one split, train, val or test, by a seeded draw
per trajectory with the fixed shares ``SPLIT_RATIOS``. The file records the
shares, and a file holding other shares does not load.

Dataset file layout (magic ``BMSQ``, little-endian):

    magic | version u32 | X u32 | F u32 | T u32 | K u32 | count u32
    feature mean f64*F | feature std f64*F
    metadata length u32 | metadata UTF-8 JSON
    records: one packed structured array of ``_record_dtype(T, F, K)``
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._files import atomic_write, is_int
from .mobility import (
    sample_trajectories,
    sample_trajectory,  # noqa: F401  (the benchmark tracer wraps it here)
)
from .phy import Codebook, best_beams
from .scene import ChannelGrid, Scene, snap_positions

__all__ = [
    "LOG_EPSILON",
    "preprocess_csi",
    "grid_features",
    "grid_beam_labels",
    "TrainingSample",
    "Dataset",
    "split_of_trajectory",
    "make_dataset",
    "save_dataset",
    "load_dataset",
    "DatasetFormatError",
]

LOG_EPSILON = 1e-9

MAGIC = b"BMSQ"
FORMAT_VERSION = 1

# sub-stream tags for seed derivation
_TAG_TRAJECTORY = 2
_TAG_SPLIT = 3

SPLIT_NAMES = ("train", "val", "test")
# the shares of trajectories in ``SPLIT_NAMES``, in order
SPLIT_RATIOS = (0.8, 0.1, 0.1)

# train windows per block when summing the feature statistics
_STATS_BLOCK = 64


class DatasetFormatError(RuntimeError):
    """Malformed or truncated dataset file."""


def preprocess_csi(h) -> np.ndarray:
    """Angular-domain log-amplitude features ln(|DFT_N(h)| + eps) of channels
    h (..., N), transformed along the last axis."""
    h = np.asarray(h)
    if not np.all(np.isfinite(h)):
        raise ValueError("channel coefficients must be finite")
    return np.log(np.abs(np.fft.fft(h, axis=-1)) + LOG_EPSILON)


def grid_features(grid: ChannelGrid, bs_id: str) -> np.ndarray:
    """Raw (unstandardized) features for every grid point, shape (M, N_bs)."""
    return preprocess_csi(grid.snapshots[bs_id])


def grid_beam_labels(grid: ChannelGrid, bs_id: str, codebook: Codebook):
    """Exhaustive-search beam label and its RSS for every grid point.

    Returns (labels (M,) uint16, rss_opt (M,) float64). Outage points get
    label 0 / rss 0 and must be filtered via ``grid.outage``.
    """
    snaps = grid.snapshots[bs_id]
    m = snaps.shape[0]
    labels = np.empty(m, dtype=np.uint16)
    rss_opt = np.empty(m)
    chunk = 16384
    for lo in range(0, m, chunk):
        labels[lo : lo + chunk], rss_opt[lo : lo + chunk] = best_beams(snaps[lo : lo + chunk], codebook)
    return labels, rss_opt


@dataclass
class TrainingSample:
    """One supervised window along a trajectory.

    ``start_slot`` is the first feature slot; the anchor (last observed) slot
    is ``start_slot + T - 1``; labels cover the K slots after the anchor.
    ``anchor_label`` and ``positions`` (T+K slots of ground truth) are present
    only on freshly generated datasets, not on file loads.
    """

    features: np.ndarray  # (T, F) float32, standardized
    labels: np.ndarray  # (K,) uint16
    trajectory_id: int
    start_slot: int
    anchor_label: int | None = None
    positions: np.ndarray | None = None  # (T+K, 2) float64


@dataclass
class Dataset:
    samples: list[TrainingSample]
    feature_mean: np.ndarray  # (F,)
    feature_std: np.ndarray  # (F,)
    num_beams: int
    history: int  # T
    horizon: int  # K
    source_bs: str
    target_rsu: str
    seed: int
    scene_digest: str
    dropped_trajectories: int = 0
    extra_metadata: dict = field(default_factory=dict)
    split_ratios: ClassVar[tuple[float, float, float]] = SPLIT_RATIOS

    @property
    def feature_dim(self) -> int:
        return int(self.feature_mean.shape[0])

    def split_of(self, trajectory_id: int) -> str:
        return split_of_trajectory(self.seed, trajectory_id)

    def indices(self, split: str) -> list[int]:
        """Positions of the split's samples, drawing the split once per
        distinct trajectory."""
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        ids = [s.trajectory_id for s in self.samples]
        split_of = {t: self.split_of(t) for t in set(ids)}
        return [i for i, t in enumerate(ids) if split_of[t] == split]

    def split_samples(self, split: str) -> list[TrainingSample]:
        return [self.samples[i] for i in self.indices(split)]

    def arrays(self, split: str):
        """Stacked (features (n, T, F) float32, labels (n, K) int64) for a split."""
        chosen = self.split_samples(split)
        if not chosen:
            return (
                np.empty((0, self.history, self.feature_dim), dtype=np.float32),
                np.empty((0, self.horizon), dtype=np.int64),
            )
        return _stacked(chosen)

    def label_histogram(self) -> np.ndarray:
        labels = np.concatenate([np.empty(0, dtype=np.uint16), *(s.labels for s in self.samples)])
        return np.bincount(labels, minlength=self.num_beams)


def _stacked(samples: list[TrainingSample]):
    """Stacked (features (n, T, F) float32, labels (n, K) int64) of a
    non-empty list of samples, in its order."""
    feats = np.stack([s.features for s in samples], dtype=np.float32)
    labels = np.stack([s.labels for s in samples]).astype(np.int64)
    return feats, labels


def split_of_trajectory(seed: int, trajectory_id: int) -> str:
    """Deterministic per-trajectory split assignment via a seeded hash draw
    against the ``SPLIT_RATIOS`` shares."""
    u = np.random.default_rng(
        np.random.SeedSequence([int(seed), _TAG_SPLIT, int(trajectory_id)])
    ).random()
    if u < SPLIT_RATIOS[0]:
        return "train"
    if u < SPLIT_RATIOS[0] + SPLIT_RATIOS[1]:
        return "val"
    return "test"


def _train_statistics(src: np.ndarray, window_rows: np.ndarray, train_windows: np.ndarray):
    """Per-feature mean and std over the train windows' feature rows, where
    window w reads the rows ``src[window_rows[w]]`` of the (rows, F) features:
    equal to the bytes of ``.mean(axis=0)`` and ``.std(axis=0)`` on those rows
    stacked as (rows, F), without stacking them.

    numpy adds the rows of such a reduction one after another, so the rows
    are summed in blocks of ``_STATS_BLOCK`` windows gathered into one buffer
    whose first row carries the running total: the additions run in the same
    order, while a total of per-block partial sums would round differently.
    The squared deviations are summed the same way, and std = sqrt(sum / n)
    as numpy's ``_var`` takes it. With one feature numpy sums the column
    pairwise instead, so that case reduces the stacked rows as before.
    """
    t, f = window_rows.shape[1], src.shape[1]
    n = train_windows.size * t
    if f == 1:
        rows = src[window_rows[train_windows]].reshape(n, 1)
        return rows.mean(axis=0), rows.std(axis=0)
    buf = np.empty((1 + _STATS_BLOCK * t, f))

    def row_sum(center):
        total = None
        for lo in range(0, train_windows.size, _STATS_BLOCK):
            chosen = window_rows[train_windows[lo : lo + _STATS_BLOCK]]
            block = buf[1 : 1 + chosen.size]
            # mode="clip" writes straight into ``out``; "raise" would buffer
            np.take(src, chosen, axis=0, out=block.reshape(-1, t, f), mode="clip")
            if center is not None:
                block -= center
                block *= block
            if total is None:
                total = np.add.reduce(block, axis=0)
            else:
                buf[0] = total
                total = np.add.reduce(buf[: 1 + block.shape[0]], axis=0)
        return total

    mean = row_sum(None) / n
    return mean, np.sqrt(row_sum(mean) / n)


def make_dataset(
    scene: Scene,
    grid: ChannelGrid,
    source_bs: str,
    target_rsu: str,
    num_trajectories: int,
    codebook: Codebook,
    seed: int,
    history: int = 50,
    horizon: int = 50,
    stride: int | None = None,
    slots_per_trajectory: int | None = None,
) -> Dataset:
    """Slide supervised windows along seeded trajectories.

    Window anchored at slot t: features from slots [t-T+1, t] of the source
    BS, labels from slots [t+1, t+K] of the target RSU, both read at the
    nearest grid point. Trajectories touching an outage point are dropped and
    counted. Feature standardization uses train-split statistics only, summed
    over the train windows' rows in row order without stacking them
    (``_train_statistics``). Sizes (``num_trajectories``, ``history``,
    ``horizon``, ``stride``, ``slots_per_trajectory``) that are not ints >= 1,
    bools included, raise ``ValueError`` before any trajectory is drawn.

    The windows are built as one batch. Trajectory ``i`` draws from its own
    generator, seeded by (``seed``, ``i``), and all are drawn together by one
    ``sample_trajectories`` call, which forms and bounds-checks each round of
    attempts as one (n, slots, 2) array. Every trajectory is snapped to the
    grid in one ``snap_positions`` call, each kept trajectory draws its split
    once, and the samples' features are rows of one standardized
    (windows, T, F) float32 array, gathered from the standardized visited rows.
    Only the snapshot rows of grid points that a kept trajectory visits are
    read: features and labels are computed for those rows, as one batch
    each, so the finite check of ``preprocess_csi`` covers those rows only.
    """
    for name, value in (("num_trajectories", num_trajectories), ("history", history),
                        ("horizon", horizon)):
        if not is_int(value, 1):
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if stride is None:
        stride = horizon
    if slots_per_trajectory is None:
        slots_per_trajectory = history + horizon
    for name, value in (("stride", stride), ("slots_per_trajectory", slots_per_trajectory)):
        if not is_int(value, 1):
            raise ValueError(f"{name} must be an int >= 1, got {value!r}")
    if slots_per_trajectory < history + horizon:
        raise ValueError(
            f"trajectories need at least T+K={history + horizon} slots, "
            f"got {slots_per_trajectory}"
        )
    if target_rsu not in ("rsu0", "rsu1"):
        raise ValueError(f"target must be an RSU, got {target_rsu!r}")
    for bs_id in (source_bs, target_rsu):
        if bs_id not in grid.bs_ids:
            raise ValueError(f"{bs_id!r} not present in the channel grid {grid.bs_ids}")

    rngs = [np.random.default_rng(np.random.SeedSequence([int(seed), _TAG_TRAJECTORY, traj_id]))
            for traj_id in range(num_trajectories)]
    positions = sample_trajectories(scene, rngs, slots_per_trajectory)[1]
    flats = snap_positions(positions.reshape(-1, 2), scene.grid).reshape(positions.shape[:2])
    outage = grid.outage(source_bs) | grid.outage(target_rsu)
    kept = np.flatnonzero(~outage[flats].any(axis=1))

    # features and labels of the visited grid points only, one batch each;
    # rows[i, s] is kept trajectory i's slot s as a row of ``visited``
    visited, rows = np.unique(flats[kept], return_inverse=True)
    rows = rows.reshape(kept.size, slots_per_trajectory)
    src_feats = preprocess_csi(grid.snapshots[source_bs][visited])
    tgt_labels = best_beams(grid.snapshots[target_rsu][visited], codebook)[0].astype(np.uint16)

    # window w of kept trajectory i reads slots starts[w] + [0, T+K); windows
    # are ordered by trajectory, then by start slot
    starts = np.arange(0, slots_per_trajectory - history - horizon + 1, stride)
    slots = starts[:, None] + np.arange(history + horizon)
    window_rows = rows[:, slots].reshape(-1, history + horizon)
    labels = tgt_labels[window_rows[:, history:]]
    anchor_labels = tgt_labels[window_rows[:, history - 1]].tolist()
    window_positions = positions[kept][:, slots].reshape(-1, history + horizon, 2)

    is_train = np.array(
        [split_of_trajectory(seed, traj_id) == "train" for traj_id in kept], dtype=bool
    )
    train_windows = np.flatnonzero(np.repeat(is_train, starts.size))
    if not train_windows.size:
        raise ValueError("no train-split samples; increase num_trajectories")
    mean, std = _train_statistics(src_feats, window_rows[:, :history], train_windows)
    std = np.maximum(std, 1e-12)
    # standardized per visited row in float64, then held as float32, the
    # precision the dataset file keeps
    src_feats -= mean
    src_feats /= std
    features = src_feats.astype(np.float32)[window_rows[:, :history]]

    # one row per window, in ``TrainingSample`` field order
    rows = zip(features, labels, np.repeat(kept, starts.size).tolist(),
               np.tile(starts, kept.size).tolist(), anchor_labels, window_positions)
    samples = [TrainingSample(*row) for row in rows]
    return Dataset(
        samples=samples,
        feature_mean=mean,
        feature_std=std,
        num_beams=codebook.num_beams,
        history=history,
        horizon=horizon,
        source_bs=source_bs,
        target_rsu=target_rsu,
        seed=int(seed),
        scene_digest=scene.digest(),
        dropped_trajectories=num_trajectories - kept.size,
        extra_metadata={
            "slots_per_trajectory": slots_per_trajectory,
            "stride": stride,
            "num_trajectories": num_trajectories,
        },
    )


# ---------------------------------------------------------------------------
# file format


# metadata keys written from and read back into the ``Dataset`` fields of the same name
_META_KEYS = (
    "scene_digest",
    "seed",
    "source_bs",
    "target_rsu",
    "dropped_trajectories",
)
# every header key: the fields' and the fixed split shares
_HEADER_KEYS = (*_META_KEYS, "split_ratios")


def _bad_header_values(header: dict) -> dict:
    """The ``_META_KEYS`` entries whose values break the header's types:
    ``seed`` is an int, ``dropped_trajectories`` an int >= 0, and the other
    three are strings."""
    ok = {
        "seed": is_int(header["seed"], -math.inf),
        "dropped_trajectories": is_int(header["dropped_trajectories"], 0),
    }
    return {key: value for key, value in header.items()
            if not ok.get(key, isinstance(value, str))}


def _record_dtype(t: int, f: int, k: int) -> np.dtype:
    """One packed record; features row-major. ``ValueError`` beyond 2 GiB."""
    return np.dtype([("features", "<f4", (t, f)), ("labels", "<u2", (k,)),
                     ("trajectory_id", "<u4"), ("start_slot", "<u4")])


def save_dataset(dataset: Dataset, path, config_hash: str = "") -> None:
    """Write ``dataset`` to ``path``, replacing it atomically.

    A header value of the wrong type (``_bad_header_values``) raises
    ``ValueError`` before the file is opened. So does ``extra_metadata`` that
    holds a header key, or a ``config_hash`` other than a non-empty
    ``config_hash`` argument: either would silently replace the real value in
    the file. A ``config_hash`` in ``extra_metadata`` (where ``load_dataset``
    puts it) is written when the argument is empty, so a loaded dataset saves
    back to the same bytes.
    """
    header = {key: getattr(dataset, key) for key in _META_KEYS}
    if bad := _bad_header_values(header):
        raise ValueError(f"ill-typed header values {bad}")
    shadowed = [key for key in _HEADER_KEYS if key in dataset.extra_metadata]
    if config_hash and dataset.extra_metadata.get("config_hash", config_hash) != config_hash:
        shadowed.append("config_hash")
    if shadowed:
        raise ValueError(f"extra_metadata keys {shadowed} would replace header values")
    t, k = dataset.history, dataset.horizon
    f, n = dataset.feature_dim, len(dataset.samples)
    meta = {
        **header,
        "split_ratios": SPLIT_RATIOS,
        "config_hash": config_hash,
        **dataset.extra_metadata,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    for s in dataset.samples:
        if s.features.shape != (t, f) or s.labels.shape != (k,):
            raise ValueError("sample shape does not match dataset header")
        if np.any(s.labels >= dataset.num_beams) or np.any(s.labels < 0):
            raise ValueError(f"sample labels outside [0, {dataset.num_beams})")
    records = np.array(
        [(s.features, s.labels, s.trajectory_id, s.start_slot) for s in dataset.samples],
        dtype=_record_dtype(t, f, k),
    )
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIIII", FORMAT_VERSION, dataset.num_beams, f, t, k, n))
        fh.write(dataset.feature_mean.astype("<f8").tobytes())
        fh.write(dataset.feature_std.astype("<f8").tobytes())
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        fh.write(records.view(np.uint8))  # no copy, unlike tobytes()


def load_dataset(path) -> Dataset:
    """Read a ``save_dataset`` file. The header comes from the open file and
    the records in one read into one record array, whose fields the samples'
    ``features`` (float32) and ``labels`` view, so loading holds little more
    than the file's records. Sizes are checked against the file's length
    before any read. A file whose ``split_ratios`` are not ``SPLIT_RATIOS``
    raises ``DatasetFormatError``."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size

        def take(n):
            if fh.tell() + n > size:
                raise DatasetFormatError("truncated dataset file")
            return fh.read(n)

        chunk = take(4)
        if chunk != MAGIC:
            raise DatasetFormatError(f"bad magic {chunk!r}")
        version, x, f, t, k, count = struct.unpack("<IIIIII", take(24))
        if version != FORMAT_VERSION:
            raise DatasetFormatError(f"unsupported dataset version {version}")
        mean = np.frombuffer(take(8 * f), dtype="<f8").copy()
        std = np.frombuffer(take(8 * f), dtype="<f8").copy()
        (meta_len,) = struct.unpack("<I", take(4))
        chunk = take(meta_len)
        try:
            meta = json.loads(chunk.decode())
            header = {key: meta[key] for key in _META_KEYS}
            ratios = meta["split_ratios"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
            raise DatasetFormatError(f"bad dataset metadata: {exc!r}") from exc
        if bad := _bad_header_values(header):
            raise DatasetFormatError(f"bad dataset metadata values {bad}")
        if ratios != list(SPLIT_RATIOS):
            raise DatasetFormatError(f"bad dataset metadata split_ratios={ratios!r}")
        try:
            dtype = _record_dtype(t, f, k)
        except ValueError as exc:
            raise DatasetFormatError(f"bad record shape T={t}, F={f}, K={k}: {exc}") from exc
        end = fh.tell() + count * dtype.itemsize
        if end > size:
            raise DatasetFormatError("truncated dataset file")
        if end < size:
            raise DatasetFormatError(f"{size - end} trailing bytes")
        records = np.empty(count, dtype=dtype)
        if fh.readinto(records.view(np.uint8)) != records.nbytes:
            raise DatasetFormatError("truncated dataset file")
    labels = records["labels"]
    if count and labels.max() >= x:
        raise DatasetFormatError(f"label {labels.max()} out of range for {x} beams")
    rows = zip(records["features"], labels, records["trajectory_id"].tolist(),
               records["start_slot"].tolist())
    samples = [TrainingSample(*row) for row in rows]
    return Dataset(
        samples=samples,
        feature_mean=mean,
        feature_std=std,
        num_beams=x,
        history=t,
        horizon=k,
        **header,
        extra_metadata={k_: v for k_, v in meta.items() if k_ not in _HEADER_KEYS},
    )
