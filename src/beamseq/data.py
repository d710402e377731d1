"""CSI preprocessing, supervised dataset assembly, and the dataset file format.

A training sample pairs T slots of preprocessed source-BS features with the
K following optimal beam indices at the target RSU, collected along a vehicle
trajectory that is snapped to the channel grid slot by slot.

Dataset file layout (magic ``BMSQ``, little-endian):

    magic | version u32 | X u32 | F u32 | T u32 | K u32 | count u32
    feature mean f64*F | feature std f64*F
    metadata length u32 | metadata UTF-8 JSON
    records: one packed structured array of ``_record_dtype(T, F, K)``
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._files import atomic_write
from .mobility import sample_trajectory
from .phy import ChannelSnapshot, Codebook, best_beams
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


class DatasetFormatError(RuntimeError):
    """Malformed or truncated dataset file."""


def preprocess_csi(h) -> np.ndarray:
    """Angular-domain log-amplitude features ln(|DFT_N(h)| + eps) of channels
    h (..., N), transformed along the last axis."""
    coeffs = h.coefficients if isinstance(h, ChannelSnapshot) else np.asarray(h)
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("channel coefficients must be finite")
    return np.log(np.abs(np.fft.fft(coeffs, axis=-1)) + LOG_EPSILON)


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

    features: np.ndarray  # (T, F) float64, standardized (f32 on disk)
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
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    dropped_trajectories: int = 0
    extra_metadata: dict = field(default_factory=dict)

    @property
    def feature_dim(self) -> int:
        return int(self.feature_mean.shape[0])

    def split_of(self, trajectory_id: int) -> str:
        return split_of_trajectory(self.seed, trajectory_id, self.split_ratios)

    def indices(self, split: str) -> list[int]:
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        return [
            i for i, s in enumerate(self.samples) if self.split_of(s.trajectory_id) == split
        ]

    def split_samples(self, split: str) -> list[TrainingSample]:
        return [self.samples[i] for i in self.indices(split)]

    def arrays(self, split: str):
        """Stacked (features (n, T, F) float64, labels (n, K) int64) for a split."""
        chosen = self.split_samples(split)
        if not chosen:
            return (
                np.empty((0, self.history, self.feature_dim)),
                np.empty((0, self.horizon), dtype=np.int64),
            )
        feats = np.stack([s.features for s in chosen]).astype(np.float64)
        labels = np.stack([s.labels for s in chosen]).astype(np.int64)
        return feats, labels

    def label_histogram(self) -> np.ndarray:
        counts = np.zeros(self.num_beams, dtype=np.int64)
        for s in self.samples:
            counts += np.bincount(s.labels, minlength=self.num_beams)
        return counts


def split_of_trajectory(
    seed: int, trajectory_id: int, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> str:
    """Deterministic per-trajectory split assignment via a seeded hash draw."""
    u = np.random.default_rng(
        np.random.SeedSequence([int(seed), _TAG_SPLIT, int(trajectory_id)])
    ).random()
    if u < ratios[0]:
        return "train"
    if u < ratios[0] + ratios[1]:
        return "val"
    return "test"


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
    speed_range: tuple[float, float] = (10.0, 15.0),
    accel_range: tuple[float, float] = (-3.0, 3.0),
    slot_seconds: float = 1e-3,
    split_ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
) -> Dataset:
    """Slide supervised windows along seeded trajectories.

    Window anchored at slot t: features from slots [t-T+1, t] of the source
    BS, labels from slots [t+1, t+K] of the target RSU, both read at the
    nearest grid point. Trajectories touching an outage point are dropped and
    counted. Feature standardization uses train-split statistics only.

    Only the snapshot rows of grid points that a kept trajectory visits are
    read: features and labels are computed for those rows, as one batch
    each, so the finite check of ``preprocess_csi`` covers those rows only.
    """
    if stride is None:
        stride = horizon
    if slots_per_trajectory is None:
        slots_per_trajectory = history + horizon
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

    src_outage = grid.outage(source_bs)
    tgt_outage = grid.outage(target_rsu)

    kept = []  # (traj_id, positions) of the trajectories that avoid outage
    flats = []  # their snapped flat grid indices, one row each
    dropped = 0
    for traj_id in range(num_trajectories):
        rng = np.random.default_rng(
            np.random.SeedSequence([int(seed), _TAG_TRAJECTORY, traj_id])
        )
        traj = sample_trajectory(
            scene,
            rng,
            num_slots=slots_per_trajectory,
            speed_range=speed_range,
            accel_range=accel_range,
            dt=slot_seconds,
        )
        positions = traj.positions()
        flat = snap_positions(positions, scene.grid)
        if np.any(src_outage[flat]) or np.any(tgt_outage[flat]):
            dropped += 1
            continue
        kept.append((traj_id, positions))
        flats.append(flat)

    # features and labels of the visited grid points only, one batch each;
    # rows[i, s] is trajectory i's slot s as a row of ``visited``
    flats = np.array(flats, dtype=np.int64).reshape(-1, slots_per_trajectory)
    visited, rows = np.unique(flats, return_inverse=True)
    rows = rows.reshape(flats.shape)
    src_feats = preprocess_csi(grid.snapshots[source_bs][visited])
    tgt_labels = best_beams(grid.snapshots[target_rsu][visited], codebook)[0].astype(np.uint16)

    raw_samples = []  # (traj_id, start_slot, raw feats f64, labels, anchor_label, positions)
    for (traj_id, positions), row in zip(kept, rows):
        for anchor in range(history - 1, slots_per_trajectory - horizon, stride):
            lo = anchor - history + 1
            raw_samples.append(
                (
                    traj_id,
                    lo,
                    src_feats[row[lo : anchor + 1]],
                    tgt_labels[row[anchor + 1 : anchor + horizon + 1]],
                    int(tgt_labels[row[anchor]]),
                    positions[lo : anchor + horizon + 1].copy(),
                )
            )

    train_rows = [
        r[2]
        for r in raw_samples
        if split_of_trajectory(seed, r[0], split_ratios) == "train"
    ]
    if not train_rows:
        raise ValueError("no train-split samples; increase num_trajectories")
    stacked = np.concatenate(train_rows, axis=0)
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-12)

    samples = [
        TrainingSample(
            features=(feats - mean) / std,
            labels=labels,
            trajectory_id=traj_id,
            start_slot=start,
            anchor_label=anchor_label,
            positions=positions,
        )
        for traj_id, start, feats, labels, anchor_label, positions in raw_samples
    ]
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
        split_ratios=split_ratios,
        dropped_trajectories=dropped,
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
    "split_ratios",
    "dropped_trajectories",
)


def _record_dtype(t: int, f: int, k: int) -> np.dtype:
    """One packed record; features row-major. ``ValueError`` beyond 2 GiB."""
    return np.dtype([("features", "<f4", (t, f)), ("labels", "<u2", (k,)),
                     ("trajectory_id", "<u4"), ("start_slot", "<u4")])


def save_dataset(dataset: Dataset, path, config_hash: str = "") -> None:
    """Write ``dataset`` to ``path``, replacing it atomically.

    ``extra_metadata`` may not hold a header key, nor a ``config_hash`` other
    than a non-empty ``config_hash`` argument: either would silently replace
    the real value in the file, so it raises ``ValueError`` before the file is
    opened. A ``config_hash`` in ``extra_metadata`` (where ``load_dataset``
    puts it) is written when the argument is empty, so a loaded dataset saves
    back to the same bytes.
    """
    shadowed = [key for key in _META_KEYS if key in dataset.extra_metadata]
    if config_hash and dataset.extra_metadata.get("config_hash", config_hash) != config_hash:
        shadowed.append("config_hash")
    if shadowed:
        raise ValueError(f"extra_metadata keys {shadowed} would replace header values")
    t, k = dataset.history, dataset.horizon
    f, n = dataset.feature_dim, len(dataset.samples)
    meta = {
        **{key: getattr(dataset, key) for key in _META_KEYS},
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
    buf = Path(path).read_bytes()

    def take(off, n):
        if off + n > len(buf):
            raise DatasetFormatError("truncated dataset file")
        return buf[off : off + n], off + n

    chunk, off = take(0, 4)
    if chunk != MAGIC:
        raise DatasetFormatError(f"bad magic {chunk!r}")
    chunk, off = take(off, 24)
    version, x, f, t, k, count = struct.unpack("<IIIIII", chunk)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported dataset version {version}")
    chunk, off = take(off, 8 * f)
    mean = np.frombuffer(chunk, dtype="<f8").copy()
    chunk, off = take(off, 8 * f)
    std = np.frombuffer(chunk, dtype="<f8").copy()
    chunk, off = take(off, 4)
    (meta_len,) = struct.unpack("<I", chunk)
    chunk, off = take(off, meta_len)
    try:
        meta = json.loads(chunk.decode())
        header = {key: meta[key] for key in _META_KEYS}
        header["split_ratios"] = tuple(header["split_ratios"])
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as exc:
        raise DatasetFormatError(f"bad dataset metadata: {exc!r}") from exc
    try:
        dtype = _record_dtype(t, f, k)
    except ValueError as exc:
        raise DatasetFormatError(f"bad record shape T={t}, F={f}, K={k}: {exc}") from exc
    end = off + count * dtype.itemsize
    if end > len(buf):
        raise DatasetFormatError("truncated dataset file")
    if end < len(buf):
        raise DatasetFormatError(f"{len(buf) - end} trailing bytes")
    records = np.frombuffer(buf, dtype=dtype, count=count, offset=off)
    labels = records["labels"].copy()
    if count and labels.max() >= x:
        raise DatasetFormatError(f"label {labels.max()} out of range for {x} beams")
    samples = [
        TrainingSample(features=feats, labels=lab, trajectory_id=traj_id, start_slot=start)
        for feats, lab, traj_id, start in zip(
            records["features"].astype(np.float64),
            labels,
            records["trajectory_id"].tolist(),
            records["start_slot"].tolist(),
        )
    ]
    return Dataset(
        samples=samples,
        feature_mean=mean,
        feature_std=std,
        num_beams=x,
        history=t,
        horizon=k,
        **header,
        extra_metadata={k_: v for k_, v in meta.items() if k_ not in header},
    )
