"""CSI preprocessing, supervised dataset assembly, and the dataset file format.

A training sample pairs T slots of preprocessed source-BS features with the
K following optimal beam indices at the target RSU, collected along a vehicle
trajectory that is snapped to the channel grid slot by slot.

Features are computed and standardized in float64 and held in float32, the
precision the dataset file keeps, so a fresh dataset holds the same feature
values as its save/load copy.

In memory a dataset holds its windows as indices into a table
(``WindowTable``): the standardized features and the target labels of the
grid rows its trajectories visit, each trajectory's row per slot, and each
window as a (trajectory, start slot) pair. A batch gathers its windows'
feature rows and labels from the table, so overlapping windows share their
rows and no window's (T, F) features are stored. A dataset built from a list
of samples, or loaded from a file, holds the degenerate table with one
trajectory per window, so it holds those windows' rows alone.

Every trajectory falls in one split, train, val or test, by a seeded draw
per trajectory with the fixed shares ``SPLIT_RATIOS``. A dataset's splits are
drawn as one batch (``_split_codes``), by ``make_dataset`` or on the first
split query. The file records the shares, and a file holding other shares
does not load.

The file stores one record per window, not the table (little-endian, magic
``BMSQ``):

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
from collections.abc import Iterator
from dataclasses import InitVar, dataclass, field
from typing import ClassVar

import numpy as np
import numpy.fft  # noqa: F401  (loaded here, so a first preprocess_csi call imports nothing)

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
    "WindowTable",
    "Dataset",
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
# blocks that a file's records are written and read in
_FILE_BLOCKS = 32


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
    """One supervised window along a trajectory, as ``Dataset.samples`` views it.

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


@dataclass(eq=False)
class WindowTable:
    """A dataset's windows as indices into the rows its trajectories visit.

    Trajectory ``i`` (of n) reads row ``rows[i, s]`` of the tables at its
    slot ``s``, which is slot ``first_slots[i] + s`` of the trajectory
    ``trajectory_ids[i]``. Window ``w`` is trajectory ``windows[w, 0]`` from
    its slot ``windows[w, 1]``: its features are the ``features`` rows of its
    first T slots and its labels the ``labels`` entries of the K slots after
    them. ``make_dataset`` fills one row of both tables per visited grid
    point; a sample list or a file load gives each window its own trajectory
    of T+K slots, the first T of which index its own feature rows and the
    last K its own labels.
    """

    features: np.ndarray  # (R, F) float32, standardized
    labels: np.ndarray  # (L,) uint16, the target RSU's beams
    rows: np.ndarray  # (n, S) int32
    trajectory_ids: np.ndarray  # (n,) int64
    first_slots: np.ndarray  # (n,) int64
    windows: np.ndarray  # (W, 2) int32: trajectory, slot
    anchor_labels: np.ndarray | None = None  # (W,): the label at each window's anchor slot
    positions: np.ndarray | None = None  # (n, S, 2) float64
    # (n,) uint8 index into ``SPLIT_NAMES``: drawn once per trajectory, by
    # ``make_dataset`` or on a dataset's first split query
    splits: np.ndarray | None = None
    # window i is trajectory i, its features rows i*T + [0, T) and its labels
    # entries i*K + [0, K) (``_one_window_table``)
    one_window_each: bool = False


def _slot_rows(rows: np.ndarray, windows: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(W, hi - lo) table rows of the (trajectory, slot) pairs ``windows``,
    at slots ``lo`` to ``hi`` - 1 counted from each window's slot."""
    return rows[windows[:, :1], windows[:, 1:] + np.arange(lo, hi)]


def _one_window_table(n: int, t: int, k: int, f: int, label_dtype=np.uint16) -> WindowTable:
    """An unfilled table of n windows, each its own trajectory of T+K slots:
    window i's feature rows are i*T + [0, T) of a (n*T, F) float32 table and
    its labels i*K + [0, K) of a (n*K,) one. The caller fills the tables, the
    trajectory ids and the first slots (each window's start slot)."""
    rows = np.multiply.outer(np.arange(n, dtype=np.int32), np.repeat(np.int32([t, k]), [t, k]))
    rows += np.r_[0:t, 0:k].astype(np.int32)
    windows = np.zeros((n, 2), dtype=np.int32)
    windows[:, 0] = np.arange(n)
    return WindowTable(
        features=np.empty((n * t, f), dtype=np.float32),
        labels=np.empty(n * k, dtype=label_dtype),
        rows=rows,
        trajectory_ids=np.empty(n, dtype=np.int64),
        first_slots=np.empty(n, dtype=np.int64),
        windows=windows,
        one_window_each=True,
    )


def _table_of_samples(samples: list[TrainingSample], t: int, k: int, f: int) -> WindowTable:
    """The one-window-per-trajectory table of a sample list, its features
    held as float32 and its labels in their own dtype (uint16 at least).
    ``anchor_labels`` and ``positions`` are kept when every sample has them.
    A sample not shaped (T, F) and (K,) raises ``ValueError``."""
    for s in samples:
        if s.features.shape != (t, f) or s.labels.shape != (k,):
            raise ValueError("sample shape does not match dataset header")
    n = len(samples)
    table = _one_window_table(n, t, k, f, np.result_type(np.uint16, *(s.labels for s in samples)))
    features, labels = table.features.reshape(n, t, f), table.labels.reshape(n, k)
    if all(s.positions is not None for s in samples):
        table.positions = np.empty((n, t + k, 2))
    for i, s in enumerate(samples):
        features[i] = s.features
        labels[i] = s.labels
        if table.positions is not None:
            table.positions[i] = s.positions
    table.trajectory_ids[:] = [s.trajectory_id for s in samples]
    table.first_slots[:] = [s.start_slot for s in samples]
    if all(s.anchor_label is not None for s in samples):
        table.anchor_labels = np.array([s.anchor_label for s in samples], dtype=labels.dtype)
    return table


@dataclass
class Dataset:
    """Header values plus the windows, held as a ``WindowTable``.

    ``Dataset(samples=[...], ...)`` stores a sample list as its degenerate
    table, one trajectory per sample, so that a dataset built from some of
    another's samples holds only their rows. ``samples``, when given,
    replaces ``table``. Read back, ``samples`` and ``split_samples`` build
    ``TrainingSample`` views of the windows on demand (``_sample_views``).
    ``dataclasses.replace`` reads ``samples`` when it is not one of the
    changes, so a replaced dataset holds its windows in the degenerate form.
    Training and evaluation read batches (``batch``, ``arrays``) instead.
    """

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
    table: WindowTable | None = field(default=None, repr=False)
    samples: InitVar[list[TrainingSample] | None] = None
    split_ratios: ClassVar[tuple[float, float, float]] = SPLIT_RATIOS

    def __post_init__(self, samples):
        if samples is not None:
            self.table = _table_of_samples(samples, self.history, self.horizon, self.feature_dim)
        elif self.table is None:
            raise TypeError("a Dataset needs its samples or a table")
        elif self.table.features.shape[1:] != (self.feature_dim,):
            raise ValueError("feature table does not match dataset header")

    @property
    def feature_dim(self) -> int:
        return int(self.feature_mean.shape[0])

    def windows_in(self, split: str) -> np.ndarray:
        """Positions in the window list of the split's windows, in order. The
        split of each trajectory is drawn once, by the dataset's first call
        if ``make_dataset`` did not draw it."""
        if split not in SPLIT_NAMES:
            raise ValueError(f"unknown split {split!r}")
        table = self.table
        if table.splits is None:
            ids, inverse = np.unique(table.trajectory_ids, return_inverse=True)
            table.splits = _split_codes(self.seed, ids)[inverse]
        return np.flatnonzero(table.splits[table.windows[:, 0]] == SPLIT_NAMES.index(split))

    def _gather(self, windows: np.ndarray):
        """(features (W, T, F) float32, labels (W, K)) of the windows at
        positions ``windows``, with one ``np.take`` each."""
        table, t = self.table, self.history
        chosen = table.windows[windows]
        features = np.take(table.features, _slot_rows(table.rows, chosen, 0, t), axis=0)
        return features, np.take(table.labels, _slot_rows(table.rows, chosen, t, t + self.horizon))

    def batch(self, windows: np.ndarray):
        """(features (W, T, F) float32, labels (W, K) int64) of the windows at
        positions ``windows``, in their order."""
        features, labels = self._gather(windows)
        return features, labels.astype(np.int64)

    def arrays(self, split: str):
        """(features (n, T, F) float32, labels (n, K) int64) for a split."""
        return self.batch(self.windows_in(split))

    def label_histogram(self) -> np.ndarray:
        """(num_beams,) int64 count of every window's K labels: one
        ``np.bincount`` of the table's labels at slots [T, S), each weighted
        by the windows that read it. The float64 weights are exact below
        2**53."""
        table, t, k = self.table, self.history, self.horizon
        n, width = table.rows.shape[0], table.rows.shape[1] - t
        # reads per (trajectory, slot - T), flat: +1 at each window's first
        # label slot, -1 after its last, then one cumsum, as no window spans
        # two trajectories
        firsts = table.windows[:, 0] * np.int64(width)
        firsts += table.windows[:, 1]
        reads = np.zeros(n * width + 1)
        np.add.at(reads, firsts, 1.0)
        firsts += k
        np.add.at(reads, firsts, -1.0)
        del firsts  # before the gather, so that the two are not held at once
        np.cumsum(reads, out=reads)
        labels = np.take(table.labels, table.rows[:, t:]).reshape(-1)
        return np.bincount(labels, reads[:-1], minlength=self.num_beams).astype(np.int64)

    def _sample_views(self, windows: np.ndarray) -> list[TrainingSample]:
        """``TrainingSample`` views of the windows at positions ``windows``.
        Where each window has rows of its own (``one_window_each``), their
        features and labels view the tables, so that a write to a sample
        writes the dataset, as it did when samples viewed the file's records;
        otherwise they view one gather each."""
        table, n, t = self.table, len(windows), self.history
        if table.one_window_each:
            count, chosen = len(table.windows), windows.tolist()
            features = table.features.reshape(count, t, self.feature_dim)
            labels = table.labels.reshape(count, self.horizon)
            features, labels = [features[w] for w in chosen], [labels[w] for w in chosen]
        else:
            features, labels = self._gather(windows)
        traj, start = table.windows[windows].T
        anchors, positions = [None] * n, [None] * n
        if table.anchor_labels is not None:
            anchors = table.anchor_labels[windows].tolist()
        if table.positions is not None:
            slots = start[:, None] + np.arange(t + self.horizon)
            positions = table.positions[traj[:, None], slots]
        rows = zip(features, labels, table.trajectory_ids[traj].tolist(),
                   (table.first_slots[traj] + start).tolist(), anchors, positions)
        return [TrainingSample(*row) for row in rows]

    def split_samples(self, split: str) -> list[TrainingSample]:
        return self._sample_views(self.windows_in(split))


# ``samples`` is the constructor's argument (an InitVar, so no list is kept)
# and, read back, a view of every window. The view is set here, once
# ``@dataclass`` has taken the class attribute as the argument's default.
Dataset.samples = property(
    lambda self: self._sample_views(np.arange(len(self.table.windows))),
    doc="``TrainingSample`` views of every window, in order, built on each read.",
)


def _streams(seed: int, tag: int, ids) -> Iterator[np.random.Generator]:
    """One generator per id in ``ids``, seeded by (``seed``, ``tag``, id).
    Each is built when the iteration reaches it (about 1.7 KB each), so a
    caller that draws from one and moves on holds one at a time."""
    return (np.random.default_rng(np.random.SeedSequence([int(seed), tag, int(i)])) for i in ids)


def _split_codes(seed: int, ids) -> np.ndarray:
    """(n,) uint8 index into ``SPLIT_NAMES`` of the trajectories ``ids``: each
    draws one u from its own stream and falls in the first split whose
    cumulative ``SPLIT_RATIOS`` share exceeds u."""
    u = np.fromiter((rng.random() for rng in _streams(seed, _TAG_SPLIT, ids)), dtype=float)
    return np.searchsorted(np.cumsum(SPLIT_RATIOS)[:-1], u, side="right").astype(np.uint8)


def _train_statistics(src: np.ndarray, rows: np.ndarray, train_windows: np.ndarray, t: int):
    """Per-feature mean and std over the train windows' feature rows, where
    the (trajectory, slot) pair ``train_windows[w]`` reads the rows
    ``src[rows[i, s : s+T]]`` of the (rows, F) features: equal to the bytes
    of ``.mean(axis=0)`` and ``.std(axis=0)`` on those rows stacked as
    (rows, F), without stacking them.

    numpy adds the rows of such a reduction one after another, so the rows
    are summed in blocks of ``_STATS_BLOCK`` windows gathered into one buffer
    whose first row carries the running total: the additions run in the same
    order, while a total of per-block partial sums would round differently.
    The squared deviations are summed the same way, and std = sqrt(sum / n)
    as numpy's ``_var`` takes it. With one feature numpy sums the column
    pairwise instead, so that case reduces the stacked rows as before.
    """
    f = src.shape[1]
    n = len(train_windows) * t
    if f == 1:
        stacked = src[_slot_rows(rows, train_windows, 0, t)].reshape(n, 1)
        return stacked.mean(axis=0), stacked.std(axis=0)
    buf = np.empty((1 + _STATS_BLOCK * t, f))

    def row_sum(center):
        total = None
        for lo in range(0, len(train_windows), _STATS_BLOCK):
            chosen = _slot_rows(rows, train_windows[lo : lo + _STATS_BLOCK], 0, t)
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

    The windows are built as one batch. Trajectory ``i`` draws its path and
    its split from generators of its own (``_streams``), seeded by (``seed``,
    ``i``). The paths are drawn by one ``sample_trajectories`` call, which
    forms and bounds-checks each round of attempts as one (n, slots, 2)
    array, and snapped to the grid by one ``snap_positions`` call; the kept
    trajectories' splits are drawn by one ``_split_codes`` call. Only the
    snapshot rows of grid points that a kept trajectory visits are read:
    features and labels are computed for those rows, as one batch each, so
    the finite check of ``preprocess_csi`` covers those rows only. The
    dataset holds them as its ``WindowTable``: the standardized features
    (float32) and the labels of the visited rows, each kept trajectory's row
    per slot and positions, and each window as a (trajectory, start slot)
    pair. No window's features are copied out; a batch gathers them from the
    table.
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

    rngs = list(_streams(seed, _TAG_TRAJECTORY, range(num_trajectories)))
    positions = sample_trajectories(scene, rngs, slots_per_trajectory)[1]
    flats = snap_positions(positions.reshape(-1, 2), scene.grid).reshape(positions.shape[:2])
    outage = grid.outage(source_bs) | grid.outage(target_rsu)
    kept = np.flatnonzero(~outage[flats].any(axis=1))

    # features and labels of the visited grid points only, one batch each;
    # rows[i, s] is kept trajectory i's slot s as a row of ``visited``
    visited, rows = np.unique(flats[kept], return_inverse=True)
    rows = rows.reshape(kept.size, slots_per_trajectory).astype(np.int32)
    src_feats = preprocess_csi(grid.snapshots[source_bs][visited])
    tgt_labels = best_beams(grid.snapshots[target_rsu][visited], codebook)[0].astype(np.uint16)

    # window w is kept trajectory windows[w, 0] from slot windows[w, 1];
    # windows are ordered by trajectory, then by start slot
    starts = np.arange(0, slots_per_trajectory - history - horizon + 1, stride)
    windows = np.empty((kept.size * starts.size, 2), dtype=np.int32)
    windows[:, 0] = np.repeat(np.arange(kept.size), starts.size)
    windows[:, 1] = np.tile(starts, kept.size)

    splits = _split_codes(seed, kept)
    train_windows = windows[splits[windows[:, 0]] == 0]
    if not train_windows.size:
        raise ValueError("no train-split samples; increase num_trajectories")
    mean, std = _train_statistics(src_feats, rows, train_windows, history)
    std = np.maximum(std, 1e-12)
    # standardized per visited row in float64, then held as float32, the
    # precision the dataset file keeps
    src_feats -= mean
    src_feats /= std
    table = WindowTable(
        features=src_feats.astype(np.float32),
        labels=tgt_labels,
        rows=rows,
        trajectory_ids=kept,
        first_slots=np.zeros(kept.size, dtype=np.int64),
        windows=windows,
        anchor_labels=tgt_labels[rows[windows[:, 0], windows[:, 1] + history - 1]],
        positions=positions[kept],
        splits=splits,
    )
    return Dataset(
        table=table,
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


def _block_size(count: int) -> int:
    """Records per block when a file's records are written or read in
    ``_FILE_BLOCKS`` blocks."""
    return max(1, -(-count // _FILE_BLOCKS))


def save_dataset(dataset: Dataset, path, config_hash: str = "") -> None:
    """Write ``dataset`` to ``path``, replacing it atomically.

    A header value of the wrong type (``_bad_header_values``) or a label
    outside [0, ``num_beams``) raises ``ValueError`` before the file is
    opened. So does ``extra_metadata`` that holds a header key, or a
    ``config_hash`` other than a non-empty ``config_hash`` argument: either
    would silently replace the real value in the file. A ``config_hash`` in
    ``extra_metadata`` (where ``load_dataset`` puts it) is written when the
    argument is empty, so a loaded dataset saves back to the same bytes.

    The records are gathered from the table and written in blocks, so that
    a save holds about 1/``_FILE_BLOCKS`` of them at once.
    """
    header = {key: getattr(dataset, key) for key in _META_KEYS}
    if bad := _bad_header_values(header):
        raise ValueError(f"ill-typed header values {bad}")
    shadowed = [key for key in _HEADER_KEYS if key in dataset.extra_metadata]
    if config_hash and dataset.extra_metadata.get("config_hash", config_hash) != config_hash:
        shadowed.append("config_hash")
    if shadowed:
        raise ValueError(f"extra_metadata keys {shadowed} would replace header values")
    table = dataset.table
    if np.any(table.labels >= dataset.num_beams) or np.any(table.labels < 0):
        raise ValueError(f"sample labels outside [0, {dataset.num_beams})")
    t, k = dataset.history, dataset.horizon
    f, n = dataset.feature_dim, len(table.windows)
    meta = {
        **header,
        "split_ratios": SPLIT_RATIOS,
        "config_hash": config_hash,
        **dataset.extra_metadata,
    }
    meta_bytes = json.dumps(meta, sort_keys=True).encode()
    step = _block_size(n)
    block = np.empty(min(n, step), dtype=_record_dtype(t, f, k))
    with atomic_write(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<IIIIII", FORMAT_VERSION, dataset.num_beams, f, t, k, n))
        fh.write(dataset.feature_mean.astype("<f8").tobytes())
        fh.write(dataset.feature_std.astype("<f8").tobytes())
        fh.write(struct.pack("<I", len(meta_bytes)))
        fh.write(meta_bytes)
        for lo in range(0, n, step):
            windows = np.arange(lo, min(lo + step, n))
            records = block[: windows.size]
            records["features"], records["labels"] = dataset._gather(windows)
            traj, start = table.windows[windows].T
            records["trajectory_id"] = table.trajectory_ids[traj]
            records["start_slot"] = table.first_slots[traj] + start
            fh.write(records.view(np.uint8))  # no copy, unlike tobytes()


def load_dataset(path) -> Dataset:
    """Read a ``save_dataset`` file. The header comes from the open file and
    the records in ``_FILE_BLOCKS`` blocks through one buffer, copied into
    one feature table (count*T, F) float32 and one label table (count*K,):
    the table of one trajectory per record (see ``WindowTable``), so loading
    holds little more than the file's records. Sizes are checked against the
    file's length before any read. A file whose ``split_ratios`` are not
    ``SPLIT_RATIOS`` raises ``DatasetFormatError``."""
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
        table = _one_window_table(count, t, k, f)
        features = table.features.reshape(count, t, f)
        labels = table.labels.reshape(count, k)
        step = _block_size(count)
        block = np.empty(min(count, step), dtype=dtype)
        for lo in range(0, count, step):
            records = block[: min(step, count - lo)]
            if fh.readinto(records.view(np.uint8)) != records.nbytes:
                raise DatasetFormatError("truncated dataset file")
            hi = lo + records.size
            features[lo:hi] = records["features"]
            labels[lo:hi] = records["labels"]
            table.trajectory_ids[lo:hi] = records["trajectory_id"]
            table.first_slots[lo:hi] = records["start_slot"]
    if table.labels.size and table.labels.max() >= x:
        raise DatasetFormatError(f"label {table.labels.max()} out of range for {x} beams")
    return Dataset(
        table=table,
        feature_mean=mean,
        feature_std=std,
        num_beams=x,
        history=t,
        horizon=k,
        **header,
        extra_metadata={k_: v for k_, v in meta.items() if k_ not in _HEADER_KEYS},
    )
