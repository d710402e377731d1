"""CSI preprocessing, dataset assembly, splits, and the dataset file format."""

import dataclasses
import hashlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from beamseq import data, seq2seq
from beamseq.data import (
    _TAG_TRAJECTORY,
    LOG_EPSILON,
    Dataset,
    DatasetFormatError,
    TrainingSample,
    grid_beam_labels,
    grid_features,
    load_dataset,
    make_dataset,
    preprocess_csi,
    save_dataset,
)
from beamseq.mobility import MAX_RETRIES
from beamseq.phy import ArrayGeometry, best_beams, build_dft_codebook, optimal_beam, steering_vector
from beamseq.scene import SceneParams, build_channel_grid, generate_scene, snap_positions
from beamseq.seq2seq import Seq2SeqHyper, TrainConfig, init_model, train
from oracles import looped_trajectory, materialized_windows, split_of


@pytest.fixture(scope="module")
def small_world():
    scene = generate_scene(SceneParams(grid_spacing=0.5), seed=3)
    grid = build_channel_grid(scene, bs_ids=("rsu0", "rsu1"))
    codebook = build_dft_codebook(256, 32)
    return scene, grid, codebook


@pytest.fixture(scope="module")
def strided_dataset(small_world):
    # several overlapping windows per trajectory
    scene, grid, codebook = small_world
    return make_dataset(
        scene, grid, "rsu0", "rsu1", 25, codebook, seed=4,
        history=20, horizon=10, stride=7, slots_per_trajectory=90,
    )


@pytest.fixture(scope="module")
def small_dataset(small_world):
    scene, grid, codebook = small_world
    return make_dataset(
        scene,
        grid,
        source_bs="rsu0",
        target_rsu="rsu1",
        num_trajectories=40,
        codebook=codebook,
        seed=11,
        slots_per_trajectory=100,
    )


class TestPreprocess:
    def test_steering_vector_concentrates_in_one_bin(self):
        geom = ArrayGeometry(num_antennas=32)
        # sin(theta) = -2*k/N puts all energy in DFT bin k
        angle = math.asin(-2 * 5 / 32)
        feats = preprocess_csi(steering_vector(geom, angle))
        assert np.argmax(feats) == 5
        others = np.delete(feats, 5)
        assert feats[5] > others.max() + 5.0  # dominant by orders of magnitude

    def test_zero_vector_gives_log_epsilon(self):
        feats = preprocess_csi(np.zeros(16, dtype=complex))
        np.testing.assert_allclose(feats, np.log(LOG_EPSILON), atol=1e-12, rtol=0)

    def test_matches_naive_dft_oracle(self):
        rng = np.random.default_rng(0)
        h = rng.normal(size=16) + 1j * rng.normal(size=16)
        # direct O(N^2) summation DFT
        n = 16
        naive = np.array(
            [sum(h[i] * np.exp(-2j * np.pi * i * k / n) for i in range(n)) for k in range(n)]
        )
        expected = np.log(np.abs(naive) + LOG_EPSILON)
        np.testing.assert_allclose(preprocess_csi(h), expected, rtol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            preprocess_csi(np.array([1.0, np.inf], dtype=complex))
        batch = np.ones((3, 4), dtype=complex)
        batch[1, 2] = complex(0.0, np.nan)
        with pytest.raises(ValueError):
            preprocess_csi(batch)

    def test_batch_matches_per_row(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(7, 16)) + 1j * rng.normal(size=(7, 16))
        feats = preprocess_csi(h)
        assert feats.shape == (7, 16)
        for row, h_row in zip(feats, h):
            np.testing.assert_array_equal(row, preprocess_csi(h_row))


class TestGridDerived:
    def test_grid_features_match_preprocess(self, small_world):
        _, grid, _ = small_world
        feats = grid_features(grid, "rsu0")
        for idx in (0, 100, 771):
            np.testing.assert_allclose(
                feats[idx], preprocess_csi(grid.snapshots["rsu0"][idx]), rtol=1e-12
            )

    def test_grid_labels_match_optimal_beam(self, small_world):
        _, grid, codebook = small_world
        labels, rss = grid_beam_labels(grid, "rsu1", codebook)
        rng = np.random.default_rng(1)
        for idx in rng.choice(len(labels), size=20, replace=False):
            h = grid.snapshots["rsu1"][idx]
            assert labels[idx] == optimal_beam(h, codebook)
            f = codebook.matrix[:, labels[idx]]
            assert rss[idx] == pytest.approx(abs(np.sum(np.conj(h) * f)) ** 2, rel=1e-12)


def reference_make_dataset(scene, grid, source_bs, target_rsu, num_trajectories, codebook,
                           seed, history, horizon, stride, slots_per_trajectory):
    """``make_dataset`` one item at a time: a trajectory drawn, snapped and
    checked for outage at a time, a tuple per window, a split draw per
    window. Default speed and acceleration."""
    src_outage, tgt_outage = grid.outage(source_bs), grid.outage(target_rsu)
    kept, flats, dropped = [], [], 0
    for traj_id in range(num_trajectories):
        rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_TRAJECTORY, traj_id]))
        positions, _ = looped_trajectory(scene.grid, rng, slots_per_trajectory, MAX_RETRIES)
        flat = snap_positions(positions, scene.grid)
        if np.any(src_outage[flat]) or np.any(tgt_outage[flat]):
            dropped += 1
            continue
        kept.append((traj_id, positions))
        flats.append(flat)
    visited, rows = np.unique(np.array(flats), return_inverse=True)
    rows = rows.reshape(len(flats), slots_per_trajectory)
    src_feats = preprocess_csi(grid.snapshots[source_bs][visited])
    tgt_labels = best_beams(grid.snapshots[target_rsu][visited], codebook)[0].astype(np.uint16)
    raw = []  # (traj_id, start_slot, raw features, labels, anchor_label, positions)
    for (traj_id, positions), row in zip(kept, rows):
        for anchor in range(history - 1, slots_per_trajectory - horizon, stride):
            lo = anchor - history + 1
            raw.append((traj_id, lo, src_feats[row[lo : anchor + 1]],
                        tgt_labels[row[anchor + 1 : anchor + horizon + 1]],
                        int(tgt_labels[row[anchor]]), positions[lo : anchor + horizon + 1].copy()))
    stacked = np.concatenate(
        [r[2] for r in raw if split_of(seed, r[0]) == "train"], axis=0
    )
    mean = stacked.mean(axis=0)
    std = np.maximum(stacked.std(axis=0), 1e-12)
    return Dataset(
        samples=[
            TrainingSample((feats - mean) / std, labels, traj_id, start, anchor, positions)
            for traj_id, start, feats, labels, anchor, positions in raw
        ],
        feature_mean=mean, feature_std=std, num_beams=codebook.num_beams,
        history=history, horizon=horizon, source_bs=source_bs, target_rsu=target_rsu,
        seed=seed, scene_digest=scene.digest(), dropped_trajectories=dropped,
        extra_metadata={"slots_per_trajectory": slots_per_trajectory, "stride": stride,
                        "num_trajectories": num_trajectories},
    )


class TestMakeDataset:
    def test_sample_shapes(self, small_dataset):
        assert len(small_dataset.samples) > 0
        for s in small_dataset.samples:
            assert s.features.shape == (50, 32)
            assert np.all(np.isfinite(s.features))
            assert s.labels.shape == (50,)
            assert s.labels.dtype == np.uint16
            assert s.positions.shape == (100, 2)
            assert s.anchor_label is not None

    def test_all_labels_valid(self, small_dataset):
        for s in small_dataset.samples:
            assert s.labels.max() < 256

    def test_train_split_standardization(self, small_world, small_dataset):
        # the float64 standardized values, and features that are their float32 rounding
        scene, grid, _ = small_world
        ds = small_dataset
        raw = grid_features(grid, "rsu0")
        exact = np.stack([
            (raw[snap_positions(s.positions[: ds.history], scene.grid)] - ds.feature_mean)
            / ds.feature_std
            for s in ds.split_samples("train")
        ])
        flat = exact.reshape(-1, exact.shape[-1])
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9, rtol=0)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-6, rtol=0)
        feats, _ = ds.arrays("train")
        assert feats.dtype == np.float32
        assert feats.tobytes() == exact.astype(np.float32).tobytes()

    def test_no_trajectory_spans_two_splits(self, small_dataset):
        ds = small_dataset
        ids = ds.table.trajectory_ids[ds.table.windows[:, 0]]
        seen: dict[int, str] = {}
        for split in data.SPLIT_NAMES:
            for i in ids[ds.windows_in(split)].tolist():
                assert seen.setdefault(i, split) == split == split_of(ds.seed, i)
        assert len(seen) > 1

    def test_split_hash_deterministic_and_roughly_proportional(self):
        splits = [data.SPLIT_NAMES[c] for c in data._split_codes(99, range(2000))]
        assert splits == [split_of(99, i) for i in range(2000)]
        frac_train = splits.count("train") / 2000
        assert 0.75 < frac_train < 0.85

    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_batched_split_draw_equals_the_per_id_draw(self, seed):
        ids = np.arange(20_000)
        codes = data._split_codes(seed, ids)
        assert codes.dtype == np.uint8 and codes.shape == ids.shape
        want = [data.SPLIT_NAMES.index(split_of(seed, i)) for i in ids.tolist()]
        assert codes.tolist() == want

    def test_deterministic_bytes(self, tmp_path, small_world):
        scene, grid, codebook = small_world

        def digest():
            ds = make_dataset(
                scene, grid, "rsu0", "rsu1", 15, codebook, seed=7, slots_per_trajectory=100
            )
            out = tmp_path / "d.bmsq"
            save_dataset(ds, out)
            return hashlib.sha256(out.read_bytes()).hexdigest()

        assert digest() == digest()

    def test_labels_follow_geometric_quantization_on_straight_pass(self, small_world):
        # LoS-only world: the optimal beam is the quantized direct-link AoD
        scene = dataclasses.replace(
            generate_scene(SceneParams(grid_spacing=0.5), seed=3), walls=(), scatterers=()
        )
        grid = build_channel_grid(scene, bs_ids=("rsu1",))
        codebook = build_dft_codebook(256, 32)
        labels, _ = grid_beam_labels(grid, "rsu1", codebook)
        bs = scene.station("rsu1")
        xs = np.linspace(2.0, 28.0, 120)
        pass_positions = np.stack([xs, np.full_like(xs, 3.0)], axis=1)
        flat = snap_positions(pass_positions, scene.grid)
        observed = labels[flat].astype(int)
        # oracle: AoD sweep by geometry, quantized against the codebook
        expected = []
        for pos in scene.grid.points()[flat]:
            az = math.atan2(pos[1] - bs.position[1], pos[0] - bs.position[0])
            aod = math.asin(math.sin(az - bs.boresight))
            a = steering_vector(bs.geometry, aod)
            expected.append(int(np.argmax(np.abs(a.conj() @ codebook.matrix) ** 2)))
        assert observed.tolist() == expected
        # piecewise-constant monotone sweep (no wrap on this side of broadside)
        deltas = np.diff(observed)
        assert np.all(deltas >= 0) or np.all(deltas <= 0)

    def test_source_mbs_gives_128_features(self):
        scene = generate_scene(SceneParams(grid_spacing=0.5), seed=3)
        grid = build_channel_grid(scene, bs_ids=("mbs", "rsu1"))
        codebook = build_dft_codebook(256, 32)
        ds = make_dataset(
            scene, grid, "mbs", "rsu1", 12, codebook, seed=5, slots_per_trajectory=100
        )
        assert ds.samples[0].features.shape == (50, 128)

    def test_reads_only_visited_snapshot_rows(self, tmp_path, small_world, small_dataset):
        # NaN everywhere a kept trajectory does not go: the bytes must not move
        scene, grid, codebook = small_world
        visited = np.unique(
            np.concatenate([snap_positions(s.positions, scene.grid) for s in small_dataset.samples])
        )
        unvisited = np.setdiff1d(np.arange(scene.grid.num_points), visited)
        assert unvisited.size
        poisoned = {}
        for bs_id, table in grid.snapshots.items():
            poisoned[bs_id] = table.copy()
            poisoned[bs_id][unvisited] = complex(np.nan, np.nan)
        args = ("rsu0", "rsu1", 40, codebook)
        kwargs = dict(seed=11, slots_per_trajectory=100)
        save_dataset(make_dataset(scene, grid, *args, **kwargs), tmp_path / "clean.bmsq")
        dirty = dataclasses.replace(grid, snapshots=poisoned)
        save_dataset(make_dataset(scene, dirty, *args, **kwargs), tmp_path / "dirty.bmsq")
        assert (tmp_path / "clean.bmsq").read_bytes() == (tmp_path / "dirty.bmsq").read_bytes()
        # a non-finite visited row is still rejected
        poisoned["rsu0"][visited[0]] = complex(np.inf, 0.0)
        with pytest.raises(ValueError, match="finite"):
            make_dataset(scene, dirty, *args, **kwargs)

    def test_windows_equal_whole_grid_features_and_labels(self, small_world, strided_dataset):
        # overlapping windows and trailing slots no window reads
        scene, grid, codebook = small_world
        ds = strided_dataset
        feats = grid_features(grid, "rsu0")
        labels, _ = grid_beam_labels(grid, "rsu1", codebook)
        assert len({s.trajectory_id for s in ds.samples}) > 1
        assert len(ds.samples) > len({s.trajectory_id for s in ds.samples})
        for s in ds.samples:
            flat = snap_positions(s.positions, scene.grid)
            want = ((feats[flat[:20]] - ds.feature_mean) / ds.feature_std).astype(np.float32)
            assert s.features.dtype == np.float32
            assert s.features.tobytes() == want.tobytes()
            np.testing.assert_array_equal(s.labels, labels[flat[20:]])
            assert s.labels.dtype == np.uint16
            assert s.anchor_label == labels[flat[19]]

    def test_split_indices_match_per_sample_draws(self, strided_dataset):
        ds = strided_dataset
        for split in ("train", "val", "test"):
            want = [
                i for i, s in enumerate(ds.samples)
                if split_of(ds.seed, s.trajectory_id) == split
            ]
            assert ds.windows_in(split).tolist() == want
            assert [s.trajectory_id for s in ds.split_samples(split)] == [
                ds.samples[i].trajectory_id for i in want
            ]

    def test_split_drawn_once_per_trajectory(self, small_world, strided_dataset, monkeypatch):
        # by make_dataset, and by the first split query of a sample list's dataset
        scene, grid, codebook = small_world
        samples = strided_dataset.samples
        ids = sorted({s.trajectory_id for s in samples})
        calls = []
        split_codes = data._split_codes

        def spy(seed, trajectory_ids):
            calls.append([int(i) for i in trajectory_ids])
            return split_codes(seed, trajectory_ids)

        monkeypatch.setattr(data, "_split_codes", spy)
        fresh = make_dataset(
            scene, grid, "rsu0", "rsu1", 25, codebook, seed=4,
            history=20, horizon=10, stride=7, slots_per_trajectory=90,
        )
        rebuilt = dataclasses.replace(strided_dataset, samples=samples)
        assert calls == [ids]
        fresh.windows_in("train")
        assert calls == [ids]
        rebuilt.windows_in("train")
        assert calls == [ids, ids]
        for ds in (fresh, rebuilt, fresh, rebuilt):
            for split in data.SPLIT_NAMES:
                ds.windows_in(split)
        assert calls == [ids, ids]
        assert fresh.windows_in("val").tolist() == rebuilt.windows_in("val").tolist()

    def test_every_trajectory_dropped_rejected(self, small_world):
        scene, grid, codebook = small_world
        dark = dict(grid.path_valid, rsu1=np.zeros_like(grid.path_valid["rsu1"]))
        with pytest.raises(ValueError, match="no train-split samples"):
            make_dataset(
                scene, dataclasses.replace(grid, path_valid=dark), "rsu0", "rsu1", 6, codebook,
                seed=1, slots_per_trajectory=100,
            )

    def test_statistics_hold_no_copy_of_the_train_rows(self, small_world, traced_memory):
        # overlapping windows, so the features outweigh the visited grid rows
        scene, grid, codebook = small_world
        ds, _, peak = traced_memory(lambda: make_dataset(
            scene, grid, "rsu0", "rsu1", 40, codebook, seed=6,
            history=12, horizon=9, stride=4, slots_per_trajectory=45,
        ))
        features = len(ds.table.windows) * 12 * ds.feature_dim * 8
        assert peak < 1.0 * features

    @pytest.mark.parametrize("reload", [False, True])
    def test_arrays_copy_features_once(self, tmp_path, small_dataset, traced_memory, reload):
        ds = small_dataset
        if reload:
            save_dataset(ds, tmp_path / "ds.bmsq")
            ds = load_dataset(tmp_path / "ds.bmsq")
        (feats, labels), _, peak = traced_memory(lambda: ds.arrays("train"))
        assert feats.dtype == np.float32 and labels.dtype == np.int64
        assert peak < feats.nbytes / 2

    @pytest.mark.parametrize("reload", [False, True])
    def test_arrays_are_float32_in_every_split(self, tmp_path, small_world, reload):
        # the test split's samples are left out, so the test split is empty
        scene, grid, codebook = small_world
        ds = make_dataset(scene, grid, "rsu0", "rsu1", 20, codebook, seed=5,
                          slots_per_trajectory=100)
        assert ds.windows_in("test").size
        ds = dataclasses.replace(ds, samples=[
            s for s in ds.samples if split_of(ds.seed, s.trajectory_id) != "test"
        ])
        if reload:
            save_dataset(ds, tmp_path / "ds.bmsq")
            ds = load_dataset(tmp_path / "ds.bmsq")
        sizes = {}
        for split in data.SPLIT_NAMES:
            feats, labels = ds.arrays(split)
            assert feats.dtype == np.float32 and labels.dtype == np.int64
            assert feats.shape == (len(labels), ds.history, ds.feature_dim)
            assert labels.shape == (len(labels), ds.horizon)
            sizes[split] = len(labels)
        assert sizes["train"] > 0 and sizes["val"] > 0 and sizes["test"] == 0

    def test_builds_no_float64_window_stack(self, small_world, traced_memory):
        # long overlapping windows, so that a float64 (windows, T, F) stack
        # outweighs everything else the dataset holds: its table, row
        # indices, positions and window list
        scene, grid, codebook = small_world
        ds, retained, above = traced_memory(lambda: make_dataset(
            scene, grid, "rsu0", "rsu1", 20, codebook, seed=6,
            history=40, horizon=5, stride=1, slots_per_trajectory=100,
        ))
        stack = len(ds.table.windows) * ds.history * ds.feature_dim * 8
        assert retained + above < stack

    def test_too_few_slots_rejected(self, small_world):
        scene, grid, codebook = small_world
        with pytest.raises(ValueError):
            make_dataset(
                scene, grid, "rsu0", "rsu1", 5, codebook, seed=1, slots_per_trajectory=80
            )

    @pytest.mark.parametrize(
        "name, value", [("history", 0), ("history", -2), ("horizon", 0), ("stride", 0),
                        ("stride", -1)]
    )
    def test_window_arguments_below_one_rejected(self, small_world, name, value):
        scene, grid, codebook = small_world
        with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
            make_dataset(
                scene, grid, "rsu0", "rsu1", 5, codebook, seed=1, slots_per_trajectory=100,
                **{name: value},
            )

    @pytest.mark.parametrize(
        "name, value",
        [("history", True), ("history", 5.0), ("horizon", 2.0), ("stride", 2.5),
         ("stride", False), ("num_trajectories", 3.0), ("num_trajectories", 0),
         ("num_trajectories", True), ("slots_per_trajectory", 100.0),
         ("slots_per_trajectory", np.int64(100))],
    )
    def test_window_sizes_not_ints_rejected(self, small_world, monkeypatch, name, value):
        # rejected before any trajectory is drawn, bools and floats included
        scene, grid, codebook = small_world

        def no_draw(*args, **kwargs):
            raise AssertionError("trajectory drawn")

        monkeypatch.setattr(data, "sample_trajectories", no_draw)
        kwargs = {"num_trajectories": 5, "slots_per_trajectory": 100, name: value}
        with pytest.raises(ValueError, match=f"{name} must be an int >= 1"):
            make_dataset(scene, grid, "rsu0", "rsu1", codebook=codebook, seed=1, **kwargs)

    def test_matches_item_by_item_reference(self, tmp_path, small_world):
        # outage on a band of rows drops some trajectories but not all;
        # overlapping windows and trailing slots no window reads
        scene, grid, codebook = small_world
        valid = grid.path_valid["rsu1"].copy()
        m = valid.shape[0]
        valid[m // 3 : m // 3 + m // 8] = False
        banded = dataclasses.replace(grid, path_valid=dict(grid.path_valid, rsu1=valid))
        args = (scene, banded, "rsu0", "rsu1", 40, codebook, 6)
        kwargs = dict(history=12, horizon=9, stride=4, slots_per_trajectory=45)
        ds = make_dataset(*args, **kwargs)
        ref = reference_make_dataset(*args, **kwargs)
        # the train statistics are summed over more than one block of windows
        assert len(ds.windows_in("train")) > data._STATS_BLOCK
        assert 0 < ds.dropped_trajectories < 40
        assert ds.dropped_trajectories == ref.dropped_trajectories
        assert len({s.trajectory_id for s in ds.samples}) > 1
        assert len({s.start_slot for s in ds.samples}) > 1
        save_dataset(ds, tmp_path / "batch.bmsq")
        save_dataset(ref, tmp_path / "reference.bmsq")
        assert (tmp_path / "batch.bmsq").read_bytes() == (tmp_path / "reference.bmsq").read_bytes()
        assert ds.feature_mean.tobytes() == ref.feature_mean.tobytes()
        assert ds.feature_std.tobytes() == ref.feature_std.tobytes()
        assert len(ds.samples) == len(ref.samples)
        for a, b in zip(ds.samples, ref.samples):
            assert a.features.tobytes() == b.features.astype(np.float32).tobytes()
            assert (a.trajectory_id, a.start_slot, a.anchor_label) == (
                b.trajectory_id, b.start_slot, b.anchor_label
            )
            assert a.positions.tobytes() == b.positions.tobytes()


    def test_one_feature_statistics_match_reference(self):
        # numpy sums a single column pairwise, not row by row
        scene = generate_scene(SceneParams(grid_spacing=0.5), seed=3)
        mbs = dataclasses.replace(scene.station("mbs"), geometry=ArrayGeometry(1))
        scene = dataclasses.replace(scene, stations={**scene.stations, "mbs": mbs})
        grid = build_channel_grid(scene, bs_ids=("mbs", "rsu1"))
        args = (scene, grid, "mbs", "rsu1", 30, build_dft_codebook(256, 32), 6)
        kwargs = dict(history=12, horizon=9, stride=4, slots_per_trajectory=45)
        ds = make_dataset(*args, **kwargs)
        ref = reference_make_dataset(*args, **kwargs)
        assert ds.feature_dim == 1
        assert ds.feature_mean.tobytes() == ref.feature_mean.tobytes()
        assert ds.feature_std.tobytes() == ref.feature_std.tobytes()


def canary_datasets(scene, grid, codebook):
    """Five small datasets, by name: two fresh builds, two subsets of one of
    them and one built from a sample list of float64 features."""
    fresh = make_dataset(scene, grid, "rsu0", "rsu1", 12, codebook, seed=21, history=8, horizon=6)
    strided = make_dataset(scene, grid, "rsu0", "rsu1", 12, codebook, seed=22, history=8,
                           horizon=6, stride=3, slots_per_trajectory=40)
    rng = np.random.default_rng(23)
    listed = [
        TrainingSample(rng.normal(size=(3, 5)), rng.integers(0, 7, size=2).astype(np.uint16), i, i)
        for i in range(9)
    ]
    return {
        "fresh": fresh,
        "strided": strided,
        "val": dataclasses.replace(strided, samples=strided.split_samples("val")),
        "mixed": dataclasses.replace(
            strided, samples=[*strided.split_samples("test"), *strided.samples[:4][::-1]]
        ),
        "listed": Dataset(
            samples=listed, feature_mean=rng.normal(size=5), feature_std=rng.uniform(1, 2, size=5),
            num_beams=7, history=3, horizon=2, source_bs="rsu0", target_rsu="rsu1", seed=24,
            scene_digest="ab",
        ),
    }


class TestWindowTable:
    # sha256 of each ``canary_datasets`` file, taken when datasets still
    # stored every window's features
    CANARY_SHA256 = {
        "fresh": "6adde0342e35e6253fff1019d561d521d7054b7753fdce707f0ae9cdd8972c0b",
        "strided": "8a11ad38f6fb125593794b9375f9395bd33aa112091b63934ec1dbe1d53cd8ee",
        "val": "e40d4f44b302cffe95ad7b9db22f614026ae251be4519fba61bedb3a0c043c59",
        "mixed": "77be05eb6ea67606d222066e9d29b0b5eede44154198b5455bbb70dfc483bb77",
        "listed": "224117513b42cff42b6ea33d8003c5133f1f7eb924fe70c770b64a680c779bd1",
    }

    def test_saved_bytes_are_pinned(self, tmp_path, small_world):
        got = {}
        for name, ds in canary_datasets(*small_world).items():
            save_dataset(ds, tmp_path / f"{name}.bmsq")
            got[name] = hashlib.sha256((tmp_path / f"{name}.bmsq").read_bytes()).hexdigest()
        assert got == self.CANARY_SHA256

    def test_every_batch_equals_the_materialized_windows(self, small_world, monkeypatch):
        # stride K with four windows per trajectory; training's batches in the
        # shuffled order, then validation's, and the test split's arrays
        scene, grid, codebook = small_world
        ds = make_dataset(scene, grid, "rsu0", "rsu1", 30, codebook, seed=8, history=6,
                          horizon=4, slots_per_trajectory=22)
        feats, labels, ids = materialized_windows(scene, grid, codebook, ds)
        splits = np.array([split_of(ds.seed, i) for i in ids])
        batches = []
        score = seq2seq._score_teacher_forced

        def spy(model, f, t, rng):
            batches.append((f.copy(), t.copy()))
            return score(model, f, t, rng)

        monkeypatch.setattr(seq2seq, "_score_teacher_forced", spy)
        hyper = Seq2SeqHyper(feature_dim=32, history=6, horizon=4, num_beams=256, hidden=3,
                             embed_dim=2)
        cfg = TrainConfig(batch_size=5, max_epochs=1, seed=2)
        train(init_model(hyper, seed=1), ds, cfg)
        in_train, in_val = np.flatnonzero(splits == "train"), np.flatnonzero(splits == "val")
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, seq2seq._TAG_TRAIN])
        ).permutation(in_train.size)
        want = [in_train[order[lo : lo + 5]] for lo in range(0, in_train.size, 5)]
        want += [in_val[lo : lo + 5] for lo in range(0, in_val.size, 5)]
        assert len(in_val) and len(batches) == len(want)
        test_x, test_y = ds.arrays("test")
        batches.append((test_x, test_y))
        want.append(np.flatnonzero(splits == "test"))
        for (f, t), windows in zip(batches, want, strict=True):
            assert f.dtype == np.float32 and f.tobytes() == feats[windows].tobytes()
            assert t.dtype == np.int64
            assert t.tobytes() == labels[windows].astype(np.int64).tobytes()

    def test_a_split_subset_holds_its_own_windows_alone(self, small_world, traced_memory):
        # built and cut inside the call, so the build is held only if the
        # subset pins it
        scene, grid, codebook = small_world

        def build():
            ds = make_dataset(scene, grid, "rsu0", "rsu1", 40, codebook, seed=6, history=20,
                              horizon=10, stride=7, slots_per_trajectory=90)
            return dataclasses.replace(ds, samples=ds.split_samples("val"))

        subset, retained, _ = traced_memory(build)
        t, k, n = subset.history, subset.horizon, len(subset.table.windows)
        assert n > 10
        own = n * (t * subset.feature_dim * 4 + k * 2 + (t + k) * 2 * 8)
        assert retained < 1.5 * own

    def test_stride_one_retains_its_table_not_its_windows(self, small_world, traced_memory):
        scene, grid, codebook = small_world
        ds, retained, _ = traced_memory(lambda: make_dataset(
            scene, grid, "rsu0", "rsu1", 20, codebook, seed=6, history=20, horizon=10,
            stride=1, slots_per_trajectory=200,
        ))
        table = ds.table
        held = sum(a.nbytes for a in (table.features, table.labels, table.rows, table.positions))
        assert retained < 2 * held
        # the windows' features, stored, would outweigh all of that many times over
        window_features = len(table.windows) * ds.history * ds.feature_dim * 4
        assert window_features > 10 * held
        # and the label histogram gathers labels alone: its peak stays
        # under twice the window list, rows and labels that it reads
        hist, _, peak = traced_memory(ds.label_histogram)
        assert peak < 0.1 * window_features
        assert peak < 2 * (table.windows.nbytes + table.rows.nbytes + table.labels.nbytes)
        # and equals the per-window count, here and on a sample list's table
        _, labels = ds.batch(np.arange(len(table.windows)))
        assert hist.dtype == np.int64
        assert hist.tolist() == np.bincount(labels.reshape(-1), minlength=ds.num_beams).tolist()
        listed = dataclasses.replace(ds, samples=ds.samples[::3])
        want = sum(np.bincount(s.labels, minlength=ds.num_beams) for s in listed.samples)
        assert listed.label_histogram().tolist() == want.tolist()


class TestDatasetFile:
    def test_roundtrip(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path, config_hash="cafe")
        loaded = load_dataset(path)
        assert loaded.num_beams == 256
        assert loaded.history == 50 and loaded.horizon == 50
        assert loaded.source_bs == "rsu0" and loaded.target_rsu == "rsu1"
        assert loaded.seed == small_dataset.seed
        assert loaded.scene_digest == small_dataset.scene_digest
        assert loaded.extra_metadata["config_hash"] == "cafe"
        assert len(loaded.samples) == len(small_dataset.samples)
        np.testing.assert_allclose(loaded.feature_mean, small_dataset.feature_mean)
        np.testing.assert_allclose(loaded.feature_std, small_dataset.feature_std)
        for a, b in zip(loaded.samples, small_dataset.samples):
            # features pass through the on-disk float32 representation
            np.testing.assert_array_equal(
                a.features, b.features.astype(np.float32).astype(np.float64)
            )
            np.testing.assert_array_equal(a.labels, b.labels)
            assert a.trajectory_id == b.trajectory_id
            assert a.start_slot == b.start_slot
        # split assignment is recomputable from the file alone
        assert loaded.windows_in("train").tolist() == small_dataset.windows_in("train").tolist()

    def test_bad_magic_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    def test_record_shape_too_large_rejected(self, tmp_path, small_dataset):
        # T = 2**31 - 1 in the header: a record of more than 2 GiB, which no
        # numpy dtype can describe
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        raw = bytearray(path.read_bytes())
        raw[16:20] = struct.pack("<I", 2**31 - 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="record shape"):
            load_dataset(path)

    def test_truncation_rejected(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-10])
        with pytest.raises(DatasetFormatError):
            load_dataset(path)

    @staticmethod
    def _metadata_span(raw: bytes) -> tuple[int, int]:
        """(start, end) of the metadata block's length prefix and bytes."""
        (f,) = struct.unpack("<I", raw[12:16])
        at = 28 + 16 * f  # magic, six u32 counts, feature mean and std
        (meta_len,) = struct.unpack("<I", raw[at : at + 4])
        return at, at + 4 + meta_len

    # header key -> a value the header may not hold, per fault name
    BAD_HEADER_VALUES = {
        "seed-float": ("seed", 1.5),
        "seed-bool": ("seed", True),
        "seed-string": ("seed", "7"),
        "ratios-short": ("split_ratios", [0.8]),
        "ratios-nan": ("split_ratios", [0.8, float("nan"), 0.1]),
        "ratios-inf": ("split_ratios", [0.8, 0.1, float("inf")]),
        "ratios-string": ("split_ratios", "abc"),
        "ratios-bool": ("split_ratios", [True, 0.1, 0.1]),
        "ratios-other": ("split_ratios", [0.6, 0.4, 0.0]),
        "dropped-negative": ("dropped_trajectories", -1),
        "dropped-float": ("dropped_trajectories", 2.0),
        "source-not-string": ("source_bs", 3),
        "target-not-string": ("target_rsu", None),
        "digest-not-string": ("scene_digest", ["ab"]),
    }

    @pytest.mark.parametrize(
        "fault", ["not-utf8", "not-json", "not-object", "missing-key", *BAD_HEADER_VALUES]
    )
    def test_bad_metadata_rejected(self, tmp_path, small_dataset, fault):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        raw = path.read_bytes()
        lo, hi = self._metadata_span(raw)
        meta = json.loads(raw[lo + 4 : hi])
        if fault in self.BAD_HEADER_VALUES:
            key, value = self.BAD_HEADER_VALUES[fault]
            meta[key] = value
        else:
            del meta["source_bs"]
        block = {
            "not-utf8": b'{"seed": "\xff"}',
            "not-json": b'{"seed": 11,',
            "not-object": b"[11]",
        }.get(fault, json.dumps(meta).encode())
        path.write_bytes(raw[:lo] + struct.pack("<I", len(block)) + block + raw[hi:])
        with pytest.raises(DatasetFormatError, match="metadata"):
            load_dataset(path)

    # the split shares are not a field, so no Dataset holds other ones
    @pytest.mark.parametrize(
        "fault", [f for f, (key, _) in BAD_HEADER_VALUES.items() if key != "split_ratios"]
    )
    def test_bad_header_rejected_on_save(self, tmp_path, small_dataset, fault):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        before = path.read_bytes()
        key, value = self.BAD_HEADER_VALUES[fault]
        with pytest.raises(ValueError, match="ill-typed header values"):
            save_dataset(dataclasses.replace(small_dataset, **{key: value}), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_save_keeps_previous_file(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        before = path.read_bytes()
        last = small_dataset.samples[-1]
        bad = dataclasses.replace(last, labels=last.labels[:-1])
        # a table holds no window of another shape, so the dataset is not built
        with pytest.raises(ValueError, match="sample shape"):
            save_dataset(dataclasses.replace(small_dataset, samples=[*small_dataset.samples, bad]),
                         path)
        assert path.read_bytes() == before
        assert len(load_dataset(path).samples) == len(small_dataset.samples)
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "extra, config_hash",
        [({"seed": "not-a-seed"}, ""), ({"scene_digest": "x"}, "real"),
         ({"config_hash": "x"}, "real")],
    )
    def test_extra_key_shadowing_header_rejected(self, tmp_path, small_dataset, extra,
                                                 config_hash):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        before = path.read_bytes()
        shadowing = dataclasses.replace(
            small_dataset, extra_metadata={**small_dataset.extra_metadata, **extra}
        )
        with pytest.raises(ValueError, match="would replace header values"):
            save_dataset(shadowing, path, config_hash=config_hash)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_loaded_config_hash_saves_back(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path, config_hash="cafe")
        loaded = load_dataset(path)
        for config_hash in ("", "cafe"):
            save_dataset(loaded, path, config_hash=config_hash)
            assert load_dataset(path).extra_metadata["config_hash"] == "cafe"

    def test_out_of_range_label_rejected_on_load(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        raw = bytearray(path.read_bytes())
        _, records = self._metadata_span(bytes(raw))
        raw[records + 4 * 50 * 32 : records + 4 * 50 * 32 + 2] = struct.pack("<H", 256)
        path.write_bytes(bytes(raw))
        with pytest.raises(DatasetFormatError, match="label 256"):
            load_dataset(path)

    def test_out_of_range_label_rejected_on_save(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        before = path.read_bytes()
        last = small_dataset.samples[-1]
        bad = dataclasses.replace(last, labels=np.full_like(last.labels, 999))
        broken = dataclasses.replace(small_dataset, samples=[*small_dataset.samples, bad])
        with pytest.raises(ValueError, match="labels outside"):
            save_dataset(broken, path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_truncation_at_every_offset_rejected(self, tmp_path):
        samples = [
            TrainingSample(
                features=np.full((2, 3), 0.5 * i), labels=np.array([i, 3], dtype=np.uint16),
                trajectory_id=i, start_slot=2 * i,
            )
            for i in range(2)
        ]
        tiny = Dataset(
            samples=samples, feature_mean=np.zeros(3), feature_std=np.ones(3), num_beams=4,
            history=2, horizon=2, source_bs="rsu0", target_rsu="rsu1", seed=1,
            scene_digest="ab",
        )
        path = tmp_path / "tiny.bmsq"
        save_dataset(tiny, path)
        raw = path.read_bytes()
        assert len(load_dataset(path).samples) == 2
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(DatasetFormatError):
                load_dataset(path)

    def test_load_peaks_near_what_it_returns(self, tmp_path, traced_memory):
        # 800 windows read into one record array that the samples view
        rng = np.random.default_rng(41)
        t, f, k, n = 10, 16, 4, 800
        ds = Dataset(
            samples=[
                TrainingSample(
                    features=rng.normal(size=(t, f)).astype(np.float32),
                    labels=rng.integers(0, 9, size=k).astype(np.uint16),
                    trajectory_id=i, start_slot=3 * i,
                )
                for i in range(n)
            ],
            feature_mean=rng.normal(size=f), feature_std=rng.uniform(1, 2, size=f),
            num_beams=9, history=t, horizon=k, source_bs="rsu0", target_rsu="rsu1",
            seed=5, scene_digest="ab",
        )
        path = tmp_path / "ds.bmsq"
        save_dataset(ds, path)
        raw = path.read_bytes()
        loaded, retained, peak_above = traced_memory(lambda: load_dataset(path))
        assert peak_above <= 0.10 * retained
        for a, b in zip(loaded.samples, ds.samples, strict=True):
            assert a.features.tobytes() == b.features.tobytes()
            assert a.labels.tobytes() == b.labels.tobytes()
            assert (a.trajectory_id, a.start_slot) == (b.trajectory_id, b.start_slot)
        save_dataset(loaded, path)
        assert path.read_bytes() == raw

    def test_loaded_tables_hold_the_records_fields_alone(self, tmp_path, small_dataset):
        save_dataset(small_dataset, tmp_path / "ds.bmsq")
        loaded = load_dataset(tmp_path / "ds.bmsq")
        table = loaded.table
        t, f, k, n = loaded.history, loaded.feature_dim, loaded.horizon, len(table.windows)
        # every record's features and labels, back to back in one table each
        assert table.features.shape == (n * t, f) and table.features.dtype == np.float32
        assert table.labels.shape == (n * k,) and table.labels.dtype == np.uint16
        ids_bytes = 8  # trajectory_id and start_slot, u4 each
        record = data._record_dtype(t, f, k).itemsize
        assert table.features.nbytes + table.labels.nbytes == n * (record - ids_bytes)
        # the samples view the tables, so a write to a sample writes the dataset
        views = loaded.samples
        for name in ("features", "labels"):
            assert {id(getattr(s, name).base) for s in views} == {id(getattr(table, name))}
        assert views[0].features.dtype == np.float32

    def test_fresh_and_reloaded_datasets_train_alike(self, tmp_path, strided_dataset):
        ds = strided_dataset
        save_dataset(ds, tmp_path / "ds.bmsq")
        loaded = load_dataset(tmp_path / "ds.bmsq")
        hyper = Seq2SeqHyper(feature_dim=ds.feature_dim, history=ds.history,
                             horizon=ds.horizon, num_beams=ds.num_beams, hidden=6, embed_dim=4)
        cfg = TrainConfig(batch_size=16, max_epochs=2, patience=100, seed=3)
        runs = []
        for d in (ds, loaded):
            model, history, _ = train(init_model(hyper, seed=5), d, cfg)
            runs.append((json.dumps(history),
                         [(key, v.tobytes()) for key, v in model.named_params().items()]))
        assert runs[0] == runs[1]

    def test_label_histogram_counts_everything(self, small_dataset):
        hist = small_dataset.label_histogram()
        assert hist.sum() == len(small_dataset.samples) * 50

    def test_label_histogram_sums_the_per_sample_counts(self, small_dataset):
        ds = small_dataset
        want = sum(np.bincount(s.labels, minlength=ds.num_beams) for s in ds.samples)
        assert ds.label_histogram().tolist() == want.tolist()
        empty = dataclasses.replace(ds, samples=[])
        assert empty.label_histogram().tolist() == [0] * ds.num_beams


finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def datasets(draw):
    """Arbitrary header sizes, labels in [0, X), float32-representable features,
    any float64 mean/std bits and arbitrary JSON metadata."""
    t, k, f = (draw(st.integers(1, 4)) for _ in range(3))
    x = draw(st.integers(1, 2**16))
    samples = [
        TrainingSample(
            features=draw(
                hnp.arrays(np.float32, (t, f), elements=st.floats(width=32, allow_nan=False))
            ).astype(np.float64),
            labels=draw(hnp.arrays(np.uint16, k, elements=st.integers(0, x - 1))),
            trajectory_id=draw(st.integers(0, 2**32 - 1)),
            start_slot=draw(st.integers(0, 2**32 - 1)),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return Dataset(
        samples=samples,
        feature_mean=draw(hnp.arrays(np.float64, f)),
        feature_std=draw(hnp.arrays(np.float64, f)),
        num_beams=x,
        history=t,
        horizon=k,
        source_bs=draw(st.text(max_size=8)),
        target_rsu=draw(st.text(max_size=8)),
        seed=draw(st.integers()),
        scene_digest=draw(st.text(max_size=8)),
        dropped_trajectories=draw(st.integers(0, 2**40)),
        # prefixed so that no extra key shadows a header key
        extra_metadata=draw(
            st.dictionaries(st.text(max_size=6).map("x_".__add__), json_values, max_size=3)
        ),
    )


class TestDatasetFileProperties:
    @given(ds=datasets(), config_hash=st.text(max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_roundtrip_is_exact(self, tmp_path_factory, ds, config_hash):
        path = tmp_path_factory.mktemp("bmsq") / "ds.bmsq"
        save_dataset(ds, path, config_hash=config_hash)
        raw = path.read_bytes()
        loaded = load_dataset(path)
        for name in ("num_beams", "history", "horizon", "source_bs", "target_rsu", "seed",
                     "scene_digest", "dropped_trajectories"):
            assert getattr(loaded, name) == getattr(ds, name)
        assert loaded.extra_metadata == {"config_hash": config_hash, **ds.extra_metadata}
        assert loaded.feature_mean.tobytes() == ds.feature_mean.tobytes()
        assert loaded.feature_std.tobytes() == ds.feature_std.tobytes()
        assert len(loaded.samples) == len(ds.samples)
        for a, b in zip(loaded.samples, ds.samples):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.labels, b.labels)
            assert (a.trajectory_id, a.start_slot) == (b.trajectory_id, b.start_slot)
        save_dataset(loaded, path)
        assert path.read_bytes() == raw
