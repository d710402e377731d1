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

from beamseq.data import (
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
    split_of_trajectory,
)
from beamseq.phy import build_dft_codebook, optimal_beam, steering_vector
from beamseq.scene import SceneParams, build_channel_grid, generate_scene, snap_positions


@pytest.fixture(scope="module")
def small_world():
    scene = generate_scene(SceneParams(grid_spacing=0.5), seed=3)
    grid = build_channel_grid(scene, bs_ids=("rsu0", "rsu1"))
    codebook = build_dft_codebook(256, 32)
    return scene, grid, codebook


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
        from beamseq.phy import ArrayGeometry

        geom = ArrayGeometry(num_antennas=32)
        # sin(theta) = -2*k/N puts all energy in DFT bin k
        angle = math.asin(-2 * 5 / 32)
        feats = preprocess_csi(steering_vector(geom, angle))
        assert np.argmax(feats) == 5
        others = np.delete(feats, 5)
        assert feats[5] > others.max() + 5.0  # dominant by orders of magnitude

    def test_zero_vector_gives_log_epsilon(self):
        feats = preprocess_csi(np.zeros(16, dtype=complex))
        np.testing.assert_allclose(feats, np.log(LOG_EPSILON), atol=1e-12)

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
            from beamseq.phy import received_signal_strength

            assert rss[idx] == pytest.approx(
                received_signal_strength(h, codebook.codeword(int(labels[idx]))), rel=1e-12
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

    def test_train_split_standardization(self, small_dataset):
        feats, _ = small_dataset.arrays("train")
        flat = feats.reshape(-1, feats.shape[-1])
        np.testing.assert_allclose(flat.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(flat.std(axis=0), 1.0, atol=1e-6)

    def test_no_trajectory_spans_two_splits(self, small_dataset):
        seen: dict[int, str] = {}
        for s in small_dataset.samples:
            split = small_dataset.split_of(s.trajectory_id)
            assert seen.setdefault(s.trajectory_id, split) == split

    def test_split_hash_deterministic_and_roughly_proportional(self):
        splits = [split_of_trajectory(99, i) for i in range(2000)]
        assert splits == [split_of_trajectory(99, i) for i in range(2000)]
        frac_train = splits.count("train") / 2000
        assert 0.75 < frac_train < 0.85

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
        scene = generate_scene(
            SceneParams(grid_spacing=0.5, num_reflectors=0, num_scatterers=0), seed=3
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

    def test_windows_equal_whole_grid_features_and_labels(self, small_world):
        # overlapping windows and trailing slots no window reads
        scene, grid, codebook = small_world
        ds = make_dataset(
            scene, grid, "rsu0", "rsu1", 25, codebook, seed=4,
            history=20, horizon=10, stride=7, slots_per_trajectory=90,
        )
        feats = grid_features(grid, "rsu0")
        labels, _ = grid_beam_labels(grid, "rsu1", codebook)
        assert len({s.trajectory_id for s in ds.samples}) > 1
        assert len(ds.samples) > len({s.trajectory_id for s in ds.samples})
        for s in ds.samples:
            flat = snap_positions(s.positions, scene.grid)
            np.testing.assert_array_equal(
                s.features, (feats[flat[:20]] - ds.feature_mean) / ds.feature_std
            )
            np.testing.assert_array_equal(s.labels, labels[flat[20:]])
            assert s.labels.dtype == np.uint16
            assert s.anchor_label == labels[flat[19]]

    def test_every_trajectory_dropped_rejected(self, small_world):
        scene, grid, codebook = small_world
        dark = dict(grid.path_valid, rsu1=np.zeros_like(grid.path_valid["rsu1"]))
        with pytest.raises(ValueError, match="no train-split samples"):
            make_dataset(
                scene, dataclasses.replace(grid, path_valid=dark), "rsu0", "rsu1", 6, codebook,
                seed=1, slots_per_trajectory=100,
            )

    def test_too_few_slots_rejected(self, small_world):
        scene, grid, codebook = small_world
        with pytest.raises(ValueError):
            make_dataset(
                scene, grid, "rsu0", "rsu1", 5, codebook, seed=1, slots_per_trajectory=80
            )


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
        assert loaded.indices("train") == small_dataset.indices("train")

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

    @pytest.mark.parametrize("fault", ["not-utf8", "not-json", "not-object", "missing-key"])
    def test_bad_metadata_rejected(self, tmp_path, small_dataset, fault):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        raw = path.read_bytes()
        lo, hi = self._metadata_span(raw)
        meta = json.loads(raw[lo + 4 : hi])
        del meta["source_bs"]
        block = {
            "not-utf8": b'{"seed": "\xff"}',
            "not-json": b'{"seed": 11,',
            "not-object": b"[11]",
            "missing-key": json.dumps(meta).encode(),
        }[fault]
        path.write_bytes(raw[:lo] + struct.pack("<I", len(block)) + block + raw[hi:])
        with pytest.raises(DatasetFormatError, match="metadata"):
            load_dataset(path)

    def test_failed_save_keeps_previous_file(self, tmp_path, small_dataset):
        path = tmp_path / "ds.bmsq"
        save_dataset(small_dataset, path)
        before = path.read_bytes()
        last = small_dataset.samples[-1]
        bad = dataclasses.replace(last, labels=last.labels[:-1])
        broken = dataclasses.replace(small_dataset, samples=[*small_dataset.samples, bad])
        with pytest.raises(ValueError, match="sample shape"):
            save_dataset(broken, path)
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

    def test_label_histogram_counts_everything(self, small_dataset):
        hist = small_dataset.label_histogram()
        assert hist.sum() == len(small_dataset.samples) * 50


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
        split_ratios=draw(st.tuples(finite, finite, finite)),
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
                     "scene_digest", "split_ratios", "dropped_trajectories"):
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
