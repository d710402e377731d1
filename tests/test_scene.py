"""Scene generation, path tracing, channel grid, snapping, trajectories."""

import dataclasses
import io
import math
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamseq.mobility import Trajectory, TrajectoryError, sample_trajectory
from beamseq.phy import ArrayGeometry, synthesize_channel
from beamseq.scene import (
    BaseStation,
    ChannelGrid,
    GridSpec,
    Scatterer,
    Scene,
    SceneParams,
    Wall,
    _trace_points,
    build_channel_grid,
    generate_scene,
    snap_positions,
    trace_paths,
)


def coarse_params(**overrides):
    kwargs = dict(grid_spacing=0.5)
    kwargs.update(overrides)
    return SceneParams(**kwargs)


@pytest.fixture(scope="module")
def los_scene():
    return generate_scene(coarse_params(num_reflectors=0, num_scatterers=0), seed=1)


@pytest.fixture(scope="module")
def rich_scene():
    return generate_scene(coarse_params(), seed=1)


class TestGenerateScene:
    def test_deterministic(self):
        a = generate_scene(coarse_params(), seed=42)
        b = generate_scene(coarse_params(), seed=42)
        assert a.to_dict() == b.to_dict()
        assert a.digest() == b.digest()

    def test_seed_changes_scene(self):
        a = generate_scene(coarse_params(), seed=42)
        b = generate_scene(coarse_params(), seed=43)
        assert a.digest() != b.digest()

    def test_default_antenna_counts(self):
        scene = generate_scene(coarse_params(), seed=0)
        assert scene.station("rsu0").geometry.num_antennas == 32
        assert scene.station("rsu1").geometry.num_antennas == 32
        assert scene.station("mbs").geometry.num_antennas == 128
        assert scene.station("rsu0").height == 3.0
        assert scene.station("mbs").height == 22.0

    def test_los_only_scene_has_single_path_everywhere(self, los_scene):
        rng = np.random.default_rng(0)
        pts = los_scene.grid.points()
        for idx in rng.choice(len(pts), size=10, replace=False):
            for bs_id in ("rsu0", "rsu1", "mbs"):
                paths = trace_paths(los_scene, bs_id, pts[idx])
                assert len(paths) == 1

    def test_uncovered_grid_rejected(self):
        # MBS pushed inside the grid: corners fall behind the array
        with pytest.raises(ValueError):
            generate_scene(coarse_params(mbs_offset=-5.0), seed=0)

    def test_default_grid_point_count(self):
        # origin-inclusive, far-edge-exclusive: extent/spacing points per axis
        grid = GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.05)
        assert grid.n_x == 600
        assert grid.n_y == 200
        assert grid.num_points == 600 * 200


class TestTracePaths:
    def test_los_aod_matches_geometry(self, los_scene):
        bs = los_scene.station("rsu0")
        point = np.array([10.0, 7.0])
        (path,) = trace_paths(los_scene, "rsu0", point)
        expected_az = math.atan2(
            point[1] - bs.position[1], point[0] - bs.position[0]
        )
        expected_aod = math.asin(math.sin(expected_az - bs.boresight))
        assert path.aod == pytest.approx(expected_aod, abs=1e-12)
        assert path.aoa == pytest.approx(0.0, abs=1e-12)
        # free-space amplitude over the 3-D distance
        d3 = math.hypot(
            np.linalg.norm(point - np.asarray(bs.position)),
            bs.height - los_scene.rx_height,
        )
        lam = los_scene.wavelength_m
        assert abs(path.gain) == pytest.approx(lam / (4 * math.pi * d3), rel=1e-12)

    def test_reflected_path_matches_image_source_oracle(self):
        # single full-width wall behind the road
        scene = generate_scene(
            coarse_params(num_reflectors=1, num_scatterers=0), seed=5
        )
        wall = scene.walls[0]
        assert wall.a[1] == wall.b[1]  # wall parallel to the road
        bs = scene.station("rsu0")
        point = np.array([12.0, 4.0])
        paths = trace_paths(scene, "rsu0", point)
        assert len(paths) == 2  # LoS + one reflection
        refl = paths[1]
        wall_y = wall.a[1]
        image = np.array([bs.position[0], 2 * wall_y - bs.position[1]])
        plan = float(np.linalg.norm(point - image))
        d3 = math.hypot(plan, bs.height - scene.rx_height)
        lam = scene.wavelength_m
        expected_amp = lam / (4 * math.pi * d3) * 10 ** (-wall.reflection_loss_db / 20)
        assert abs(refl.gain) == pytest.approx(expected_amp, rel=1e-12)
        expected_phase = (-2 * math.pi * d3 / lam) % (2 * math.pi)
        assert np.angle(refl.gain) % (2 * math.pi) == pytest.approx(
            expected_phase, abs=1e-6
        )
        # departure toward the mirror point on the wall
        t = (wall_y - image[1]) / (point[1] - image[1])
        hit = image + t * (point - image)
        expected_aod = math.asin(
            math.sin(
                math.atan2(hit[1] - bs.position[1], hit[0] - bs.position[0])
                - bs.boresight
            )
        )
        assert refl.aod == pytest.approx(expected_aod, abs=1e-12)

    def test_mirrored_points_have_symmetric_aods(self):
        # custom symmetric scene: BS below the grid looking up (+y), wall above
        geometry = ArrayGeometry(num_antennas=8)
        scene = Scene(
            carrier_hz=28e9,
            rx_height=1.5,
            stations={
                "bs": BaseStation(
                    bs_id="bs",
                    position=(15.0, -5.0),
                    height=3.0,
                    boresight=math.pi / 2,
                    geometry=geometry,
                )
            },
            walls=(Wall(a=(-5.0, 12.0), b=(35.0, 12.0), height=6.0, reflection_loss_db=4.0),),
            scatterers=(),
            grid=GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.5),
            seed=0,
        )
        left = trace_paths(scene, "bs", np.array([10.0, 4.0]))
        right = trace_paths(scene, "bs", np.array([20.0, 4.0]))
        assert len(left) == len(right) == 2
        for pl, pr in zip(left, right):
            assert pl.aod == pytest.approx(-pr.aod, abs=1e-12)
            assert abs(pl.gain) == pytest.approx(abs(pr.gain), rel=1e-12)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_mirrored_points_have_symmetric_aods(self, data):
        # BS on the axis x = 15 looking up (+y), a wall above the grid that
        # every reflection point falls on and no ray clears, and scatterers
        # in mirrored pairs away from the grid; the point at 15 - dx mirrors
        # the one at 15 + dx, so its scatterer 2k mirrors scatterer 2k + 1
        bs_height = data.draw(st.floats(2.0, 25.0))
        wall_y = data.draw(st.floats(10.5, 20.0))
        scatterers = []
        for _ in range(data.draw(st.integers(0, 3))):
            sx = data.draw(st.floats(0.0, 17.0))
            sy = data.draw(st.one_of(st.floats(-3.0, -0.5), st.floats(10.2, wall_y - 0.2)))
            height, gain_db = data.draw(st.floats(1.0, 4.0)), data.draw(st.floats(-25.0, -12.0))
            scatterers += [Scatterer((15.0 - sx, sy), height, gain_db),
                           Scatterer((15.0 + sx, sy), height, gain_db)]
        scene = Scene(
            carrier_hz=28e9,
            rx_height=1.5,
            stations={
                "bs": BaseStation(
                    bs_id="bs",
                    position=(15.0, -data.draw(st.floats(5.0, 20.0))),
                    height=bs_height,
                    boresight=math.pi / 2,
                    geometry=ArrayGeometry(num_antennas=8),
                )
            },
            walls=(Wall(a=(-25.0, wall_y), b=(55.0, wall_y), height=bs_height + 1.0,
                        reflection_loss_db=data.draw(st.floats(1.0, 10.0))),),
            scatterers=tuple(scatterers),
            grid=GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.5),
            seed=0,
        )
        dx, y = data.draw(st.floats(0.0, 15.0)), data.draw(st.floats(0.0, 10.0))
        left = trace_paths(scene, "bs", np.array([15.0 - dx, y]))
        right = trace_paths(scene, "bs", np.array([15.0 + dx, y]))
        assert len(left) == len(right) == 2 + len(scatterers)
        mirror = [0, 1] + [2 + (k ^ 1) for k in range(len(scatterers))]
        for pl, k in zip(left, mirror):
            assert pl.aod == pytest.approx(-right[k].aod, abs=1e-12)
            assert abs(pl.gain) == pytest.approx(abs(right[k].gain), rel=1e-12)

    def test_blocking_wall_creates_outage(self):
        # wall dropped between the BS and the grid, taller than both
        geometry = ArrayGeometry(num_antennas=4)
        scene = Scene(
            carrier_hz=28e9,
            rx_height=1.5,
            stations={
                "bs": BaseStation(
                    bs_id="bs",
                    position=(15.0, -5.0),
                    height=3.0,
                    boresight=math.pi / 2,
                    geometry=geometry,
                )
            },
            walls=(Wall(a=(-5.0, -1.0), b=(35.0, -1.0), height=30.0, reflection_loss_db=4.0),),
            scatterers=(),
            grid=GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.5),
            seed=0,
        )
        assert trace_paths(scene, "bs", np.array([15.0, 5.0])) == []

    def test_point_outside_grid_rejected(self, los_scene):
        with pytest.raises(ValueError):
            trace_paths(los_scene, "rsu0", np.array([100.0, 100.0]))


@pytest.fixture(scope="module")
def occluded_scene():
    """A short tall wall inside the grid blocks the line of sight, and each
    scatterer's second leg, for part of the points."""
    return Scene(
        carrier_hz=28e9,
        rx_height=1.5,
        stations={
            "bs": BaseStation(
                bs_id="bs",
                position=(15.0, -5.0),
                height=3.0,
                boresight=math.pi / 2,
                geometry=ArrayGeometry(num_antennas=8),
            )
        },
        walls=(Wall(a=(5.0, 5.0), b=(10.0, 5.0), height=30.0, reflection_loss_db=4.0),),
        scatterers=(Scatterer((20.0, 12.0), 2.0, -15.0), Scatterer((2.0, -2.0), 2.0, -18.0)),
        grid=GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.5),
        seed=0,
    )


class TestPathTables:
    """``_trace_points`` writes each slot's columns whole."""

    @pytest.mark.parametrize("which", ["occluded", "rich"])
    def test_invalid_entries_are_exactly_zero(self, which, occluded_scene, rich_scene):
        scene = occluded_scene if which == "occluded" else rich_scene
        for bs_id in scene.stations:
            gains, aods, aoas, valid = _trace_points(
                scene, scene.station(bs_id), scene.grid.points()
            )
            assert valid.dtype == bool and valid.any() and not valid.all()
            for table in (gains, aods, aoas):
                # +0.0 in every part: all bytes zero
                assert not table[~valid].view(np.uint8).any()
            assert np.all(gains[valid] != 0)

    def test_occluded_scene_blocks_part_of_every_slot(self, occluded_scene):
        valid = _trace_points(
            occluded_scene, occluded_scene.station("bs"), occluded_scene.grid.points()
        )[3]
        assert np.all(valid.any(axis=0)) and not np.any(valid.all(axis=0))

    @pytest.mark.parametrize("which", ["occluded", "rich"])
    def test_scatterer_slot_carries_one_aod(self, which, occluded_scene, rich_scene):
        scene = occluded_scene if which == "occluded" else rich_scene
        first = 1 + len(scene.walls)
        for bs_id in scene.stations:
            bs = scene.station(bs_id)
            _, aods, _, valid = _trace_points(scene, bs, scene.grid.points())
            for s, scat in enumerate(scene.scatterers, start=first):
                lit = aods[valid[:, s], s]
                assert lit.size
                az = math.atan2(scat.position[1] - bs.position[1], scat.position[0] - bs.position[0])
                assert np.all(lit == lit[0])
                assert lit[0] == pytest.approx(math.asin(math.sin(az - bs.boresight)), abs=1e-12)

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_point_subsets_give_the_full_grids_rows(self, occluded_scene, rich_scene, data):
        scene = data.draw(st.sampled_from([occluded_scene, rich_scene]), label="scene")
        bs = scene.station(data.draw(st.sampled_from(sorted(scene.stations)), label="bs"))
        points = scene.grid.points()
        full = _trace_points(scene, bs, points)
        idx = np.array(
            data.draw(st.lists(st.integers(0, len(points) - 1), min_size=1, max_size=40)),
            dtype=np.int64,
        )
        part = _trace_points(scene, bs, points[idx])
        np.testing.assert_array_equal(part[3], full[3][idx])
        for got, want in zip(part[:3], full[:3]):
            np.testing.assert_allclose(got, want[idx], rtol=1e-12, atol=0.0)


class TestChannelGrid:
    def test_cache_coherence_spot_checks(self, rich_scene):
        grid = build_channel_grid(rich_scene, bs_ids=("rsu0", "rsu1"))
        rng = np.random.default_rng(2)
        for idx in rng.choice(rich_scene.grid.num_points, size=12, replace=False):
            for bs_id in ("rsu0", "rsu1"):
                paths = grid.paths_at(bs_id, int(idx))
                snap = synthesize_channel(
                    paths, rich_scene.station(bs_id).geometry
                )
                np.testing.assert_allclose(
                    grid.snapshots[bs_id][idx],
                    snap.coefficients,
                    rtol=1e-12,
                    atol=1e-20,
                )

    def test_every_snapshot_matches_per_element_sum(self, rich_scene):
        # independent of the synthesis kernel: each element is its own exp
        grid = build_channel_grid(rich_scene)
        for bs_id in ("rsu0", "rsu1", "mbs"):
            geometry = rich_scene.station(bs_id).geometry
            i = np.arange(geometry.num_antennas)
            gains, aods = grid.path_gains[bs_id], grid.path_aods[bs_id]
            phase = -2 * np.pi * geometry.spacing_wavelengths * i * np.sin(aods[..., None])
            want = np.einsum("mp,mpn->mn", gains, np.exp(1j * phase))
            got = grid.snapshots[bs_id]
            assert got.shape == (rich_scene.grid.num_points, geometry.num_antennas)
            err = np.linalg.norm(got - want, axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))

    def test_los_snapshot_is_scaled_steering_vector(self, los_scene):
        grid = build_channel_grid(los_scene, bs_ids=("rsu0",))
        bs = los_scene.station("rsu0")
        for idx in (0, 57, 1199):
            (path,) = grid.paths_at("rsu0", idx)
            from beamseq.phy import steering_vector

            expected = path.gain * steering_vector(bs.geometry, path.aod)
            np.testing.assert_allclose(
                grid.snapshots["rsu0"][idx], expected, rtol=1e-12
            )

    def test_los_gain_strictly_decreases_with_distance(self, los_scene):
        grid = build_channel_grid(los_scene, bs_ids=("rsu0",))
        bs = los_scene.station("rsu0")
        pts = los_scene.grid.points()
        d3 = np.hypot(
            np.linalg.norm(pts - np.asarray(bs.position), axis=1),
            bs.height - los_scene.rx_height,
        )
        amp = np.abs(grid.path_gains["rsu0"][:, 0])
        order = np.argsort(d3)
        d_sorted, a_sorted = d3[order], amp[order]
        distinct = np.diff(d_sorted) > 1e-9
        assert np.all(np.diff(a_sorted)[distinct] < 0)

    def test_save_load_roundtrip(self, tmp_path, los_scene):
        grid = build_channel_grid(los_scene, bs_ids=("rsu0",))
        path = tmp_path / "grid.npz"
        grid.save(path)
        loaded = ChannelGrid.load(path)
        assert loaded.scene.digest() == los_scene.digest()
        np.testing.assert_array_equal(loaded.snapshots["rsu0"], grid.snapshots["rsu0"])
        np.testing.assert_array_equal(loaded.path_valid["rsu0"], grid.path_valid["rsu0"])

    def test_failed_save_keeps_previous_file(self, tmp_path, los_scene, monkeypatch):
        grid = build_channel_grid(los_scene, bs_ids=("rsu0",))
        path = tmp_path / "grid"  # no ".npz" suffix is appended
        grid.save(path)
        before = path.read_bytes()

        def disk_full(fh, **arrays):
            fh.write(b"PK\x03\x04")
            raise OSError("no space left on device")

        monkeypatch.setattr(np, "savez", disk_full)
        with pytest.raises(OSError):
            grid.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        loaded = ChannelGrid.load(path)
        np.testing.assert_array_equal(loaded.snapshots["rsu0"], grid.snapshots["rsu0"])
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize(
        "metadata", [{}, {"scene": 5, "bs_ids": []}, {"scene": {"stations": []}}]
    )
    def test_bad_metadata_rejected(self, tmp_path, write_archive, metadata):
        path = tmp_path / "grid.npz"
        write_archive(path, [], metadata)
        with pytest.raises(ValueError, match="bad channel grid file"):
            ChannelGrid.load(path)

    def test_header_declaring_more_than_member_holds_rejected(self, tmp_path):
        # (2**33,) complex128 over 16 bytes: rejected before numpy allocates
        # the 128 GiB the header declares
        path = tmp_path / "grid.npz"
        member = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            member, {"descr": "<c16", "fortran_order": False, "shape": (2**33,)}
        )
        member.write(np.zeros(1, dtype=complex).tobytes())
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("rsu0__snapshots.npy", member.getvalue())
        with pytest.raises(ValueError, match="declares"):
            ChannelGrid.load(path)

    def test_truncation_at_every_offset_rejected(self, tmp_path, los_scene):
        g = los_scene.grid  # two points
        tiny = dataclasses.replace(
            los_scene, grid=dataclasses.replace(g, extent=(2 * g.spacing, g.spacing))
        )
        path = tmp_path / "grid.npz"
        build_channel_grid(tiny, bs_ids=("rsu0",)).save(path)
        raw = path.read_bytes()
        assert ChannelGrid.load(path).scene.digest() == tiny.digest()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                ChannelGrid.load(path)


@st.composite
def grids_and_positions(draw, dyadic):
    """A small grid and positions within half a spacing of it; with
    ``dyadic`` every coordinate is a multiple of spacing/4, so distances
    are exact in float64 and midpoints tie exactly."""
    n_x, n_y = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    if dyadic:
        spacing = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))
        origin = [spacing * draw(st.integers(-8, 8)) for _ in range(2)]
    else:
        spacing = draw(st.floats(0.01, 10.0))
        origin = [draw(st.floats(-100.0, 100.0)) for _ in range(2)]

    def offsets(n):  # along one axis, in spacings from the origin
        if dyadic:
            return st.integers(-2, 4 * n - 2).map(lambda q: q / 4)
        return st.floats(-0.499, n - 0.501)

    grid = GridSpec(origin=tuple(origin), extent=(n_x * spacing, n_y * spacing), spacing=spacing)
    cols = [draw(st.lists(offsets(n), min_size=5, max_size=5)) for n in (n_x, n_y)]
    return grid, np.array(origin) + spacing * np.array(cols).T


class TestSnapToGrid:
    GRID = GridSpec(origin=(0.0, 0.0), extent=(2.0, 1.0), spacing=0.05)

    def test_exact_point_maps_to_itself(self):
        idx = snap_positions(self.GRID.point_at(33), self.GRID)
        assert idx.tolist() == [33]

    def test_midpoint_rule(self):
        # 0.024 past a point stays, 0.026 moves on; exact midpoint goes lower
        positions = [(0.024, 0.0), (0.026, 0.0)]
        assert snap_positions(positions, self.GRID).tolist() == [0, self.GRID.n_y]
        assert snap_positions((0.25, 0.0), GridSpec((0.0, 0.0), (2.0, 1.0), 0.5)).tolist() == [0]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        grid = GridSpec(origin=(-1.0, 2.0), extent=(1.5, 1.0), spacing=0.25)
        pts = grid.points()
        positions = np.column_stack(
            [
                rng.uniform(-1.0 - 0.124, -1.0 + 1.25 + 0.124, size=300),
                rng.uniform(2.0 - 0.124, 2.0 + 0.75 + 0.124, size=300),
            ]
        )
        for pos, idx in zip(positions, snap_positions(positions, grid)):
            d = np.linalg.norm(pts - pos, axis=1)
            assert idx == np.flatnonzero(d <= d.min() + 1e-12).min()

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            snap_positions((-0.5, 0.0), self.GRID)
        with pytest.raises(ValueError):
            snap_positions((0.0, 1.2), self.GRID)

    def test_half_spacing_overhang_accepted(self):
        assert snap_positions((-0.025, 0.0), self.GRID).tolist() == [0]

    @given(grids_and_positions(dyadic=True))
    @settings(max_examples=200, deadline=None)
    def test_property_exact_nearest_with_ties_to_lower_index(self, case):
        grid, positions = case
        pts = grid.points()
        for pos, idx in zip(positions, snap_positions(positions, grid)):
            d2 = np.sum((pts - pos) ** 2, axis=1)
            assert idx == np.flatnonzero(d2 == d2.min()).min()

    @given(grids_and_positions(dyadic=False))
    @settings(max_examples=200, deadline=None)
    def test_property_nearest_in_bounds(self, case):
        grid, positions = case
        pts = grid.points()
        for pos, idx in zip(positions, snap_positions(positions, grid)):
            assert 0 <= idx < grid.num_points
            d = np.linalg.norm(pts - pos, axis=1)
            assert d[idx] <= d.min() + 1e-9 * grid.spacing


class TestTrajectories:
    def test_constant_speed_displacement(self):
        traj = Trajectory(
            start=(0.0, 0.0),
            heading=0.0,
            initial_speed=10.0,
            acceleration=0.0,
            num_slots=101,
        )
        pos = traj.positions()
        assert pos[100, 0] == pytest.approx(1.0, abs=1e-12)
        assert pos[100, 1] == 0.0

    def test_closed_form_matches_stepwise_integration(self):
        traj = Trajectory(
            start=(3.0, 4.0),
            heading=0.7,
            initial_speed=12.0,
            acceleration=-2.5,
            num_slots=200,
        )
        pos = traj.positions()
        # independent per-slot kinematic accumulation
        direction = np.array([math.cos(0.7), math.sin(0.7)])
        p = np.array([3.0, 4.0])
        dt = traj.dt
        stepwise = [p.copy()]
        for k in range(199):
            v_k = 12.0 + (-2.5) * k * dt
            p = p + direction * (v_k * dt + 0.5 * (-2.5) * dt * dt)
            stepwise.append(p.copy())
        np.testing.assert_allclose(pos, np.array(stepwise), atol=1e-9)

    def test_sampled_speeds_within_bounds(self, los_scene):
        rng = np.random.default_rng(8)
        speeds, accels = [], []
        for _ in range(500):
            traj = sample_trajectory(los_scene, rng, num_slots=100)
            speeds.append(traj.initial_speed)
            accels.append(traj.acceleration)
        assert min(speeds) >= 10.0 and max(speeds) <= 15.0
        assert min(accels) >= -3.0 and max(accels) <= 3.0

    def test_sampled_path_stays_on_grid(self, los_scene):
        rng = np.random.default_rng(9)
        for _ in range(50):
            traj = sample_trajectory(los_scene, rng, num_slots=150)
            snap_positions(traj.positions(), los_scene.grid)  # raises if outside

    def test_impossible_fit_reports_failure(self):
        tiny = generate_scene(
            coarse_params(grid_extent=(1.0, 1.0), grid_spacing=0.5), seed=0
        )
        rng = np.random.default_rng(10)
        with pytest.raises(TrajectoryError):
            # 1 second at >=10 m/s cannot stay inside a 1 m grid
            sample_trajectory(tiny, rng, num_slots=1000, max_retries=50)
