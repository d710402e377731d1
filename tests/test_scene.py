"""Scene generation, path tracing, channel grid, snapping, trajectories."""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamseq import mobility
from beamseq.mobility import Trajectory, TrajectoryError, sample_trajectory
from beamseq.phy import ArrayGeometry, synthesize_channel
from beamseq.scene import (
    BaseStation,
    GridSpec,
    Scatterer,
    Scene,
    SceneParams,
    Wall,
    _trace_points,
    build_channel_grid,
    generate_scene,
    snap_positions,
)


def coarse_params(**overrides):
    kwargs = dict(grid_spacing=0.5)
    kwargs.update(overrides)
    return SceneParams(**kwargs)


@pytest.fixture(scope="module")
def los_scene():
    return replace(generate_scene(coarse_params(), seed=1), walls=(), scatterers=())


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

    @pytest.mark.parametrize("name", ["rich_scene", "los_scene"])
    def test_dict_json_round_trip(self, request, name):
        # the digest hashes the JSON of to_dict: every value in it is one that
        # JSON keeps exactly, tuples coming back as lists
        def listed(value):
            if isinstance(value, dict):
                return {key: listed(v) for key, v in value.items()}
            if isinstance(value, (tuple, list)):
                return [listed(v) for v in value]
            assert value is None or type(value) in (bool, int, float, str), value
            return value

        fields = request.getfixturevalue(name).to_dict()
        assert json.loads(json.dumps(fields)) == listed(fields)

    def test_params_set_only_the_spacing_and_the_rsu_axes(self):
        assert list(asdict(SceneParams())) == ["grid_spacing", "rsu_standoff", "rsu_antennas"]
        base = generate_scene(coarse_params(), seed=0)
        moved = generate_scene(coarse_params(rsu_standoff=8.0, rsu_antennas=16), seed=0)
        assert moved.station("rsu0").position == (-8.0, 5.0)
        assert moved.station("rsu1").position == (38.0, 5.0)
        for bs_id in ("rsu0", "rsu1"):
            assert moved.station(bs_id).geometry.num_antennas == 16
        assert moved.station("mbs") == base.station("mbs")
        assert (moved.walls, moved.scatterers) == (base.walls, base.scatterers)

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
        idx = rng.choice(len(pts), size=10, replace=False)
        for bs_id in ("rsu0", "rsu1", "mbs"):
            valid = _trace_points(los_scene, los_scene.station(bs_id), pts[idx])[3]
            assert valid.shape == (10, 1) and valid.all()

    def test_uncovered_grid_rejected(self):
        # RSUs pulled into the grid: corners fall behind the arrays
        with pytest.raises(ValueError, match="outside coverage"):
            generate_scene(coarse_params(rsu_standoff=-15.0), seed=0)

    def test_default_grid_point_count(self):
        # origin-inclusive, far-edge-exclusive: extent/spacing points per axis
        grid = GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.05)
        assert grid.n_x == 600
        assert grid.n_y == 200
        assert grid.num_points == 600 * 200


class TestTracePaths:
    """``_trace_points`` rows against geometric oracles; slot 0 is the line
    of sight, then one slot per wall, then one per scatterer."""

    def test_los_aod_matches_geometry(self, los_scene):
        bs = los_scene.station("rsu0")
        point = np.array([10.0, 7.0])
        gains, aods, aoas, valid = _trace_points(los_scene, bs, point[None])
        assert valid.tolist() == [[True]]
        expected_az = math.atan2(
            point[1] - bs.position[1], point[0] - bs.position[0]
        )
        expected_aod = math.asin(math.sin(expected_az - bs.boresight))
        assert aods[0, 0] == pytest.approx(expected_aod, abs=1e-12)
        assert aoas[0, 0] == pytest.approx(0.0, abs=1e-12)
        # free-space amplitude over the 3-D distance
        d3 = math.hypot(
            np.linalg.norm(point - np.asarray(bs.position)),
            bs.height - los_scene.rx_height,
        )
        lam = los_scene.wavelength_m
        assert abs(gains[0, 0]) == pytest.approx(lam / (4 * math.pi * d3), rel=1e-12)

    def test_reflected_path_matches_image_source_oracle(self, los_scene):
        # single full-width wall behind the road
        wall = Wall(a=(-2.0, 12.0), b=(32.0, 12.0), height=6.0, reflection_loss_db=6.5)
        scene = replace(los_scene, walls=(wall,))
        bs = scene.station("rsu0")
        point = np.array([12.0, 4.0])
        gains, aods, _, valid = _trace_points(scene, bs, point[None])
        assert valid.tolist() == [[True, True]]  # LoS + one reflection
        wall_y = wall.a[1]
        image = np.array([bs.position[0], 2 * wall_y - bs.position[1]])
        plan = float(np.linalg.norm(point - image))
        d3 = math.hypot(plan, bs.height - scene.rx_height)
        lam = scene.wavelength_m
        expected_amp = lam / (4 * math.pi * d3) * 10 ** (-wall.reflection_loss_db / 20)
        assert abs(gains[0, 1]) == pytest.approx(expected_amp, rel=1e-12)
        expected_phase = (-2 * math.pi * d3 / lam) % (2 * math.pi)
        assert np.angle(gains[0, 1]) % (2 * math.pi) == pytest.approx(
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
        assert aods[0, 1] == pytest.approx(expected_aod, abs=1e-12)

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
        points = [[10.0, 4.0], [20.0, 4.0]]
        gains, aods, _, valid = _trace_points(scene, scene.station("bs"), points)
        assert valid.shape == (2, 2) and valid.all()
        np.testing.assert_allclose(aods[0], -aods[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(gains[0]), np.abs(gains[1]), rtol=1e-12)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_property_mirrored_points_have_symmetric_aods(self, data):
        # BS on the axis x = 15 looking up (+y), a wall above the grid that
        # every reflection point falls on and no ray clears, and scatterers
        # in mirrored pairs away from the grid; the point at 15 - dx mirrors
        # the one at 15 + dx, so its scatterer 2k mirrors scatterer 2k + 1.
        # The grid's outermost points are x = 0, 30 and y = 0, 10, so every
        # drawn point is in the grid.
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
            grid=GridSpec(origin=(0.0, 0.0), extent=(30.5, 10.5), spacing=0.5),
            seed=0,
        )
        dx, y = data.draw(st.floats(0.0, 15.0)), data.draw(st.floats(0.0, 10.0))
        gains, aods, _, valid = _trace_points(
            scene, scene.station("bs"), [[15.0 - dx, y], [15.0 + dx, y]]
        )
        assert valid.shape == (2, 2 + len(scatterers)) and valid.all()
        mirror = [0, 1] + [2 + (k ^ 1) for k in range(len(scatterers))]
        np.testing.assert_allclose(aods[0], -aods[1, mirror], rtol=0, atol=1e-12)
        np.testing.assert_allclose(np.abs(gains[0]), np.abs(gains[1, mirror]), rtol=1e-12)

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
        assert not _trace_points(scene, scene.station("bs"), [[15.0, 5.0]])[3].any()


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
        idx = snap_positions(self.GRID.points()[33], self.GRID)
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
        for bad in ([np.nan, 0.3], [0.3, np.nan], [np.inf, 0.3]):
            with pytest.raises(ValueError, match="outside grid"):
                snap_positions([bad], self.GRID)

    def test_half_spacing_overhang_accepted(self):
        assert snap_positions((-0.025, 0.0), self.GRID).tolist() == [0]

    @pytest.mark.parametrize("axis", [0, 1])
    def test_overhang_rule_at_every_edge(self, los_scene, axis):
        # up to half a spacing beyond the outermost grid points snaps to
        # them, at either edge; one spacing beyond is rejected
        grid = los_scene.grid
        spacing = grid.spacing
        first = np.asarray(grid.origin, dtype=float)
        last = first + spacing * (np.array([grid.n_x, grid.n_y]) - 1)
        inside = (first + last) / 2
        for edge, outward in ((last, 1.0), (first, -1.0)):
            near, far = inside.copy(), inside.copy()
            near[axis] = edge[axis] + outward * 0.49 * spacing
            far[axis] = edge[axis] + outward * spacing
            (idx,) = snap_positions(near, grid)
            assert grid.points()[idx][axis] == pytest.approx(edge[axis])
            with pytest.raises(ValueError, match="outside grid"):
                snap_positions(far, grid)

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
        dt = mobility.SLOT_SECONDS
        stepwise = [p.copy()]
        for k in range(199):
            v_k = 12.0 + (-2.5) * k * dt
            p = p + direction * (v_k * dt + 0.5 * (-2.5) * dt * dt)
            stepwise.append(p.copy())
        np.testing.assert_allclose(pos, np.array(stepwise), atol=1e-9, rtol=0)

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

    def test_impossible_fit_reports_failure(self, monkeypatch):
        tiny = replace(
            generate_scene(coarse_params(), seed=0), grid=GridSpec((0.0, 0.0), (1.0, 1.0), 0.5)
        )
        rng = np.random.default_rng(10)
        monkeypatch.setattr(mobility, "MAX_RETRIES", 50)
        with pytest.raises(TrajectoryError, match="after 50 retries"):
            # 1 second at >=10 m/s cannot stay inside a 1 m grid
            sample_trajectory(tiny, rng, num_slots=1000)
