"""Scene generation, path tracing, channel grid, snapping, trajectories."""

import json
import math
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from beamseq import mobility, phy, scene as scene_module
from beamseq.mobility import TrajectoryError, sample_trajectories, sample_trajectory
from beamseq.phy import ArrayGeometry, synthesize_channel, synthesize_channels
from beamseq.scene import (
    BaseStation,
    GridSpec,
    Scatterer,
    Scene,
    SceneParams,
    Wall,
    _blocked,
    _crossing,
    _reflect_point,
    _trace_points,
    build_channel_grid,
    generate_scene,
    snap_positions,
)
from oracles import looped_trajectory, unculled_blocked


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


    @staticmethod
    def arctan_aoa(point, last_bounce, bs_pos):
        """The AoA as azimuth differences: the arrival azimuth less the
        azimuth toward the BS, wrapped into [-pi, pi) and folded."""
        arr = math.atan2(last_bounce[1] - point[1], last_bounce[0] - point[0])
        to_bs = math.atan2(bs_pos[1] - point[1], bs_pos[0] - point[0])
        return math.asin(math.sin((arr - to_bs + math.pi) % (2 * math.pi) - math.pi))

    @staticmethod
    def reflection_points(bs_pos, points, wall):
        """Where each point's reflection off the wall's line bounces, formed
        as ``_trace_points`` forms it, so that only the AoA formula differs."""
        image = _reflect_point(bs_pos, wall)
        a, e = np.asarray(wall.a), np.subtract(wall.b, wall.a)
        _, u, _ = _crossing(a - image, points - image, e)
        return a + u[:, None] * e

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_aoa_matches_azimuth_difference(self, data):
        # a BS below the grid, a sloped wall beyond it and scatterers on
        # both sides. The AoA is 0 on the direct path. Elsewhere its sine is
        # the azimuth difference's to 4e-15, and the angle is within 1e-12
        # more than 5e-3 rad from endfire; nearer, the arcsine's slope turns
        # rounding of the sine into larger angle errors
        coord = st.floats
        bs_pos = np.array([data.draw(coord(-10.0, 40.0)), data.draw(coord(-25.0, -2.0))])
        y0, y1 = data.draw(coord(11.0, 16.0)), data.draw(coord(11.0, 16.0))
        wall = Wall(a=(-5.0, y0), b=(35.0, y1), height=40.0, reflection_loss_db=3.0)
        scatter_y = st.one_of(coord(-4.0, -0.5), coord(10.2, 10.9))
        scatterers = tuple(
            Scatterer((data.draw(coord(-5.0, 35.0)), data.draw(scatter_y)),
                      data.draw(coord(1.0, 4.0)), -15.0)
            for _ in range(data.draw(st.integers(1, 4)))
        )
        bs = BaseStation("bs", tuple(bs_pos), data.draw(coord(3.0, 25.0)), math.pi / 2,
                         ArrayGeometry(num_antennas=8))
        scene = Scene(28e9, 1.5, {"bs": bs}, (wall,), scatterers,
                      GridSpec(origin=(0.0, 0.0), extent=(30.0, 10.0), spacing=0.5), seed=0)
        points = np.array(data.draw(st.lists(st.tuples(coord(0.0, 29.5), coord(0.0, 9.5)),
                                             min_size=1, max_size=8)))
        _, _, aoas, valid = _trace_points(scene, bs, points)
        assert not aoas[:, 0].tobytes().strip(b"\0")
        reflections = self.reflection_points(bs_pos, points, wall)
        for i, point in enumerate(points):
            bounces = [reflections[i], *(np.asarray(q.position) for q in scatterers)]
            for slot, bounce in enumerate(bounces, start=1):
                if not valid[i, slot]:
                    continue
                want = self.arctan_aoa(point, bounce, bs_pos)
                assert abs(math.sin(aoas[i, slot]) - math.sin(want)) <= 4e-15
                if abs(want) <= math.pi / 2 - 5e-3:
                    assert aoas[i, slot] == pytest.approx(want, rel=0, abs=1e-12)

    @pytest.mark.parametrize("which", ["occluded", "rich"])
    def test_direct_path_arrives_at_exactly_zero(self, which, occluded_scene, rich_scene):
        scene = occluded_scene if which == "occluded" else rich_scene
        for bs_id in scene.stations:
            _, _, aoas, valid = _trace_points(scene, scene.station(bs_id), scene.grid.points())
            assert valid[:, 0].any()
            assert not aoas[:, 0].tobytes().strip(b"\0")  # +0.0, every byte zero


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


def _walls_and_segments(data):
    """Walls, then segments p1 -> p2 whose ends are free points, points on
    a wall's line (inside or beyond the wall) or, for p2, p1 moved parallel
    to a wall; p1 may be one point shared by every segment."""
    coord = st.floats(-30.0, 30.0)
    walls = []
    for _ in range(data.draw(st.integers(1, 3), label="walls")):
        a = (data.draw(coord), data.draw(coord))
        level = data.draw(st.booleans(), label="level")
        b = (data.draw(coord), a[1] if level else data.draw(coord))
        walls.append(Wall(a=a, b=b, height=data.draw(st.floats(0.5, 10.0)), reflection_loss_db=3.0))

    def along(wall, s):
        a, b = np.asarray(wall.a), np.asarray(wall.b)
        return a + s * (b - a)

    def point(start=None):
        kinds = ["free", "on a wall line"] + (["parallel"] if start is not None else [])
        kind = data.draw(st.sampled_from(kinds))
        if kind == "free":
            return np.array([data.draw(coord), data.draw(coord)])
        wall = data.draw(st.sampled_from(walls))
        if kind == "on a wall line":
            return along(wall, data.draw(st.floats(-1.0, 2.0)))
        return start + along(wall, data.draw(st.floats(-2.0, 2.0))) - np.asarray(wall.a)

    m = data.draw(st.integers(1, 6), label="segments")
    if data.draw(st.booleans(), label="one p1"):
        p1 = point()
        p2 = np.array([point(p1) for _ in range(m)])
    else:
        p1 = np.array([point() for _ in range(m)])
        p2 = np.array([point(p) for p in p1])

    def heights():
        if data.draw(st.booleans(), label="one height"):
            return data.draw(st.floats(0.0, 12.0))
        return np.array([data.draw(st.floats(0.0, 12.0)) for _ in range(m)])

    return tuple(walls), p1, heights(), p2, heights()


def _exact_hit(p1, p2, wall) -> bool:
    """The segment p1 -> p2 meets the wall by the hit test of ``_blocked``
    (slack 1e-9 in t and u), solved in exact rationals on the float inputs."""
    p1, p2, a, b = ([Fraction(float(v)) for v in pt] for pt in (p1, p2, wall.a, wall.b))
    d = (p2[0] - p1[0], p2[1] - p1[1])
    e = (b[0] - a[0], b[1] - a[1])
    rel = (a[0] - p1[0], a[1] - p1[1])
    denom = d[0] * e[1] - d[1] * e[0]
    if denom == 0:
        return False
    t = (rel[0] * e[1] - rel[1] * e[0]) / denom
    u = (rel[0] * d[1] - rel[1] * d[0]) / denom
    slack = Fraction(1e-9)
    return slack < t < 1 - slack and -slack <= u <= 1 + slack


class TestWallCulling:
    """``_blocked`` skips the walls whose padded box misses its segments'
    box; the result equals the unculled test's."""

    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_property_culling_is_exact(self, data):
        walls, p1, h1, p2, h2 = _walls_and_segments(data)
        skip = data.draw(st.integers(-1, len(walls) - 1), label="skip")
        got = _blocked(p1, h1, p2, h2, walls, skip)
        want = unculled_blocked(p1, h1, p2, h2, walls, skip)
        np.testing.assert_array_equal(got, want)

    def test_collinear_segment_beyond_a_sloped_wall(self):
        # p1 lies on the wall's line past its end b and p2 = p1 + 1.81 (b - a):
        # the segment never meets the wall. Its crossing denominator is
        # -1.8e-12 of rounding, under the solve's bound of 1e-12 |d| |e|
        # (9.4e-9 here), so neither test reports a crossing.
        wall = Wall(a=(22.837471925036162, 25.491716398848382),
                    b=(-25.172898483016574, -28.420094324899566), height=10.0,
                    reflection_loss_db=3.0)
        p1 = (-28.756323549294926, -32.443994417191476)
        p2 = [(-115.72643156250362, -130.10447822478127)]
        assert not _exact_hit(p1, p2[0], wall)
        assert unculled_blocked(p1, 0.0, p2, 0.0, (wall,)).tolist() == [False]
        assert _blocked(p1, 0.0, p2, 0.0, (wall,)).tolist() == [False]

    def test_collinear_segment_whose_box_meets_a_sloped_wall(self):
        # p1 lies on the wall's line 3e-9 of the wall's length past its end b
        # (1.5e-7 m), within the culling pad, so both tests solve. Solved in
        # exact rationals on the same floats, the segment does not cross the
        # wall; an absolute 1e-12 bound on d × e took its rounding for a
        # crossing.
        wall = Wall(a=(-26.610476078754527, -26.936865692038474),
                    b=(23.17793157655963, 17.936710743304594), height=10.0,
                    reflection_loss_db=3.0)
        p1 = (23.17793172592486, 17.93671087792532)
        p2 = [(56.97644665760953, 48.39882675212433)]
        assert not _exact_hit(p1, p2[0], wall)
        assert unculled_blocked(p1, 0.0, p2, 0.0, (wall,)).tolist() == [False]
        assert _blocked(p1, 0.0, p2, 0.0, (wall,)).tolist() == [False]

    @pytest.mark.parametrize("which", ["occluded", "rich"])
    def test_path_tables_equal_those_traced_without_culling(self, which, occluded_scene,
                                                             rich_scene, monkeypatch):
        scene = occluded_scene if which == "occluded" else rich_scene
        for bs_id in scene.stations:
            traced = _trace_points(scene, scene.station(bs_id), scene.grid.points())
            with monkeypatch.context() as patch:
                patch.setattr(scene_module, "_CULL_PAD", np.inf)  # every box meets every wall
                unculled = _trace_points(scene, scene.station(bs_id), scene.grid.points())
            for got, want in zip(traced, unculled):
                assert got.tobytes() == want.tobytes()

    def test_generated_scene_solves_only_the_reflection_legs(self, rich_scene, monkeypatch):
        # every wall lies beyond every grid point, BS and scatterer: the
        # direct paths and the scatterer legs never reach the crossing solve
        solves = []
        crossing = scene_module._crossing
        monkeypatch.setattr(scene_module, "_crossing",
                            lambda *args: solves.append(1) or crossing(*args))
        points = rich_scene.grid.points()
        for bs in rich_scene.stations.values():
            for end, height in [(points, rich_scene.rx_height),
                                *((q.position, q.height) for q in rich_scene.scatterers)]:
                assert not _blocked(bs.position, bs.height, end, height, rich_scene.walls).any()
            for q in rich_scene.scatterers:
                _blocked(q.position, q.height, points, rich_scene.rx_height, rich_scene.walls)
        assert not solves
        n_walls = len(rich_scene.walls)
        _trace_points(rich_scene, rich_scene.station("mbs"), points)
        # an image solve per wall, then each leg against the other walls
        assert 0 < len(solves) <= n_walls + 2 * n_walls * (n_walls - 1)


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

    @staticmethod
    def synthesis_chunks(scene, bs):
        """Traced rows of ``bs``: the first 1001 grid points, and a chunk in
        which a wall slot that varies over the grid has exactly one live
        point, so that one call classifies it as shared."""
        gains, aods, _, valid = _trace_points(scene, bs, scene.grid.points())
        chunks = [(gains[:1001], aods[:1001])]
        for slot in range(1, 1 + len(scene.walls)):
            lit = np.flatnonzero(valid[:, slot])
            if np.unique(aods[lit, slot]).size > 1:
                rows = np.concatenate([lit[:1], np.flatnonzero(~valid[:, slot])[:600]])
                chunks.append((gains[rows], aods[rows]))
        assert len(chunks) > 1
        return chunks

    @pytest.mark.parametrize("bs_id", ["rsu1", "mbs"])
    def test_blocked_synthesis_is_byte_equal_to_one_block(self, rich_scene, bs_id, monkeypatch):
        geometry = rich_scene.station(bs_id).geometry
        n = geometry.num_antennas
        block_rows = phy._BLOCK_BYTES // (16 * n)
        for gains, aods in self.synthesis_chunks(rich_scene, rich_scene.station(bs_id)):
            rows = gains.shape[0]
            assert rows % block_rows
            allocated = synthesize_channels(gains, aods, geometry)
            table = np.full((rows + 3, n), np.nan, dtype=np.complex128)
            out = table[2:-1]
            assert synthesize_channels(gains, aods, geometry, out=out) is out
            assert out.tobytes() == allocated.tobytes()
            assert np.isnan(table[[0, 1, -1]]).all()  # rows outside ``out`` untouched
            # blocks of at most 5 or 7 rows, or one block
            for block_bytes in (16 * n * 5, 16 * n * 7, 1 << 60):
                with monkeypatch.context() as patch:
                    patch.setattr(phy, "_BLOCK_BYTES", block_bytes)
                    blocked = synthesize_channels(gains, aods, geometry)
                assert blocked.tobytes() == allocated.tobytes()
            i = np.arange(n)
            phase = -2 * np.pi * geometry.spacing_wavelengths * i * np.sin(aods[..., None])
            want = np.einsum("mp,mpn->mn", gains, np.exp(1j * phase))
            err = np.linalg.norm(allocated - want, axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(want, axis=1))

    @pytest.mark.parametrize("make_out", [
        lambda rows, n: np.empty((rows, n + 1), dtype=np.complex128),
        lambda rows, n: np.empty((rows, n), dtype=np.complex64),
        lambda rows, n: np.empty((rows, 2 * n), dtype=np.complex128)[:, ::2],
        lambda rows, n: np.broadcast_to(np.zeros(n, dtype=np.complex128), (rows, n)),
        lambda rows, n: np.empty((rows, n), dtype=np.complex128).tolist(),
    ], ids=["shape", "dtype", "strided", "read-only", "list"])
    def test_unusable_out_rejected(self, rich_scene, make_out):
        geometry = rich_scene.station("rsu0").geometry
        gains, aods, _, _ = _trace_points(rich_scene, rich_scene.station("rsu0"),
                                          rich_scene.grid.points()[:9])
        with pytest.raises(ValueError, match="out must be"):
            synthesize_channels(gains, aods, geometry, out=make_out(9, geometry.num_antennas))

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
        # draw row: start x, start y, heading, initial speed, acceleration
        pos = mobility._positions(np.array([[0.0, 0.0, 0.0, 10.0, 0.0]]), 101)[0]
        assert pos[100, 0] == pytest.approx(1.0, abs=1e-12)
        assert pos[100, 1] == 0.0

    def test_closed_form_matches_stepwise_integration(self):
        pos = mobility._positions(np.array([[3.0, 4.0, 0.7, 12.0, -2.5]]), 200)[0]
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
            draw, _ = sample_trajectory(los_scene, rng, num_slots=100)
            speeds.append(draw[3])
            accels.append(draw[4])
        assert min(speeds) >= 10.0 and max(speeds) <= 15.0
        assert min(accels) >= -3.0 and max(accels) <= 3.0

    def test_sampled_path_stays_on_grid(self, los_scene):
        rng = np.random.default_rng(9)
        for _ in range(50):
            _, positions = sample_trajectory(los_scene, rng, num_slots=150)
            snap_positions(positions, los_scene.grid)  # raises if outside

    @staticmethod
    def generators(seed, count):
        return [np.random.default_rng(np.random.SeedSequence([seed, 2, i])) for i in range(count)]

    @pytest.mark.parametrize("slots", [100, 900])
    def test_batched_draw_equals_the_looped_draw(self, rich_scene, slots):
        count = 40
        draws, positions = sample_trajectories(rich_scene, self.generators(4, count), slots)
        assert positions.shape == (count, slots, 2) and draws.shape == (count, 5)
        attempts = []
        for rng, want in zip(self.generators(4, count), positions):
            looped, tries = looped_trajectory(rich_scene.grid, rng, slots, mobility.MAX_RETRIES)
            assert want.tobytes() == looped.tobytes()
            attempts.append(tries)
        assert max(attempts) > 1  # some trajectories retried
        # the one-generator call returns row i's draw and positions, byte for byte
        for rng, want_draw, want in zip(self.generators(4, count), draws, positions):
            draw, got = sample_trajectory(rich_scene, rng, slots)
            assert draw.shape == (5,) and got.shape == (slots, 2)
            assert draw.tobytes() == want_draw.tobytes()
            assert got.tobytes() == want.tobytes()

    def test_batched_draw_gives_up_after_max_retries(self, monkeypatch):
        tiny = replace(
            generate_scene(coarse_params(), seed=0), grid=GridSpec((0.0, 0.0), (1.0, 1.0), 0.5)
        )
        monkeypatch.setattr(mobility, "MAX_RETRIES", 30)
        rngs = self.generators(6, 3)
        with pytest.raises(TrajectoryError, match="3 of 3 trajectories .* after 30 retries"):
            sample_trajectories(tiny, rngs, 1000)
        # each generator drew its five values 30 times, no more
        for rng, fresh in zip(rngs, self.generators(6, 3)):
            fresh.random(5 * 30)
            assert rng.random() == fresh.random()

    def test_impossible_fit_reports_failure(self, monkeypatch):
        tiny = replace(
            generate_scene(coarse_params(), seed=0), grid=GridSpec((0.0, 0.0), (1.0, 1.0), 0.5)
        )
        rng = np.random.default_rng(10)
        monkeypatch.setattr(mobility, "MAX_RETRIES", 50)
        with pytest.raises(TrajectoryError, match="after 50 retries"):
            # 1 second at >=10 m/s cannot stay inside a 1 m grid
            sample_trajectory(tiny, rng, num_slots=1000)
