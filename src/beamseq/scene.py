"""Synthetic V2I scene: base stations around a receiver grid, reflector walls,
point scatterers, and an image-source multipath tracer feeding the channel
synthesis.

``generate_scene`` lays out one deployment: two RSUs flanking the grid, one MBS
covering both, road-side reflector walls and scatterers, with the seed drawing
the wall segments and scatterers. The module constants fix the layout;
``SceneParams`` sets only the grid spacing, the RSU stand-off and the RSU
antenna count.

Geometry conventions:

* the ground plane is 2-D (x, y) in meters; heights are carried separately
  and enter path lengths, gains, and wall blockage only;
* every BS array is a horizontal ULA facing a boresight azimuth; departure
  angles are measured against that boresight and folded into [-pi/2, pi/2]
  (front/back ambiguity of a ULA);
* arrival angles use the receiver-to-serving-BS direction as the reference, so
  the direct path always arrives at 0;
* walls are vertical segments with a height: a ray is blocked only when it
  crosses the segment in plan view below the wall top.

``build_channel_grid`` is the one concurrent function: the grid chunks of one
BS run on the caller's thread plus up to cpus - 1 pool workers, and every
table is byte-identical to a one-thread build. The workers call only
``_trace_points`` and ``synthesize_channels``, never a function that
``perfbench/tracer.py`` wraps, since the tracer keeps one span stack and is
not thread-safe.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np

from .phy import SPEED_OF_LIGHT, ArrayGeometry, PathComponent, synthesize_channels

__all__ = [
    "Wall",
    "Scatterer",
    "BaseStation",
    "GridSpec",
    "Scene",
    "SceneParams",
    "generate_scene",
    "ChannelGrid",
    "build_channel_grid",
    "snap_positions",
]

_EPS = 1e-12
# what ``_blocked`` grows a wall's box by before culling it (m): a thousand
# times the hit test's 1e-9 slack
_CULL_PAD = 1e-6
# grid points traced and synthesized at a time by ``build_channel_grid``
_CHUNK = 8192
# sub-stream tags for seed derivation
_TAG_SCENE = 1


@dataclass(frozen=True)
class Wall:
    """Vertical reflector segment from a to b with a specular loss."""

    a: tuple[float, float]
    b: tuple[float, float]
    height: float
    reflection_loss_db: float


@dataclass(frozen=True)
class Scatterer:
    """Point scatterer re-radiating with a fixed gain relative to free space."""

    position: tuple[float, float]
    height: float
    gain_db: float


@dataclass(frozen=True)
class BaseStation:
    bs_id: str
    position: tuple[float, float]
    height: float
    boresight: float  # azimuth of the array normal, radians
    geometry: ArrayGeometry


@dataclass(frozen=True)
class GridSpec:
    """Receiver sampling grid: origin-inclusive, ``extent/spacing`` points per
    axis, so the far edge is exclusive. Flat index = ix * n_y + iy."""

    origin: tuple[float, float]
    extent: tuple[float, float]
    spacing: float

    def __post_init__(self) -> None:
        if not (self.spacing > 0):
            raise ValueError("grid spacing must be > 0")
        if not (self.extent[0] > 0 and self.extent[1] > 0):
            raise ValueError("grid extent must be positive")

    @property
    def n_x(self) -> int:
        return int(round(self.extent[0] / self.spacing))

    @property
    def n_y(self) -> int:
        return int(round(self.extent[1] / self.spacing))

    @property
    def num_points(self) -> int:
        return self.n_x * self.n_y

    def points(self) -> np.ndarray:
        """All grid points as an (n_x * n_y, 2) array in flat-index order."""
        xs = self.origin[0] + self.spacing * np.arange(self.n_x)
        ys = self.origin[1] + self.spacing * np.arange(self.n_y)
        out = np.empty((self.n_x * self.n_y, 2))
        out[:, 0] = np.repeat(xs, self.n_y)
        out[:, 1] = np.tile(ys, self.n_x)
        return out


@dataclass(frozen=True)
class Scene:
    carrier_hz: float
    rx_height: float
    stations: dict[str, BaseStation]
    walls: tuple[Wall, ...]
    scatterers: tuple[Scatterer, ...]
    grid: GridSpec
    seed: int

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT / self.carrier_hz

    def station(self, bs_id: str) -> BaseStation:
        if bs_id not in self.stations:
            raise KeyError(f"unknown base station {bs_id!r}, have {sorted(self.stations)}")
        return self.stations[bs_id]

    def to_dict(self) -> dict:
        """The fields as JSON-ready values; a station flattens its geometry."""
        stations = {
            sid: {"position": bs.position, "height": bs.height, "boresight": bs.boresight,
                  "num_antennas": bs.geometry.num_antennas,
                  "spacing_wavelengths": bs.geometry.spacing_wavelengths}
            for sid, bs in sorted(self.stations.items())
        }
        return {**asdict(self), "stations": stations}

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


# the fixed layout of ``generate_scene``
CARRIER_HZ = 28e9
GRID_ORIGIN = (0.0, 0.0)
GRID_EXTENT = (30.0, 10.0)  # along road x across road
RX_HEIGHT = 1.5
RSU_HEIGHT = 3.0
MBS_HEIGHT = 22.0
MBS_ANTENNAS = 128
ANTENNA_SPACING_WAVELENGTHS = 0.5
MBS_OFFSET = 20.0  # lateral distance from the near grid edge
NUM_REFLECTORS = 2
NUM_SCATTERERS = 12
WALL_SETBACK = 2.0  # walls sit this far beyond the far grid edge
WALL_HEIGHT = 6.0
REFLECTION_LOSS_DB = (3.0, 10.0)
SCATTERER_GAIN_DB = (-25.0, -12.0)


@dataclass
class SceneParams:
    """The settable part of the layout: the receiver grid's spacing, and both
    RSUs' antenna count and distance beyond each grid end along the road."""

    grid_spacing: float = 0.05
    rsu_standoff: float = 5.0
    rsu_antennas: int = 32


def generate_scene(params: SceneParams, seed: int) -> Scene:
    """Deterministic scene from (params, seed): fixed station layout, seeded
    wall segmentation and scatterer placement."""
    ox, oy = GRID_ORIGIN
    ex, ey = GRID_EXTENT
    grid = GridSpec(origin=GRID_ORIGIN, extent=GRID_EXTENT, spacing=params.grid_spacing)
    center = np.array([ox + ex / 2.0, oy + ey / 2.0])
    road_y = oy + ey / 2.0

    def station(bs_id, pos, height, n_ant):
        pos = np.asarray(pos, dtype=float)
        boresight = math.atan2(center[1] - pos[1], center[0] - pos[0])
        return BaseStation(
            bs_id=bs_id,
            position=(float(pos[0]), float(pos[1])),
            height=height,
            boresight=boresight,
            geometry=ArrayGeometry(
                num_antennas=n_ant, spacing_wavelengths=ANTENNA_SPACING_WAVELENGTHS
            ),
        )

    stations = {
        "rsu0": station("rsu0", (ox - params.rsu_standoff, road_y), RSU_HEIGHT, params.rsu_antennas),
        "rsu1": station("rsu1", (ox + ex + params.rsu_standoff, road_y), RSU_HEIGHT, params.rsu_antennas),
        "mbs": station("mbs", (ox + ex / 2.0, oy - MBS_OFFSET), MBS_HEIGHT, MBS_ANTENNAS),
    }

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _TAG_SCENE]))

    # far-side facade broken into NUM_REFLECTORS jittered segments
    walls = []
    wall_y = oy + ey + WALL_SETBACK
    span_lo, span_hi = ox - 2.0, ox + ex + 2.0
    slot = (span_hi - span_lo) / NUM_REFLECTORS
    for i in range(NUM_REFLECTORS):
        x0 = span_lo + i * slot + rng.uniform(0.0, 0.15 * slot)
        length = slot * rng.uniform(0.55, 0.8)
        loss = rng.uniform(*REFLECTION_LOSS_DB)
        walls.append(
            Wall(
                a=(float(x0), float(wall_y)),
                b=(float(x0 + length), float(wall_y)),
                height=WALL_HEIGHT,
                reflection_loss_db=float(loss),
            )
        )

    # scatterers alternate between a near-side and a far-side band, both
    # clear of the walls so they stay illuminated
    scatterers = []
    near_band = (oy - 3.5, oy - 0.5)
    far_band = (oy + ey + 0.6, oy + ey + WALL_SETBACK - 0.2)
    for i in range(NUM_SCATTERERS):
        x = rng.uniform(ox - 2.0, ox + ex + 2.0)
        band = near_band if i % 2 == 0 else far_band
        y = rng.uniform(*band)
        height = rng.uniform(1.0, 4.0)
        gain_db = rng.uniform(*SCATTERER_GAIN_DB)
        scatterers.append(
            Scatterer(position=(float(x), float(y)), height=float(height), gain_db=float(gain_db))
        )

    scene = Scene(
        carrier_hz=CARRIER_HZ,
        rx_height=RX_HEIGHT,
        stations=stations,
        walls=tuple(walls),
        scatterers=tuple(scatterers),
        grid=grid,
        seed=int(seed),
    )
    _check_coverage(scene)
    return scene


def _check_coverage(scene: Scene) -> None:
    """Every grid corner must sit in the front half-plane of every array."""
    ox, oy = scene.grid.origin
    ex, ey = scene.grid.extent
    corners = np.array([[ox, oy], [ox + ex, oy], [ox, oy + ey], [ox + ex, oy + ey]])
    for bs in scene.stations.values():
        rel = corners - np.asarray(bs.position)
        az = _wrap(np.arctan2(rel[:, 1], rel[:, 0]) - bs.boresight)
        if np.any(np.abs(az) >= np.pi / 2):
            raise ValueError(
                f"grid outside coverage of {bs.bs_id}: corner azimuth beyond +-90 deg of boresight"
            )


# ---------------------------------------------------------------------------
# geometry helpers


def _fold(angle):
    """Fold an azimuth into [-pi/2, pi/2] via the ULA front/back ambiguity
    (preserves sin)."""
    return np.arcsin(np.sin(angle))


def _wrap(angle):
    return (angle + np.pi) % (2 * np.pi) - np.pi


def _crossing(rel, d, e):
    """(t, u, safe) solving p + t*d = a + u*e, given rel = a - p and (2,) or
    (M, 2) rel, d; t and u are finite but meaningless where ``safe`` is False:
    the segment is parallel to the wall, |d × e| <= 1e-12 |d| |e|. The bound
    scales with |d| |e| as the rounding of d × e does, so a segment parallel
    to a wall up to rounding counts as parallel at any length."""
    denom = d[..., 0] * e[1] - d[..., 1] * e[0]
    bound = d[..., 0] * d[..., 0]  # (1e-12 |d| |e|)², without a square root
    bound += d[..., 1] * d[..., 1]
    bound *= _EPS * _EPS * (e[0] * e[0] + e[1] * e[1])
    safe = denom * denom > bound
    denom = np.where(safe, denom, 1.0)
    t = (rel[..., 0] * e[1] - rel[..., 1] * e[0]) / denom
    u = (rel[..., 0] * d[..., 1] - rel[..., 1] * d[..., 0]) / denom
    return t, u, safe


def _box(*points) -> np.ndarray:
    """(2, 2) corners [lo, hi] of the smallest axis-aligned box holding every
    (x, y) row of the (..., 2) arrays ``points``; a box is such an array, so
    ``_box(box, p)`` grows ``box`` to hold ``p``."""
    return np.array([[min(np.min(p[..., k]) for p in points) for k in (0, 1)],
                     [max(np.max(p[..., k]) for p in points) for k in (0, 1)]])


def _blocked(p1, h1, p2, h2, walls: tuple[Wall, ...], skip: int = -1, box=None) -> np.ndarray:
    """Which of the segments p1[i] -> p2[i] cross a wall below its top.

    p1, p2: (M, 2) or (2,); h1, h2: scalar or (M,). Wall ``skip`` is ignored
    (a reflected leg never re-crosses its own wall).

    Walls are culled before the crossing solve: a wall whose box, grown by
    ``_CULL_PAD`` on every side, misses ``box`` (the ``_box`` of every p1 and
    p2, computed here when not given) is not solved against. A crossing the
    solve reports lies on the segment and, within its 1e-9 slack in the
    wall parameter, on the wall: inside both boxes but for that slack and
    the solve's rounding, which the pad covers for walls under 100 m and
    segments more than ~1e-8 rad from parallel to the wall. There culling
    leaves the result unchanged. A segment parallel to a wall to rounding,
    level, upright or sloped, never crosses it (see ``_crossing``).
    """
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p2 = np.atleast_2d(np.asarray(p2, dtype=float))
    m = max(p1.shape[0], p2.shape[0])
    if box is None:
        box = _box(p1, p2)
    d = p2 - p1  # broadcasts
    blocked = np.zeros(m, dtype=bool)
    for w_idx, wall in enumerate(walls):
        a, b = np.asarray(wall.a), np.asarray(wall.b)
        if (w_idx == skip or np.any(np.minimum(a, b) - _CULL_PAD > box[1])
                or np.any(np.maximum(a, b) + _CULL_PAD < box[0])):
            continue
        t, u, safe = _crossing(a - p1, d, b - a)
        hit = safe & (t > 1e-9) & (t < 1.0 - 1e-9) & (u >= -1e-9) & (u <= 1.0 + 1e-9)
        ray_height = h1 + t * (np.asarray(h2) - h1)
        blocked |= hit & (ray_height < wall.height)
    return blocked


def _reflect_point(p: np.ndarray, wall: Wall) -> np.ndarray | None:
    """Mirror image of p across the wall's supporting line (None if degenerate)."""
    a = np.asarray(wall.a, dtype=float)
    e = np.asarray(wall.b, dtype=float) - a
    ee = float(e @ e)
    if ee < _EPS:
        return None
    proj = a + ((p - a) @ e) / ee * e
    return 2.0 * proj - p


# ---------------------------------------------------------------------------
# path tracing


def _trace_points(scene: Scene, bs: BaseStation, points: np.ndarray, out=None):
    """Trace all path slots for ``points`` (M, 2).

    Returns (gains, aods, aoas, valid), each (M, P) with the fixed slot layout
    [LoS, one per wall, one per scatterer]. Invalid slots carry zero gain and
    zero angles. The tables are ``out`` when given, four arrays of those
    shapes and dtypes (complex128, float64, float64, bool), such as row
    ranges of larger tables, zeroed here; otherwise new arrays.

    The blockage tests are handed the box of the points, taken once, grown to
    hold each leg's other end, so that ``_blocked`` skips every wall that box
    misses. Each slot's entries are written in place where the path exists,
    over the tables' zeros. The AoA is the arcsine of the cross product of
    the unit vectors toward the BS and toward the path's last bounce: the
    sine of the angle between them, folded into [-pi/2, pi/2] like any
    azimuth. The direct path arrives at exactly 0.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    n_walls = len(scene.walls)
    n_scat = len(scene.scatterers)
    n_slots = 1 + n_walls + n_scat
    lam = scene.wavelength_m
    bs_pos = np.asarray(bs.position)
    h_bs, h_rx = bs.height, scene.rx_height
    points_box = _box(points)

    if out is None:
        out = (np.zeros((m, n_slots), dtype=np.complex128), np.zeros((m, n_slots)),
               np.zeros((m, n_slots)), np.zeros((m, n_slots), dtype=bool))
    else:
        for table in out:
            table.fill(0)
    gains, aods, aoas, valid = out

    # line of sight; rel / d_plan is the unit vector from the BS to each point
    rel = points - bs_pos
    d_plan = np.hypot(rel[:, 0], rel[:, 1])
    from_bs = rel / np.maximum(d_plan, _EPS)[:, None]

    def fill(slot, ok, total_3d, dep_az, arrival, extra_db):
        """Write the slot's columns where ``ok`` and leave the zeros
        elsewhere; a scalar ``dep_az`` (one departure for every point) is
        folded once. ``arrival`` is (the vector from each point toward the
        last bounce, its length), None for the direct path."""
        amp = lam / (4.0 * np.pi * np.maximum(total_3d, _EPS)) * 10.0 ** (extra_db / 20.0)
        phase = -2.0 * np.pi * total_3d / lam
        np.copyto(gains[:, slot], amp * np.exp(1j * phase), where=ok)
        np.copyto(aods[:, slot], _fold(dep_az - bs.boresight), where=ok)
        if arrival is not None:
            vec, length = arrival
            # to_bs x vec, with to_bs = -from_bs
            sine = from_bs[:, 1] * vec[..., 0] - from_bs[:, 0] * vec[..., 1]
            sine /= np.maximum(length, _EPS)
            np.copyto(aoas[:, slot], np.arcsin(np.clip(sine, -1.0, 1.0, out=sine)), where=ok)
        valid[:, slot] = ok

    d3 = np.hypot(d_plan, h_bs - h_rx)
    dep_az = np.arctan2(rel[:, 1], rel[:, 0])
    los_blocked = _blocked(bs_pos, h_bs, points, h_rx, scene.walls, box=_box(points_box, bs_pos))
    ok = ~los_blocked & (d3 > _EPS)
    fill(0, ok, d3, dep_az, None, 0.0)

    # one first-order specular reflection per wall (image-source construction)
    for w_idx, wall in enumerate(scene.walls):
        image = _reflect_point(bs_pos, wall)
        if image is None:
            continue
        a = np.asarray(wall.a)
        e = np.asarray(wall.b) - a
        d = points - image
        t, u, safe = _crossing(a - image, d, e)
        geom_ok = safe & (t > 1e-9) & (t < 1.0 - 1e-9) & (u >= 0.0) & (u <= 1.0)
        refl_pt = a[None, :] + u[:, None] * e[None, :]
        plan_len = np.hypot(d[:, 0], d[:, 1])
        total_3d = np.hypot(plan_len, h_bs - h_rx)
        # height of the unfolded ray where it touches the wall
        frac = np.hypot(refl_pt[:, 0] - bs_pos[0], refl_pt[:, 1] - bs_pos[1]) / np.maximum(
            plan_len, _EPS
        )
        h_at_wall = h_bs + frac * (h_rx - h_bs)
        refl_box = _box(refl_pt)
        leg1_blocked = _blocked(bs_pos, h_bs, refl_pt, h_at_wall, scene.walls, skip=w_idx,
                                box=_box(refl_box, bs_pos))
        leg2_blocked = _blocked(refl_pt, h_at_wall, points, h_rx, scene.walls, skip=w_idx,
                                box=_box(refl_box, points_box))
        ok = geom_ok & (h_at_wall <= wall.height) & ~leg1_blocked & ~leg2_blocked
        dep_az = np.arctan2(refl_pt[:, 1] - bs_pos[1], refl_pt[:, 0] - bs_pos[0])
        to_refl = refl_pt - points
        arrival = (to_refl, np.sqrt(to_refl[:, 0] ** 2 + to_refl[:, 1] ** 2))
        fill(1 + w_idx, ok, total_3d, dep_az, arrival, -wall.reflection_loss_db)

    # one single-bounce path per scatterer
    for s_idx, scat in enumerate(scene.scatterers):
        q = np.asarray(scat.position)
        leg1_plan = float(np.hypot(*(q - bs_pos)))
        leg1_3d = math.hypot(leg1_plan, h_bs - scat.height)
        if bool(_blocked(bs_pos, h_bs, q[None, :], scat.height, scene.walls)[0]):
            continue
        d2 = points - q
        leg2_plan = np.hypot(d2[:, 0], d2[:, 1])
        leg2_3d = np.hypot(leg2_plan, scat.height - h_rx)
        total_3d = leg1_3d + leg2_3d
        leg2_blocked = _blocked(q, scat.height, points, h_rx, scene.walls,
                                box=_box(points_box, q))
        ok = (~leg2_blocked) & (leg2_3d > _EPS)
        dep_az = math.atan2(q[1] - bs_pos[1], q[0] - bs_pos[0])
        fill(1 + n_walls + s_idx, ok, total_3d, dep_az, (-d2, leg2_plan), scat.gain_db)

    return gains, aods, aoas, valid


# ---------------------------------------------------------------------------
# channel grid


# ChannelGrid table fields; the four path tables come first, in the order
# ``_trace_points`` returns them.
_TABLES = ("path_gains", "path_aods", "path_aoas", "path_valid", "snapshots")


@dataclass
class ChannelGrid:
    """Per-BS path tables and cached channel snapshots for every grid point."""

    scene: Scene
    bs_ids: tuple[str, ...]
    path_gains: dict[str, np.ndarray]  # (M, P) complex
    path_aods: dict[str, np.ndarray]  # (M, P)
    path_aoas: dict[str, np.ndarray]  # (M, P)
    path_valid: dict[str, np.ndarray]  # (M, P) bool
    snapshots: dict[str, np.ndarray]  # (M, N_bs) complex

    def paths_at(self, bs_id: str, flat_index: int) -> list[PathComponent]:
        """The valid path slots of one grid point, in slot order."""
        gains, aods, aoas, valid = (getattr(self, f)[bs_id][flat_index] for f in _TABLES[:4])
        return [
            PathComponent(gain=complex(gains[s]), aod=float(aods[s]), aoa=float(aoas[s]))
            for s in np.flatnonzero(valid)
        ]

    def outage(self, bs_id: str) -> np.ndarray:
        return ~self.path_valid[bs_id].any(axis=1)


def build_channel_grid(scene: Scene, bs_ids: tuple[str, ...] | None = None) -> ChannelGrid:
    """Trace every grid point for every requested BS and cache the synthesized
    snapshots. Outage points keep an all-invalid path row and a zero snapshot.

    Every requested id is resolved before any is traced: an unknown one
    raises ``Scene.station``'s ``KeyError`` and a repeated one ``ValueError``.

    The points are traced ``_CHUNK`` at a time straight into their rows of
    the path tables (``_trace_points(..., out=)``), and each chunk's channels
    are synthesized straight into its rows of the snapshot table
    (``synthesize_channels(..., out=)``, which sweeps them in cache-sized
    blocks), so no chunk-sized table is made and copied.

    The chunks of one BS run concurrently: the caller's thread and up to
    cpus - 1 pool workers (cpus being the CPUs this process may run on) each
    take the next chunk from one shared iterator until none is left, so
    numpy's ufuncs and BLAS, which release the GIL, overlap. The chunk
    boundaries and the operations on each chunk's rows are those of a
    one-thread build, so every table is byte-identical to it. A grid of one
    chunk starts no thread. Workers call only ``_trace_points`` and
    ``synthesize_channels``, never a function that ``perfbench/tracer.py``
    wraps: its spans share one stack, which is not thread-safe. A chunk that
    raises fails the call. Returning or raising, the call ends only once
    every worker has stopped."""
    if bs_ids is None:
        bs_ids = tuple(sorted(scene.stations))
    stations = [scene.station(bs_id) for bs_id in bs_ids]
    if len(set(bs_ids)) < len(bs_ids):
        raise ValueError(f"repeated base station in {tuple(bs_ids)!r}")
    points = scene.grid.points()
    m = points.shape[0]
    n_slots = 1 + len(scene.walls) + len(scene.scatterers)
    starts = range(0, m, _CHUNK)
    workers = min(len(starts), len(os.sched_getaffinity(0))) - 1
    if workers > 0:
        # imported only when needed: a process that builds no grid of more
        # than one chunk does not load its modules (~0.6 MB resident)
        from concurrent.futures import ThreadPoolExecutor
    grid = ChannelGrid(scene=scene, bs_ids=tuple(bs_ids), **{f: {} for f in _TABLES})
    with (ThreadPoolExecutor(workers) if workers > 0 else nullcontext()) as pool:
        for bs_id, bs in zip(grid.bs_ids, stations):
            tables = (  # in _TABLES order
                np.empty((m, n_slots), dtype=np.complex128),
                np.empty((m, n_slots)),
                np.empty((m, n_slots)),
                np.empty((m, n_slots), dtype=bool),
                np.empty((m, bs.geometry.num_antennas), dtype=np.complex128),
            )
            # ``next`` on a range iterator holds the GIL, so no two threads
            # take the same chunk
            chunks = iter(starts)

            def run():
                for lo in chunks:
                    rows = [table[lo : lo + _CHUNK] for table in tables]
                    _trace_points(scene, bs, points[lo : lo + _CHUNK], out=rows[:4])
                    synthesize_channels(rows[0], rows[1], bs.geometry, out=rows[4])

            # should ``run`` raise here, leaving the pool waits for the workers
            futures = [pool.submit(run) for _ in range(workers)]
            run()
            for future in futures:
                future.result()
            for name, table in zip(_TABLES, tables):
                getattr(grid, name)[bs_id] = table
    return grid


# ---------------------------------------------------------------------------
# nearest-grid-point snapping


def snap_positions(positions: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Flat grid indices of the nearest points; ties go to the lower index.

    Positions may overhang the outermost points by up to half a spacing; one
    beyond that, or not finite, raises ``ValueError``.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    idx_per_axis = []
    for axis, (n, origin) in enumerate(
        [(grid.n_x, grid.origin[0]), (grid.n_y, grid.origin[1])]
    ):
        q = (positions[:, axis] - origin) / grid.spacing
        outside = ~((q >= -0.5 - 1e-9) & (q <= (n - 1) + 0.5 + 1e-9))  # NaN included
        if np.any(outside):
            bad = positions[outside][0]
            raise ValueError(f"position {bad} outside grid bounds plus half spacing")
        k = np.ceil(q - 0.5).astype(np.int64)  # exact midpoints round down
        idx_per_axis.append(np.clip(k, 0, n - 1))
    return idx_per_axis[0] * grid.n_y + idx_per_axis[1]
