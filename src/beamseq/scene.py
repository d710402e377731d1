"""Synthetic V2I scene: base stations around a receiver grid, reflector walls,
point scatterers, and an image-source multipath tracer feeding the channel
synthesis.

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
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from ._files import load_npz, save_npz
from .phy import ArrayGeometry, PathComponent, synthesize_channels

__all__ = [
    "Wall",
    "Scatterer",
    "BaseStation",
    "GridSpec",
    "Scene",
    "SceneParams",
    "generate_scene",
    "trace_paths",
    "ChannelGrid",
    "build_channel_grid",
    "snap_positions",
]

_EPS = 1e-12
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

    def point_at(self, flat_index: int) -> np.ndarray:
        ix, iy = divmod(int(flat_index), self.n_y)
        return np.array(
            [self.origin[0] + self.spacing * ix, self.origin[1] + self.spacing * iy]
        )


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
        from .phy import SPEED_OF_LIGHT

        return SPEED_OF_LIGHT / self.carrier_hz

    def station(self, bs_id: str) -> BaseStation:
        if bs_id not in self.stations:
            raise KeyError(f"unknown base station {bs_id!r}, have {sorted(self.stations)}")
        return self.stations[bs_id]

    def to_dict(self) -> dict:
        return {
            "carrier_hz": self.carrier_hz,
            "rx_height": self.rx_height,
            "seed": self.seed,
            "grid": {
                "origin": list(self.grid.origin),
                "extent": list(self.grid.extent),
                "spacing": self.grid.spacing,
            },
            "stations": {
                sid: {
                    "position": list(bs.position),
                    "height": bs.height,
                    "boresight": bs.boresight,
                    "num_antennas": bs.geometry.num_antennas,
                    "spacing_wavelengths": bs.geometry.spacing_wavelengths,
                }
                for sid, bs in sorted(self.stations.items())
            },
            "walls": [
                {
                    "a": list(w.a),
                    "b": list(w.b),
                    "height": w.height,
                    "reflection_loss_db": w.reflection_loss_db,
                }
                for w in self.walls
            ],
            "scatterers": [
                {"position": list(s.position), "height": s.height, "gain_db": s.gain_db}
                for s in self.scatterers
            ],
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def scene_from_dict(data: dict) -> Scene:
    stations = {}
    for sid, s in data["stations"].items():
        stations[sid] = BaseStation(
            bs_id=sid,
            position=tuple(s["position"]),
            height=s["height"],
            boresight=s["boresight"],
            geometry=ArrayGeometry(
                num_antennas=s["num_antennas"],
                spacing_wavelengths=s["spacing_wavelengths"],
                carrier_hz=data["carrier_hz"],
            ),
        )
    return Scene(
        carrier_hz=data["carrier_hz"],
        rx_height=data["rx_height"],
        stations=stations,
        walls=tuple(
            Wall(tuple(w["a"]), tuple(w["b"]), w["height"], w["reflection_loss_db"])
            for w in data["walls"]
        ),
        scatterers=tuple(
            Scatterer(tuple(s["position"]), s["height"], s["gain_db"])
            for s in data["scatterers"]
        ),
        grid=GridSpec(
            origin=tuple(data["grid"]["origin"]),
            extent=tuple(data["grid"]["extent"]),
            spacing=data["grid"]["spacing"],
        ),
        seed=data["seed"],
    )


@dataclass
class SceneParams:
    """Knobs for the default scene layout: two RSUs flanking the grid, one MBS
    covering both, road-side reflector walls, and random scatterers."""

    carrier_hz: float = 28e9
    grid_origin: tuple[float, float] = (0.0, 0.0)
    grid_extent: tuple[float, float] = (30.0, 10.0)  # along road x across road
    grid_spacing: float = 0.05
    rx_height: float = 1.5
    rsu_height: float = 3.0
    mbs_height: float = 22.0
    rsu_antennas: int = 32
    mbs_antennas: int = 128
    antenna_spacing_wavelengths: float = 0.5
    rsu_standoff: float = 5.0  # distance beyond each grid end, along the road
    mbs_offset: float = 20.0  # lateral distance from the near grid edge
    num_reflectors: int = 2
    num_scatterers: int = 12
    wall_setback: float = 2.0  # walls sit this far beyond the far grid edge
    wall_height: float = 6.0
    reflection_loss_db: tuple[float, float] = (3.0, 10.0)
    scatterer_gain_db: tuple[float, float] = (-25.0, -12.0)


def generate_scene(params: SceneParams, seed: int) -> Scene:
    """Deterministic scene from (params, seed): fixed station layout, seeded
    wall segmentation and scatterer placement."""
    ox, oy = params.grid_origin
    ex, ey = params.grid_extent
    grid = GridSpec(origin=(ox, oy), extent=(ex, ey), spacing=params.grid_spacing)
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
                num_antennas=n_ant,
                spacing_wavelengths=params.antenna_spacing_wavelengths,
                carrier_hz=params.carrier_hz,
            ),
        )

    stations = {
        "rsu0": station("rsu0", (ox - params.rsu_standoff, road_y), params.rsu_height, params.rsu_antennas),
        "rsu1": station("rsu1", (ox + ex + params.rsu_standoff, road_y), params.rsu_height, params.rsu_antennas),
        "mbs": station("mbs", (ox + ex / 2.0, oy - params.mbs_offset), params.mbs_height, params.mbs_antennas),
    }

    rng = np.random.default_rng(np.random.SeedSequence([int(seed), _TAG_SCENE]))

    # far-side facade broken into num_reflectors jittered segments
    walls = []
    if params.num_reflectors > 0:
        wall_y = oy + ey + params.wall_setback
        span_lo, span_hi = ox - 2.0, ox + ex + 2.0
        slot = (span_hi - span_lo) / params.num_reflectors
        for i in range(params.num_reflectors):
            x0 = span_lo + i * slot + rng.uniform(0.0, 0.15 * slot)
            length = slot * rng.uniform(0.55, 0.8)
            loss = rng.uniform(*params.reflection_loss_db)
            walls.append(
                Wall(
                    a=(float(x0), float(wall_y)),
                    b=(float(x0 + length), float(wall_y)),
                    height=params.wall_height,
                    reflection_loss_db=float(loss),
                )
            )

    # scatterers alternate between a near-side and a far-side band, both
    # clear of the walls so they stay illuminated
    scatterers = []
    near_band = (oy - 3.5, oy - 0.5)
    far_band = (oy + ey + 0.6, oy + ey + params.wall_setback - 0.2)
    for i in range(params.num_scatterers):
        x = rng.uniform(ox - 2.0, ox + ex + 2.0)
        band = near_band if i % 2 == 0 else far_band
        y = rng.uniform(*band)
        height = rng.uniform(1.0, 4.0)
        gain_db = rng.uniform(*params.scatterer_gain_db)
        scatterers.append(
            Scatterer(position=(float(x), float(y)), height=float(height), gain_db=float(gain_db))
        )

    scene = Scene(
        carrier_hz=params.carrier_hz,
        rx_height=params.rx_height,
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
        az = np.arctan2(rel[:, 1], rel[:, 0]) - bs.boresight
        az = (az + np.pi) % (2 * np.pi) - np.pi
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
    (M, 2) rel, d; t and u are finite but meaningless where ``safe`` is False
    (segment parallel to the wall)."""
    denom = d[..., 0] * e[1] - d[..., 1] * e[0]
    safe = np.abs(denom) > _EPS
    denom = np.where(safe, denom, 1.0)
    t = (rel[..., 0] * e[1] - rel[..., 1] * e[0]) / denom
    u = (rel[..., 0] * d[..., 1] - rel[..., 1] * d[..., 0]) / denom
    return t, u, safe


def _blocked(p1, h1, p2, h2, walls: tuple[Wall, ...], skip: int = -1) -> np.ndarray:
    """Which of the segments p1[i] -> p2[i] cross a wall below its top.

    p1, p2: (M, 2) or (2,); h1, h2: scalar or (M,). Wall ``skip`` is ignored
    (a reflected leg never re-crosses its own wall).
    """
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p2 = np.atleast_2d(np.asarray(p2, dtype=float))
    m = max(p1.shape[0], p2.shape[0])
    d = p2 - p1  # broadcasts
    blocked = np.zeros(m, dtype=bool)
    for w_idx, wall in enumerate(walls):
        if w_idx == skip:
            continue
        a = np.asarray(wall.a)
        e = np.asarray(wall.b) - a
        t, u, safe = _crossing(a - p1, d, e)
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


def _trace_points(scene: Scene, bs: BaseStation, points: np.ndarray):
    """Trace all path slots for ``points`` (M, 2).

    Returns (gains, aods, aoas, valid), each (M, P) with the fixed slot layout
    [LoS, one per wall, one per scatterer]. Invalid slots carry zero gain and
    zero angles.
    """
    points = np.asarray(points, dtype=float)
    m = points.shape[0]
    n_walls = len(scene.walls)
    n_scat = len(scene.scatterers)
    n_slots = 1 + n_walls + n_scat
    lam = scene.wavelength_m
    bs_pos = np.asarray(bs.position)
    h_bs, h_rx = bs.height, scene.rx_height

    gains = np.zeros((m, n_slots), dtype=np.complex128)
    aods = np.zeros((m, n_slots))
    aoas = np.zeros((m, n_slots))
    valid = np.zeros((m, n_slots), dtype=bool)

    to_bs_az = np.arctan2(bs_pos[1] - points[:, 1], bs_pos[0] - points[:, 0])

    def fill(slot, ok, total_3d, dep_az, arr_az, extra_db):
        """Write each of the slot's four columns whole, zero where ``ok`` is
        False; a scalar ``dep_az`` (one departure for every point) is folded
        once."""
        amp = lam / (4.0 * np.pi * np.maximum(total_3d, _EPS)) * 10.0 ** (extra_db / 20.0)
        phase = -2.0 * np.pi * total_3d / lam
        gains[:, slot] = np.where(ok, amp * np.exp(1j * phase), 0.0)
        aods[:, slot] = np.where(ok, _fold(dep_az - bs.boresight), 0.0)
        aoas[:, slot] = np.where(ok, _fold(_wrap(arr_az - to_bs_az)), 0.0)
        valid[:, slot] = ok

    # line of sight
    rel = points - bs_pos
    d_plan = np.hypot(rel[:, 0], rel[:, 1])
    d3 = np.hypot(d_plan, h_bs - h_rx)
    dep_az = np.arctan2(rel[:, 1], rel[:, 0])
    ok = (~_blocked(bs_pos, h_bs, points, h_rx, scene.walls)) & (d3 > _EPS)
    fill(0, ok, d3, dep_az, to_bs_az, 0.0)  # arrival from the BS direction: aoa = 0

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
        leg1_blocked = _blocked(bs_pos, h_bs, refl_pt, h_at_wall, scene.walls, skip=w_idx)
        leg2_blocked = _blocked(refl_pt, h_at_wall, points, h_rx, scene.walls, skip=w_idx)
        ok = geom_ok & (h_at_wall <= wall.height) & ~leg1_blocked & ~leg2_blocked
        dep_az = np.arctan2(refl_pt[:, 1] - bs_pos[1], refl_pt[:, 0] - bs_pos[0])
        arr_az = np.arctan2(refl_pt[:, 1] - points[:, 1], refl_pt[:, 0] - points[:, 0])
        fill(1 + w_idx, ok, total_3d, dep_az, arr_az, -wall.reflection_loss_db)

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
        leg2_blocked = _blocked(q, scat.height, points, h_rx, scene.walls)
        ok = (~leg2_blocked) & (leg2_3d > _EPS)
        dep_az = math.atan2(q[1] - bs_pos[1], q[0] - bs_pos[0])
        arr_az = np.arctan2(q[1] - points[:, 1], q[0] - points[:, 0])
        fill(1 + n_walls + s_idx, ok, total_3d, dep_az, arr_az, scat.gain_db)

    return gains, aods, aoas, valid


def trace_paths(scene: Scene, bs_id: str, point) -> list[PathComponent]:
    """Propagation paths from one BS to a single receiver point.

    Returns [] when every path is blocked (the caller maps that to outage).
    Slot order is LoS, then reflections in wall order, then scatterers.
    """
    point = np.asarray(point, dtype=float)
    ox, oy = scene.grid.origin
    ex, ey = scene.grid.extent
    half = scene.grid.spacing / 2.0
    if not (
        ox - half <= point[0] <= ox + ex + half and oy - half <= point[1] <= oy + ey + half
    ):
        raise ValueError(f"point {point} outside the receiver grid")
    rows = _trace_points(scene, scene.station(bs_id), point[None, :])
    return _path_list(*(table[0] for table in rows))


def _path_list(gains, aods, aoas, valid) -> list[PathComponent]:
    """The valid slots of one path-table row, in slot order."""
    return [
        PathComponent(gain=complex(gains[s]), aod=float(aods[s]), aoa=float(aoas[s]))
        for s in np.flatnonzero(valid)
    ]


# ---------------------------------------------------------------------------
# channel grid


# ChannelGrid table fields and their npz key suffixes; the four path tables
# come first, in the order ``_trace_points`` returns them.
_TABLES = (("path_gains", "gains"), ("path_aods", "aods"), ("path_aoas", "aoas"),
           ("path_valid", "valid"), ("snapshots", "snapshots"))


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
        return _path_list(*(getattr(self, f)[bs_id][flat_index] for f, _ in _TABLES[:4]))

    def outage(self, bs_id: str) -> np.ndarray:
        return ~self.path_valid[bs_id].any(axis=1)

    def save(self, path) -> None:
        arrays = {
            f"{bs_id}__{key}": getattr(self, name)[bs_id]
            for bs_id in self.bs_ids
            for name, key in _TABLES
        }
        save_npz(path, arrays, {"scene": self.scene.to_dict(), "bs_ids": list(self.bs_ids)})

    @classmethod
    def load(cls, path) -> "ChannelGrid":
        """Read a ``save`` file; a malformed one raises ``ValueError``."""
        arrays, meta = load_npz(path, ValueError)
        try:
            scene = scene_from_dict(meta["scene"])
            bs_ids = tuple(meta["bs_ids"])
            tables = {
                name: {bs_id: arrays[f"{bs_id}__{key}"] for bs_id in bs_ids}
                for name, key in _TABLES
            }
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"bad channel grid file: {exc!r}") from exc
        return cls(scene=scene, bs_ids=bs_ids, **tables)


def build_channel_grid(scene: Scene, bs_ids: tuple[str, ...] | None = None) -> ChannelGrid:
    """Trace every grid point for every requested BS and cache the synthesized
    snapshots. Outage points keep an all-invalid path row and a zero snapshot."""
    if bs_ids is None:
        bs_ids = tuple(sorted(scene.stations))
    points = scene.grid.points()
    m = points.shape[0]
    n_slots = 1 + len(scene.walls) + len(scene.scatterers)
    grid = ChannelGrid(scene=scene, bs_ids=tuple(bs_ids), **{f: {} for f, _ in _TABLES})
    for bs_id in grid.bs_ids:
        bs = scene.station(bs_id)
        tables = (  # in _TABLES order
            np.empty((m, n_slots), dtype=np.complex128),
            np.empty((m, n_slots)),
            np.empty((m, n_slots)),
            np.empty((m, n_slots), dtype=bool),
            np.empty((m, bs.geometry.num_antennas), dtype=np.complex128),
        )
        for lo in range(0, m, _CHUNK):
            rows = _trace_points(scene, bs, points[lo : lo + _CHUNK])
            snaps = synthesize_channels(rows[0], rows[1], bs.geometry)
            for table, block in zip(tables, (*rows, snaps)):
                table[lo : lo + _CHUNK] = block
        for (name, _), table in zip(_TABLES, tables):
            getattr(grid, name)[bs_id] = table
    return grid


# ---------------------------------------------------------------------------
# nearest-grid-point snapping


def snap_positions(positions: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Flat grid indices of the nearest points; ties go to the lower index.

    Positions may overhang the outermost points by up to half a spacing.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    out = np.empty(positions.shape[0], dtype=np.int64)
    idx_per_axis = []
    for axis, (n, origin) in enumerate(
        [(grid.n_x, grid.origin[0]), (grid.n_y, grid.origin[1])]
    ):
        q = (positions[:, axis] - origin) / grid.spacing
        if np.any(q < -0.5 - 1e-9) or np.any(q > (n - 1) + 0.5 + 1e-9):
            bad = positions[(q < -0.5 - 1e-9) | (q > (n - 1) + 0.5 + 1e-9)][0]
            raise ValueError(f"position {bad} outside grid bounds plus half spacing")
        k = np.ceil(q - 0.5).astype(np.int64)  # exact midpoints round down
        idx_per_axis.append(np.clip(k, 0, n - 1))
    out[:] = idx_per_axis[0] * grid.n_y + idx_per_axis[1]
    return out
