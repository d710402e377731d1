"""Straight-line constant-acceleration vehicle trajectories over the grid,
one position per ``SLOT_SECONDS`` slot."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .scene import GridSpec, Scene

__all__ = ["Trajectory", "sample_trajectory", "TrajectoryError"]

# the time between a trajectory's slots (s)
SLOT_SECONDS = 1e-3
# uniform draws of a trajectory's initial speed (m/s) and acceleration (m/s^2)
SPEED_RANGE = (10.0, 15.0)
ACCEL_RANGE = (-3.0, 3.0)
# draws tried before ``sample_trajectory`` gives up
MAX_RETRIES = 1000


class TrajectoryError(RuntimeError):
    """Could not place a trajectory inside the grid within the retry budget."""


@dataclass(frozen=True)
class Trajectory:
    """position(t) = start + heading_unit * (v0*t + a*t^2/2), sampled per slot."""

    start: tuple[float, float]
    heading: float
    initial_speed: float
    acceleration: float
    num_slots: int

    def positions(self) -> np.ndarray:
        """(num_slots, 2) positions, slot k at time k*SLOT_SECONDS."""
        t = SLOT_SECONDS * np.arange(self.num_slots)
        s = self.initial_speed * t + 0.5 * self.acceleration * t * t
        direction = np.array([math.cos(self.heading), math.sin(self.heading)])
        return np.asarray(self.start) + s[:, None] * direction[None, :]


def sample_trajectory(scene: Scene, rng: np.random.Generator, num_slots: int) -> Trajectory:
    """Draw start/heading/speed/acceleration so every slot position stays on
    the grid, speed from ``SPEED_RANGE`` and acceleration from
    ``ACCEL_RANGE``, one slot every ``SLOT_SECONDS``. At most ``MAX_RETRIES``
    draws; failure raises instead of truncating."""
    grid: GridSpec = scene.grid
    x_lo = grid.origin[0]
    x_hi = grid.origin[0] + (grid.n_x - 1) * grid.spacing
    y_lo = grid.origin[1]
    y_hi = grid.origin[1] + (grid.n_y - 1) * grid.spacing
    for _ in range(MAX_RETRIES):
        start = (rng.uniform(x_lo, x_hi), rng.uniform(y_lo, y_hi))
        heading = rng.uniform(0.0, 2.0 * np.pi)
        v0 = rng.uniform(*SPEED_RANGE)
        accel = rng.uniform(*ACCEL_RANGE)
        traj = Trajectory(
            start=start, heading=heading, initial_speed=v0, acceleration=accel, num_slots=num_slots
        )
        pos = traj.positions()
        if (
            pos[:, 0].min() >= x_lo
            and pos[:, 0].max() <= x_hi
            and pos[:, 1].min() >= y_lo
            and pos[:, 1].max() <= y_hi
        ):
            return traj
    raise TrajectoryError(
        f"no in-grid trajectory found after {MAX_RETRIES} retries "
        f"(grid {grid.extent}, {num_slots} slots)"
    )
