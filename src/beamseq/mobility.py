"""Straight-line constant-acceleration vehicle trajectories over the grid,
one position per ``SLOT_SECONDS`` slot.

A trajectory is a row of draws (start x, start y, heading, initial speed,
acceleration), which ``_positions`` turns into positions.
``sample_trajectories`` draws a batch: each trajectory from its own
generator, with its own retries, while the positions of every attempt in a
round are formed and checked against the grid as one (n, slots, 2) array.
``sample_trajectory`` is its one-generator call, row 0 of the batch.
"""

from __future__ import annotations

import math

import numpy as np

from .scene import GridSpec, Scene

__all__ = ["sample_trajectory", "sample_trajectories", "TrajectoryError"]

# the time between a trajectory's slots (s)
SLOT_SECONDS = 1e-3
# uniform draws of a trajectory's initial speed (m/s) and acceleration (m/s^2)
SPEED_RANGE = (10.0, 15.0)
ACCEL_RANGE = (-3.0, 3.0)
# draws tried before ``sample_trajectories`` gives up on a trajectory
MAX_RETRIES = 1000


class TrajectoryError(RuntimeError):
    """Could not place a trajectory inside the grid within the retry budget."""


def _positions(draws: np.ndarray, num_slots: int) -> np.ndarray:
    """(n, num_slots, 2) positions of the trajectories whose (n, 5) ``draws``
    rows are (start x, start y, heading, initial speed, acceleration):
    position(t) = start + heading_unit * (v0*t + a*t^2/2), slot k at time
    k*``SLOT_SECONDS``."""
    t = SLOT_SECONDS * np.arange(num_slots)
    s = draws[:, 3:4] * t + 0.5 * draws[:, 4:5] * t * t
    # math.cos and math.sin per heading, as the positions were always formed:
    # np.cos and np.sin need not round the same way
    direction = np.array([[math.cos(h), math.sin(h)] for h in draws[:, 2].tolist()])
    return draws[:, None, :2] + s[:, :, None] * direction[:, None, :]


def sample_trajectories(
    scene: Scene, rngs: list[np.random.Generator], num_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw one trajectory from each generator in ``rngs`` so that every slot
    position stays on the grid: (draws (n, 5), positions (n, num_slots, 2)),
    a draws row being (start x, start y, heading, initial speed,
    acceleration). An attempt draws those five values uniformly, in that
    order, from the grid's extent, [0, 2 pi), ``SPEED_RANGE`` and
    ``ACCEL_RANGE``; a trajectory that leaves the grid draws again from its
    own generator. Each round forms and checks the positions of every
    trajectory still drawing as one array. A trajectory still off the grid
    after ``MAX_RETRIES`` attempts raises ``TrajectoryError`` instead of
    being truncated."""
    grid: GridSpec = scene.grid
    lo = np.array(grid.origin)
    hi = lo + (np.array([grid.n_x, grid.n_y]) - 1) * grid.spacing
    low = np.array([lo[0], lo[1], 0.0, SPEED_RANGE[0], ACCEL_RANGE[0]])
    high = np.array([hi[0], hi[1], 2.0 * np.pi, SPEED_RANGE[1], ACCEL_RANGE[1]])
    draws = np.empty((len(rngs), 5))
    positions = np.empty((len(rngs), num_slots, 2))
    todo = np.arange(len(rngs))
    for _ in range(MAX_RETRIES):
        if not todo.size:
            break
        # low + (high - low) * u is how ``Generator.uniform`` maps its draw u
        draws[todo] = low + (high - low) * np.array([rngs[i].random(5) for i in todo.tolist()])
        positions[todo] = tried = _positions(draws[todo], num_slots)
        todo = todo[~((tried >= lo) & (tried <= hi)).all(axis=(1, 2))]
    if not todo.size:
        return draws, positions
    raise TrajectoryError(
        f"{todo.size} of {len(rngs)} trajectories found no in-grid draw after "
        f"{MAX_RETRIES} retries (grid {grid.extent}, {num_slots} slots)"
    )


def sample_trajectory(
    scene: Scene, rng: np.random.Generator, num_slots: int
) -> tuple[np.ndarray, np.ndarray]:
    """One in-grid trajectory drawn from ``rng``, (draw (5,), positions
    (num_slots, 2)): row 0 of the one-generator ``sample_trajectories``."""
    draws, positions = sample_trajectories(scene, [rng], num_slots)
    return draws[0], positions[0]
