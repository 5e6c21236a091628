"""Instantaneous map construction from a single sweep.

Per vertical scan: beams whose hit point rises more than a height threshold
above the ground are obstacle returns; their 2D projections become occupied
evidence.  Cells along the ground track between the first beam's hit and the
first obstacle hit of the same scan are set free by a grid-line raycast.
Occupied marking wins over free on conflicts within one sweep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, ParameterError
from .grid import GridMap, logodds_from_prob, update_cell
from .world import Sweep

#: Evidence added to a cell per obstacle return.
L_OCC = logodds_from_prob(0.9)
#: Value a free-raycast cell is overwritten to.
L_FREE_SET = logodds_from_prob(0.1)

KIND_UNTOUCHED = 0
KIND_FREE_SET = 1
KIND_OCCUPIED = 2


@dataclass(frozen=True)
class ObstacleThresholds:
    """Binary height-window classifier for obstacle returns."""
    min_height: float
    max_height: float

    def __post_init__(self) -> None:
        if not self.min_height < self.max_height:
            raise ParameterError("obstacle min_height must be below max_height")


def obstacle_mask(hit_z: np.ndarray, returned: np.ndarray, ground_z: float,
                  thresholds: ObstacleThresholds) -> np.ndarray:
    """Flag beams whose hit height above the ground falls strictly inside the
    obstacle window.  No-return beams are never flagged."""
    heights = hit_z - ground_z
    return returned & (heights > thresholds.min_height) & (heights < thresholds.max_height)


def _nudged_cells(grid: GridMap, px: np.ndarray, py: np.ndarray, sx: float, sy: float,
                  step: float) -> tuple[np.ndarray, np.ndarray]:
    """Cells of points moved ``step`` meters along their ray from the sensor.

    A hit exactly on a surface that coincides with a cell boundary would alias
    between the two adjacent cells; a small negative step picks the near
    side, a positive one the cell inside the surface.
    """
    dx, dy = px - sx, py - sy
    norm = np.hypot(dx, dy)
    norm[norm == 0.0] = 1.0
    return grid.cell_of(px + step * dx / norm, py + step * dy / norm)


def raycast_cells(starts: np.ndarray, ends: np.ndarray,
                  shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid-line traversal for a batch of rays in cell-index space.

    For each ray the line from start to end is stepped in max(|dx|, |dy|)
    unit steps along the dominant axis, rounding the other coordinate, which
    visits one cell per step, inclusive of start and exclusive of end.
    Returns (ray_index, cols, rows) flat arrays.

    The steps whose dominant coordinate, which moves one cell a step, lies more
    than one cell off a grid of ``shape`` (rows, cols) are not taken: a ray costs
    at most the grid's side plus two steps and visits the full traversal's cells
    on the grid.  Beyond 2**52 cells a ray's float steps are degenerate.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1, 2)
    ends = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
    delta = ends - starts
    counts = np.abs(delta).max(axis=1)
    at, axis = np.arange(len(counts)), np.argmax(np.abs(delta), axis=1)
    s, side, ahead = starts[at, axis], np.array(shape[::-1])[axis], delta[at, axis] > 0
    first = np.clip(np.where(ahead, -1 - s, s - side), 0, counts)
    n = np.clip(np.where(ahead, side + 1 - s, s + 2), first, counts) - first
    ray = np.repeat(at, n)
    step = np.arange(len(ray)) - np.repeat(np.cumsum(n) - n - first, n)
    frac = step / counts[ray]
    cols = np.rint(starts[ray, 0] + frac * delta[ray, 0]).astype(np.int64)
    rows = np.rint(starts[ray, 1] + frac * delta[ray, 1]).astype(np.int64)
    return ray, cols, rows


@dataclass
class InstantMap:
    """Measurement evidence from one sweep, one kind code per cell.

    :func:`apply_instant` adds ``L_OCC`` to occupied cells, overwrites
    free-set cells with ``L_FREE_SET`` and leaves untouched cells alone.
    """
    resolution: float
    origin_x: float
    origin_y: float
    kind: np.ndarray  # uint8 (height, width)


def build_instant_map(sweep: Sweep, grid: GridMap,
                      thresholds: ObstacleThresholds) -> InstantMap:
    """Project one sweep into an instantaneous occupancy map on ``grid``'s
    lattice.

    Cells outside the grid are silently dropped; the grid must contain the
    sensor position itself.
    """
    sx, sy = sweep.ego_pose.x, sweep.ego_pose.y
    if not grid.contains_point(sx, sy):
        raise AlignmentError("instant map extent does not contain the sensor position")

    kind = np.zeros(grid.shape, dtype=np.uint8)
    origin, dx, dy, dz = sweep.rays

    def hit_xy(rays):  # world xy of the returns of the rays that ``rays`` indexes
        r = sweep.ranges[rays]
        return origin[0] + r * dx[rays], origin[1] + r * dy[rays]

    returned = np.isfinite(sweep.ranges)
    safe = np.where(returned, sweep.ranges, 0.0)
    obstacle = obstacle_mask(origin[2] + safe * dz, returned, sweep.ground_z, thresholds)

    # free intervals, one per vertical scan with a usable first-beam anchor
    n_az, n_beams = sweep.ranges.shape
    any_obs = obstacle.any(axis=1)
    first_obs = np.argmax(obstacle, axis=1)
    last_ret = n_beams - 1 - np.argmax(returned[:, ::-1], axis=1)
    end_beam = np.where(any_obs, first_obs, last_ret)

    usable = returned[:, 0]
    az = np.arange(n_az)
    start_d = sweep.ranges[az, 0]
    end_d = sweep.ranges[az, end_beam]
    # the end beam has a return when the first does; ranges along unit rays
    # order hits horizontally, so a nearer obstacle yields an empty interval
    usable &= end_d >= start_d

    starts = np.stack(grid.cell_of(*hit_xy((az[usable], 0))), axis=1)
    # the span ends a hair short of its end hit, so grid-line rounding never
    # frees a cell inside the surface that was hit
    ends = np.stack(_nudged_cells(grid, *hit_xy((az[usable], end_beam[usable])), sx, sy,
                                  -1e-6), axis=1)

    _, f_cols, f_rows = raycast_cells(starts, ends, grid.shape)
    # with no obstacle in the scan, the last ground return itself is free
    inc_end = ~any_obs[usable]
    f_cols = np.concatenate([f_cols, ends[inc_end, 0]])
    f_rows = np.concatenate([f_rows, ends[inc_end, 1]])
    in_grid = grid.contains_cell(f_cols, f_rows)
    kind[f_rows[in_grid], f_cols[in_grid]] = KIND_FREE_SET

    # occupied marking last: it takes precedence over free on conflicts;
    # each obstacle hit is looked up a hair further along its ray
    o_cols, o_rows = _nudged_cells(grid, *hit_xy(obstacle), sx, sy, 1e-6)
    in_grid = grid.contains_cell(o_cols, o_rows)
    kind[o_rows[in_grid], o_cols[in_grid]] = KIND_OCCUPIED

    return InstantMap(grid.resolution, grid.origin_x, grid.origin_y, kind)


def apply_instant(target: GridMap, inst: InstantMap) -> tuple[np.ndarray, np.ndarray]:
    """Fold an instantaneous map into ``target``.

    Occupied cells get ``L_OCC`` added by :func:`update_cell`; free cells are
    overwritten to ``L_FREE_SET``.  Both mark the cell observed.  Untouched
    cells are unchanged.  Returns the cells written: a bool mask of the free
    ones and the flat indices of the occupied ones.
    """
    if not (target.shape == inst.kind.shape and target.offset_in(inst) == (0, 0)):
        raise AlignmentError("instant map extent does not match the target grid")
    occ = np.flatnonzero(inst.kind == KIND_OCCUPIED)
    free = inst.kind == KIND_FREE_SET
    np.put(target.values, occ, update_cell(target.values.take(occ), L_OCC))
    np.copyto(target.values, L_FREE_SET, where=free)
    target.observed |= inst.kind != KIND_UNTOUCHED
    return free, occ
