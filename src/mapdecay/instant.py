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


def raycast_cells(starts: np.ndarray, ends: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Grid-line traversal for a batch of rays in cell-index space.

    For each ray the line from start to end is stepped in max(|dx|, |dy|)
    unit steps, exactly in integers along the dominant axis; the other
    coordinate is rounded half to even from start + step / count * delta.
    That visits one cell per step, inclusive of start and exclusive of end.
    Returns the row-major flat indices of the visited cells that lie on a grid
    of ``shape`` (rows, cols), ray by ray in visiting order.

    Only the steps whose dominant coordinate lies on the grid are taken, so a
    ray costs at most the grid's side.  Beyond 2**52 cells the rounded
    coordinate is degenerate.
    """
    starts = np.asarray(starts, dtype=np.int64).reshape(-1, 2)
    delta = np.asarray(ends, dtype=np.int64).reshape(-1, 2) - starts
    counts = np.abs(delta).max(axis=1)
    at, axis = np.arange(len(counts)), np.argmax(np.abs(delta), axis=1)
    s, ahead, by_col = starts[at, axis], delta[at, axis] > 0, axis == 0
    rows, cols = shape
    side = np.where(by_col, cols, rows)
    first = np.clip(np.where(ahead, -s, s - side + 1), 0, counts)
    n = np.clip(np.where(ahead, side - s, s + 1), first, counts) - first
    step = np.arange(n.sum(), dtype=np.int64)
    step -= np.repeat(np.cumsum(n) - n - first, n)
    # the minor coordinate, start + step / count * delta in that order of
    # operations, from float64 copies made once a ray
    other = at, 1 - axis
    minor = step / np.repeat(counts.astype(np.float64), n)
    minor *= np.repeat(delta[other].astype(np.float64), n)
    minor += np.repeat(starts[other].astype(np.float64), n)
    cell = np.rint(minor, out=minor).astype(np.int64)
    on = cell.view(np.uint64) < np.repeat(np.where(by_col, rows, cols).astype(np.uint64), n)
    # cell = minor * its stride + (s +- step) * the major stride; int64 products
    # wrap, which leaves the sums exact on the grid
    stride = np.where(by_col, 1, cols)
    cell *= np.repeat(np.where(by_col, cols, 1), n)
    step *= np.repeat(np.where(ahead, stride, -stride), n)
    cell += step
    cell += np.repeat(s * stride, n)
    return cell[on]


def _flat_cells(grid: GridMap, cols: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Row-major flat indices of the cells on ``grid``; the others are dropped
    before any index is multiplied."""
    on = np.flatnonzero(grid.contains_cell(cols, rows))
    return rows[on] * grid.width + cols[on]


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


def sweep_cells(sweep: Sweep, grid: GridMap,
                thresholds: ObstacleThresholds) -> tuple[np.ndarray, np.ndarray]:
    """One sweep's evidence on ``grid``'s lattice: the row-major flat indices of
    its free and of its occupied cells, duplicates kept; a cell in both is
    occupied.  Off-grid cells are dropped; the grid must contain the sensor."""
    sx, sy = sweep.ego_pose.x, sweep.ego_pose.y
    if not grid.contains_point(sx, sy):
        raise AlignmentError("instant map extent does not contain the sensor position")
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

    az = np.arange(n_az)
    # the end beam has a return when the first does; ranges along unit rays
    # order hits horizontally, so a nearer obstacle yields an empty interval
    usable = returned[:, 0] & (sweep.ranges[az, end_beam] >= sweep.ranges[az, 0])

    starts = np.stack(grid.cell_of(*hit_xy((az[usable], 0))), axis=1)
    # the span ends a hair short of its end hit, so grid-line rounding never
    # frees a cell inside the surface that was hit
    ends = np.stack(_nudged_cells(grid, *hit_xy((az[usable], end_beam[usable])), sx, sy,
                                  -1e-6), axis=1)

    # with no obstacle in the scan, the last ground return itself is free
    free = np.concatenate([raycast_cells(starts, ends, grid.shape),
                           _flat_cells(grid, *ends[~any_obs[usable]].T)])
    # each obstacle hit is looked up a hair further along its ray
    return free, _flat_cells(grid, *_nudged_cells(grid, *hit_xy(obstacle), sx, sy, 1e-6))


def build_instant_map(sweep: Sweep, grid: GridMap,
                      thresholds: ObstacleThresholds) -> InstantMap:
    """Project one sweep into an instantaneous occupancy map on ``grid``'s
    lattice, by :func:`sweep_cells`."""
    free, occupied = sweep_cells(sweep, grid, thresholds)
    kind = np.zeros(grid.shape, dtype=np.uint8)
    kind.reshape(-1)[free] = KIND_FREE_SET
    kind.reshape(-1)[occupied] = KIND_OCCUPIED  # last: occupied wins over free
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
