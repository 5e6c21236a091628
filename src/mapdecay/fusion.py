"""Offline map construction and the online map lifecycle.

The offline map accumulates instantaneous maps over a logged pass and is
cleaned by removing small occupied components (an automated stand-in for
manual post-processing).  The online map is a square window recentered on the
ego vehicle, initialized from the offline map; each step decays the whole
window toward the offline values before folding in the new sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy import ndimage

from .errors import LogError, ParameterError, ScenarioError
from .grid import DecayParams, GridMap, apply_decay, logodds_from_prob
from .instant import (
    L_FREE_SET,
    ObstacleThresholds,
    InstantMap,
    apply_instant,
    build_instant_map,
)
from .world import Pose, Sweep


@dataclass(frozen=True)
class CleanParams:
    occ_threshold: float = 0.5
    min_component_cells: int = 6

    def __post_init__(self) -> None:
        if not (0.0 < self.occ_threshold < 1.0):
            raise ParameterError("occ_threshold must be in (0, 1)")
        if self.min_component_cells < 1:
            raise ParameterError("min_component_cells must be at least 1")


def build_offline(log: Iterable[tuple[Pose, Sweep]], resolution: float,
                  origin_x: float, origin_y: float, width: int, height: int,
                  ground_z: float,
                  thresholds: ObstacleThresholds = ObstacleThresholds()) -> GridMap:
    """Integrate an ordered (pose, sweep) log into a single map."""
    grid = GridMap.blank(resolution, origin_x, origin_y, width, height)
    last_t = None
    for pose, sweep in log:
        ep = sweep.ego_pose
        if (abs(pose.x - ep.x) > 1e-9 or abs(pose.y - ep.y) > 1e-9
                or abs(pose.yaw - ep.yaw) > 1e-9):
            raise LogError(f"log pose at t={sweep.t} does not match the sweep's ego pose")
        if last_t is not None and sweep.t <= last_t:
            raise LogError("log sweep timestamps must be strictly increasing")
        last_t = sweep.t
        inst = build_instant_map(sweep, origin_x, origin_y, width, height,
                                 resolution, ground_z, thresholds)
        apply_instant(grid, inst)
    return grid


def clean_offline(grid: GridMap, params: CleanParams = CleanParams()) -> GridMap:
    """Remove small occupied components (idempotent, returns a new map)."""
    out = grid.copy()
    occ = out.values > logodds_from_prob(params.occ_threshold)
    labels, n = ndimage.label(occ, structure=np.ones((3, 3), dtype=int))
    if n:
        sizes = np.bincount(labels.reshape(-1))
        small = sizes < params.min_component_cells
        small[0] = False
        out.values[small[labels]] = L_FREE_SET
    return out


@dataclass
class OnlineMap:
    """The runtime map: a cell-snapped square window over the offline extent."""
    grid: GridMap


def _snapped_origin(offline: GridMap, ego: Pose, window_cells: int) -> tuple[float, float]:
    res = offline.resolution
    half = window_cells * res / 2.0
    col0 = round((ego.x - half - offline.origin_x) / res)
    row0 = round((ego.y - half - offline.origin_y) / res)
    return offline.origin_x + col0 * res, offline.origin_y + row0 * res


def _paste(dst: GridMap, src: GridMap) -> None:
    """Copy values and flags of the cells ``dst`` shares with ``src``.

    Both grids lie on the same lattice; cells of ``dst`` outside ``src`` keep
    what they hold.
    """
    dc, dr = dst.offset_in(src)
    c0, c1 = max(dc, 0), min(dc + dst.width, src.width)
    r0, r1 = max(dr, 0), min(dr + dst.height, src.height)
    if c0 < c1 and r0 < r1:
        dst.values[r0 - dr:r1 - dr, c0 - dc:c1 - dc] = src.values[r0:r1, c0:c1]
        dst.observed[r0 - dr:r1 - dr, c0 - dc:c1 - dc] = src.observed[r0:r1, c0:c1]


def offline_window(offline: GridMap, origin_x: float, origin_y: float,
                   width: int, height: int) -> GridMap:
    """Offline values over an aligned window; out-of-extent cells are 0.0."""
    window = GridMap(offline.resolution, origin_x, origin_y, np.zeros((height, width)))
    _paste(window, offline)
    return window


def online_init(offline: GridMap, ego: Pose, window_size: float = 150.0) -> OnlineMap:
    """Window centered on the ego, every cell copied from the offline map."""
    if not offline.contains_point(ego.x, ego.y):
        raise ScenarioError("ego pose lies outside the offline map extent")
    cells = max(1, round(window_size / offline.resolution))
    ox, oy = _snapped_origin(offline, ego, cells)
    grid = offline_window(offline, ox, oy, cells, cells)
    grid.observed[:] = False
    return OnlineMap(grid)


def recenter(online: OnlineMap, offline: GridMap, ego: Pose) -> None:
    """Move the window onto the ego pose.  Cells that stay inside keep their
    exact values and flags; entering cells are loaded fresh from offline."""
    grid = online.grid
    n = grid.width
    new_ox, new_oy = _snapped_origin(offline, ego, n)
    if abs(new_ox - grid.origin_x) < 1e-12 and abs(new_oy - grid.origin_y) < 1e-12:
        return
    moved = GridMap(grid.resolution, new_ox, new_oy, np.zeros((n, n)))
    _paste(moved, offline)
    moved.observed[:] = False  # entering cells have not been seen by this run
    _paste(moved, grid)
    grid.values, grid.observed = moved.values, moved.observed
    grid.origin_x, grid.origin_y = new_ox, new_oy


def online_step(online: OnlineMap, offline: GridMap, sweep: Sweep,
                decay: DecayParams, ground_z: float,
                thresholds: ObstacleThresholds = ObstacleThresholds()) -> InstantMap:
    """One 20 Hz-style cycle: recenter, decay once, then integrate the sweep.

    Decay runs before the occupancy update, so a cell both decayed and hit in
    the same step ends at update(decay(v)).  Returns the instantaneous map
    that was applied.
    """
    recenter(online, offline, sweep.ego_pose)
    grid = online.grid
    if decay.enabled:
        off_win = offline_window(offline, grid.origin_x, grid.origin_y,
                                 grid.width, grid.height)
        apply_decay(grid, off_win, decay)
    inst = build_instant_map(sweep, grid.origin_x, grid.origin_y,
                             grid.width, grid.height, grid.resolution,
                             ground_z, thresholds)
    apply_instant(grid, inst)
    return inst
