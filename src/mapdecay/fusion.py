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
    occ_threshold: float
    min_component_cells: int

    def __post_init__(self) -> None:
        if not (0.0 < self.occ_threshold < 1.0):
            raise ParameterError("occ_threshold must be in (0, 1)")
        if self.min_component_cells < 1:
            raise ParameterError("min_component_cells must be at least 1")


def build_offline(sweeps: Iterable[Sweep], grid: GridMap, ground_z: float,
                  thresholds: ObstacleThresholds) -> None:
    """Integrate a logged pass, in time order, into ``grid`` in place."""
    last_t = None
    for sweep in sweeps:
        if last_t is not None and sweep.t <= last_t:
            raise LogError("log sweep timestamps must be strictly increasing")
        last_t = sweep.t
        apply_instant(grid, build_instant_map(sweep, grid, ground_z, thresholds))


def clean_offline(grid: GridMap, params: CleanParams) -> GridMap:
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


def offline_window(offline: GridMap, grid: GridMap) -> GridMap:
    """Offline values and flags over ``grid``'s cells, which lie on the
    offline lattice; out-of-extent cells are 0.0 and unobserved."""
    window = GridMap(grid.resolution, grid.origin_x, grid.origin_y, np.zeros(grid.shape))
    _paste(window, offline)
    return window


def _unseen_window(offline: GridMap, origin: tuple[float, float], cells: int) -> GridMap:
    """A square window of offline values with every cell unobserved."""
    window = GridMap.blank(offline.resolution, *origin, cells, cells)
    _paste(window, offline)
    window.observed[:] = False
    return window


def online_init(offline: GridMap, ego: Pose, window_size: float) -> OnlineMap:
    """Window centered on the ego, every cell copied from the offline map."""
    if not offline.contains_point(ego.x, ego.y):
        raise ScenarioError("ego pose lies outside the offline map extent")
    cells = max(1, round(window_size / offline.resolution))
    return OnlineMap(_unseen_window(offline, _snapped_origin(offline, ego, cells), cells))


def recenter(online: OnlineMap, offline: GridMap, ego: Pose) -> None:
    """Move the window onto the ego pose.  Cells that stay inside keep their
    exact values and flags; entering cells are loaded fresh from offline."""
    grid = online.grid
    origin = _snapped_origin(offline, ego, grid.width)
    if abs(origin[0] - grid.origin_x) < 1e-12 and abs(origin[1] - grid.origin_y) < 1e-12:
        return
    moved = _unseen_window(offline, origin, grid.width)
    _paste(moved, grid)
    grid.values, grid.observed = moved.values, moved.observed
    grid.origin_x, grid.origin_y = origin


def online_step(online: OnlineMap, offline: GridMap, sweep: Sweep,
                decay: DecayParams, ground_z: float,
                thresholds: ObstacleThresholds) -> InstantMap:
    """One 20 Hz-style cycle: recenter, decay once, then integrate the sweep.

    Decay runs before the occupancy update, so a cell both decayed and hit in
    the same step ends at update(decay(v)).  Returns the instantaneous map
    that was applied.
    """
    recenter(online, offline, sweep.ego_pose)
    grid = online.grid
    if decay.enabled:
        apply_decay(grid, offline_window(offline, grid), decay)
    inst = build_instant_map(sweep, grid, ground_z, thresholds)
    apply_instant(grid, inst)
    return inst
