"""Offline map construction and the online map lifecycle.

The offline map accumulates instantaneous maps over a logged pass and is
cleaned by removing small occupied components (an automated stand-in for
manual post-processing).  The online map is a square window recentered on the
ego vehicle, initialized from the offline map; each step decays the window
toward the offline values before folding in the new sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import LogError, ParameterError, ScenarioError
from .grid import DecayParams, GridMap, apply_decay, logodds_from_prob, update_cell
from .instant import (L_FREE_SET, L_OCC, ObstacleThresholds, InstantMap, apply_instant,
                      build_instant_map, sweep_cells)
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


def build_offline(sweeps: Iterable[Sweep], grid: GridMap,
                  thresholds: ObstacleThresholds) -> None:
    """Integrate a logged pass, in time order, into ``grid`` in place, through
    flat views of its C-contiguous arrays.  Each sweep folds its cell lists as
    :func:`apply_instant` folds their map: occupied cells update from their
    pre-sweep values and are written last, so they win over free ones."""
    if not (grid.values.flags.c_contiguous and grid.observed.flags.c_contiguous):
        raise ParameterError("build_offline needs a grid of C-contiguous arrays")
    values, observed = grid.values.reshape(-1), grid.observed.reshape(-1)
    last_t = -np.inf
    for sweep in sweeps:
        if not sweep.ego_pose.t > last_t:  # world.check_knots's rule, streamed; NaN fails too
            raise LogError("log sweep timestamps must be strictly increasing")
        last_t = sweep.ego_pose.t
        free, occupied = sweep_cells(sweep, grid, thresholds)
        occ = update_cell(values[occupied], L_OCC)
        values[free] = L_FREE_SET
        values[occupied] = occ
        observed[free] = observed[occupied] = True


def clean_offline(grid: GridMap, params: CleanParams) -> GridMap:
    """Remove small 8-connected occupied components (idempotent, returns a new map).
    Union-find: hook each touching pair's larger root to its smaller, jump pointers, repeat."""
    cells = np.flatnonzero(grid.values > logodds_from_prob(params.occ_threshold))
    w = grid.width
    col = cells % w
    a, b = [], []  # touching pairs as indices into cells: E, N, NE, NW neighbours
    for step, ok in ((1, col < w - 1), (w, True), (w + 1, col < w - 1), (w - 1, col > 0)):
        j = np.searchsorted(cells, cells + step)
        hit = (np.take(cells, j, mode="clip") == cells + step) & ok
        a.append(np.flatnonzero(hit))
        b.append(j[hit])
    a, b = np.concatenate(a), np.concatenate(b)
    root = np.arange(cells.size)
    while (root[a] != root[b]).any():
        np.minimum.at(root, np.maximum(root[a], root[b]), np.minimum(root[a], root[b]))
        while (root[root] != root).any():
            root = root[root]
    out = grid.copy()
    out.values.flat[cells[np.bincount(root)[root] < params.min_component_cells]] = L_FREE_SET
    return out


@dataclass
class OnlineMap:
    """The runtime map: a cell-snapped square window over the extent of
    ``prior``, the offline map it was cut from.

    Every cell outside ``deviating`` equals its prior value and is left bit
    for bit by a decay step, so code that writes ``grid.values`` must mark
    what it writes.  ``unlike_free`` marks the prior's cells that are not
    exactly ``L_FREE_SET``."""
    grid: GridMap
    prior: GridMap
    deviating: np.ndarray
    unlike_free: np.ndarray


def _snapped_cell(offline: GridMap, ego: Pose, window_cells: int) -> tuple[int, int]:
    """(col, row) in ``offline`` of cell (0, 0) of the window centered on the ego."""
    res = offline.resolution
    half = window_cells * res / 2.0
    return (round((ego.x - half - offline.origin_x) / res),
            round((ego.y - half - offline.origin_y) / res))


def _shared(dst: GridMap, src: GridMap):
    """The cells ``dst`` shares with ``src`` on their lattice, indexing each."""
    dc, dr = dst.offset_in(src)
    c0, r0 = max(dc, 0), max(dr, 0)
    c1 = max(min(dc + dst.width, src.width), c0)
    r1 = max(min(dr + dst.height, src.height), r0)
    return np.s_[r0 - dr:r1 - dr, c0 - dc:c1 - dc], np.s_[r0:r1, c0:c1]


def prior_cells(layer: np.ndarray, offline: GridMap, grid: GridMap, fill) -> np.ndarray:
    """``layer``, an array over ``offline``'s cells, over ``grid``'s: a read-only
    view inside the offline extent, else a copy holding ``fill`` outside it."""
    mine, theirs = _shared(grid, offline)
    cut = layer[theirs]
    if cut.shape == grid.shape:
        cut.flags.writeable = False
        return cut
    window = np.full(grid.shape, fill, dtype=layer.dtype)
    window[mine] = cut
    return window


def offline_window(offline: GridMap, grid: GridMap) -> GridMap:
    """Offline values and flags over ``grid``'s cells, by :func:`prior_cells`:
    out-of-extent cells are 0.0 and unobserved."""
    return GridMap(grid.resolution, grid.origin_x, grid.origin_y,
                   prior_cells(offline.values, offline, grid, 0.0),
                   prior_cells(offline.observed, offline, grid, False))


def _move(online: OnlineMap, cell: tuple[int, int], cells: int) -> None:
    """Make the window ``cells`` square from the prior's (col, row) ``cell``.
    Staying cells keep their values, flags and marks; entering cells load the
    prior, unobserved and unmarked."""
    old, offline, res = online.grid, online.prior, online.prior.resolution
    new = GridMap(res, offline.origin_x + cell[0] * res, offline.origin_y + cell[1] * res,
                  np.empty((cells, cells)), np.zeros((cells, cells), dtype=bool))
    deviating = np.empty(new.shape, dtype=bool)
    kept, there = _shared(new, old)
    new.values[kept] = old.values[there]
    new.observed[kept] = old.observed[there]
    deviating[kept] = online.deviating[there]
    prior = prior_cells(offline.values, offline, new, 0.0)
    rows, cols = kept
    for entering in (np.s_[:rows.start], np.s_[rows.stop:],
                     np.s_[rows, :cols.start], np.s_[rows, cols.stop:]):
        new.values[entering] = prior[entering]
        deviating[entering] = False
    online.grid, online.deviating = new, deviating


def window_cells(lattice: GridMap, window_size: float) -> int:
    """Cells a side of a ``window_size`` m window cut from ``lattice``, or ParameterError."""
    side = window_size / lattice.resolution
    side = round(side) if np.isfinite(side) else side
    if not side >= 2:  # a one-cell window, snapped half to even, can miss the ego's cell
        raise ParameterError(f"window_size: must be at least two {lattice.resolution!r} m cells")
    if side * side > lattice.width * lattice.height:  # so it fits when the lattice does
        raise ParameterError(f"window_size: {side}x{side} cells exceed the extent's "
                             f"{lattice.width}x{lattice.height}")
    return side


def online_init(offline: GridMap, ego: Pose, window_size: float) -> OnlineMap:
    """Window centered on the ego, every cell copied from the offline map."""
    if not offline.contains_point(ego.x, ego.y):
        raise ScenarioError("ego pose lies outside the offline map extent")
    cells = window_cells(offline, window_size)
    online = OnlineMap(GridMap.blank(offline.resolution, offline.origin_x, offline.origin_y, 0, 0),
                       offline, np.zeros((0, 0), dtype=bool), offline.values != L_FREE_SET)
    _move(online, _snapped_cell(offline, ego, cells), cells)
    return online


def recenter(online: OnlineMap, ego: Pose) -> None:
    """Move the window onto the ego pose.  Cells that stay inside keep their
    exact values and flags; entering cells are loaded fresh from the prior."""
    grid = online.grid
    cell = _snapped_cell(online.prior, ego, grid.width)
    if cell != grid.offset_in(online.prior):
        _move(online, cell, grid.width)


def online_step(online: OnlineMap, sweep: Sweep, decay: DecayParams,
                thresholds: ObstacleThresholds) -> InstantMap:
    """One 20 Hz-style cycle: recenter, decay once, then integrate the sweep.

    Decay runs before the occupancy update, so a cell both decayed and hit in
    the same step ends at update(decay(v)).  Returns the instantaneous map
    that was applied.
    """
    recenter(online, sweep.ego_pose)
    grid, deviating, offline = online.grid, online.deviating, online.prior
    if decay.enabled:
        cells = np.flatnonzero(deviating)
        np.put(deviating, cells, apply_decay(grid, offline_window(offline, grid), decay, cells))
    inst = build_instant_map(sweep, grid, thresholds)
    free, occ = apply_instant(grid, inst)
    # a written cell is marked afresh: a free one where the prior is not
    # L_FREE_SET, an occupied one where its new value differs from the prior
    deviating &= ~free
    deviating |= free & prior_cells(online.unlike_free, offline, grid, True)
    at = np.divmod(occ, grid.width)
    deviating[at] = grid.values[at] != prior_cells(offline.values, offline, grid, 0.0)[at]
    return inst
