"""The online window decays and scores only the cells that deviate from the
prior; these tests hold it to the whole-window rule it replaces.

``DenseOnline`` is that rule, kept here as the oracle: each step recenters
by copying, decays every window cell and folds in the sweep, and the
per-tick metrics are dense passes over the window.  It runs beside the
library at every tick of a run, which must match it bit for bit.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import conftest
import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mapdecay import (
    DecayParams,
    GridMap,
    apply_instant,
    config_from_dict,
    ego_pose_at,
    load_config,
    online_init,
    online_step,
    read_map,
    run_scenario,
)
from mapdecay import fusion, scenario
from mapdecay.grid import L_MAX, L_MIN, decay_cell, deviates, logodds_from_prob
from mapdecay.instant import L_FREE_SET, InstantMap
from mapdecay.scenario import build_offline_phase, occupancy_iou
from mapdecay.world import Pose

OVERTAKE = Path(__file__).resolve().parent.parent / "configs" / "overtake.json"
OCC_CUT = logodds_from_prob(0.9)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values).view(np.int64)


def _paste(dst: GridMap, src: GridMap) -> None:
    dc, dr = dst.offset_in(src)
    c0, c1 = max(dc, 0), min(dc + dst.width, src.width)
    r0, r1 = max(dr, 0), min(dr + dst.height, src.height)
    if c0 < c1 and r0 < r1:
        dst.values[r0 - dr:r1 - dr, c0 - dc:c1 - dc] = src.values[r0:r1, c0:c1]
        dst.observed[r0 - dr:r1 - dr, c0 - dc:c1 - dc] = src.observed[r0:r1, c0:c1]


def _prior(offline: GridMap, cell, cells: int) -> GridMap:
    """Offline values and flags over a square from ``offline``'s ``cell``;
    0.0 and unobserved outside the extent."""
    res = offline.resolution
    window = GridMap.blank(res, offline.origin_x + cell[0] * res,
                           offline.origin_y + cell[1] * res, cells, cells)
    _paste(window, offline)
    return window


class DenseOnline:
    """The whole-window online map: every step decays every cell."""

    def __init__(self, offline: GridMap, ego: Pose, window_size: float):
        self.cells = max(1, round(window_size / offline.resolution))
        self.grid = _prior(offline, self._cell(offline, ego), self.cells)
        self.grid.observed[:] = False

    def _cell(self, offline, ego):
        half = self.cells * offline.resolution / 2.0
        return (round((ego.x - half - offline.origin_x) / offline.resolution),
                round((ego.y - half - offline.origin_y) / offline.resolution))

    def step(self, offline: GridMap, ego: Pose, inst: InstantMap, decay: DecayParams) -> None:
        cell = self._cell(offline, ego)
        if cell != self.grid.offset_in(offline):
            moved = _prior(offline, cell, self.cells)
            moved.observed[:] = False
            _paste(moved, self.grid)
            self.grid = moved
        if decay.enabled:
            self.grid.values = decay_cell(self.grid.values, self.prior(offline).values, decay)
        apply_instant(self.grid, inst)

    def prior(self, offline: GridMap) -> GridMap:
        return _prior(offline, self.grid.offset_in(offline), self.cells)

    def metrics(self, offline: GridMap) -> tuple[float, int, int]:
        g, prior = self.grid, self.prior(offline)
        static = (prior.values > 0.0) & prior.observed & g.observed
        return (occupancy_iou(g.values, prior.values, g.observed),
                int(np.count_nonzero(static)),
                int(np.count_nonzero(static & (g.values > OCC_CUT))))


def check_against(dense: DenseOnline, online, decay: DecayParams) -> None:
    """The window matches the dense map bit for bit, ``deviating`` marks
    exactly the cells that :func:`deviates` from their prior, and every cell
    outside it equals its prior value and is a fixed point of decay."""
    g = online.grid
    assert (g.origin_x, g.origin_y) == (dense.grid.origin_x, dense.grid.origin_y)
    assert np.array_equal(_bits(g.values), _bits(dense.grid.values))
    assert np.array_equal(g.observed, dense.grid.observed)
    settled = ~online.deviating
    prior = dense.prior(online.prior).values
    assert np.array_equal(online.deviating, deviates(g.values, prior))
    assert np.array_equal(g.values[settled], prior[settled])
    step = decay_cell(g.values, prior, decay)
    assert np.array_equal(_bits(step)[settled], _bits(g.values)[settled])


def run_beside_oracle(cfg, offline: GridMap, out: Path) -> tuple:
    """``run_scenario`` with the dense oracle stepped and checked after every
    library step; returns the run's metrics and the oracle's per-tick
    (iou, static_total, static_ok)."""
    dense = DenseOnline(offline, ego_pose_at(cfg.ego_trajectory, 0.0), cfg.window_size)
    expected = []
    library_step = scenario.online_step

    def step(online, sweep, decay, thresholds):
        inst = library_step(online, sweep, decay, thresholds)
        dense.step(online.prior, sweep.ego_pose, inst, decay)
        check_against(dense, online, decay)
        expected.append(dense.metrics(online.prior))
        return inst

    with mock.patch.object(scenario, "online_step", step), \
            contextlib.redirect_stdout(io.StringIO()):
        metrics = run_scenario(cfg, offline=offline, output_dir=str(out))
    assert len(expected) == cfg.n_ticks
    return metrics, expected


def _moving(raw: dict) -> dict:
    """Test 9's moving ego: 24 m across the mini extent."""
    raw["ego_trajectory"] = [[0.0, -12.0, -1.0, 0.0], [7.0, 12.0, 1.0, 0.0]]
    raw["sensor"]["max_range"] = 8.0
    return raw


def _crowd(raw: dict) -> dict:
    """Five carts crossing north and south of the ego and three parked ones."""
    carts = raw["world"]["dynamic_objects"]
    for i, x in enumerate((-9.0, -5.0, 5.0, 9.0)):
        y0, y1 = (-8.0, 8.0) if i % 2 else (8.0, -8.0)
        carts.append({"name": f"cart{i}", "length": 1.0, "width": 1.6, "height": 2.4,
                      "trajectory": [[0.5 + i, x, y0, 1.5708], [3.5 + i, x, y1, 1.5708]]})
    raw["world"]["static_boxes"] += [
        {"x_min": x, "x_max": x + 1.0, "y_min": -5.0, "y_max": -3.0, "z_top": 2.4}
        for x in (-7.5, 1.5, 6.5)]
    return raw


def _overhang(raw: dict) -> dict:
    """The ego drives up the east edge, so the 20 m window hangs over the
    +-24 m extent to the east, then to the south and north."""
    raw["ego_trajectory"] = [[0.0, 17.0, -20.0, 0.0], [7.0, 21.0, 21.0, 0.0]]
    return raw


def _no_decay(raw: dict) -> dict:
    raw["decay"]["enabled"] = False
    return raw


MINI_CASES = {
    "mini": lambda raw: raw,
    "crowd_mini": _crowd,
    "moving_mini": _moving,
    "overhang_mini": _overhang,
    "moving_mini_no_decay": lambda raw: _no_decay(_moving(raw)),
}


def _assert_metrics_match(metrics, expected) -> None:
    iou, static_total, static_ok = (np.array(v) for v in zip(*expected))
    assert metrics.iou.tolist() == iou.tolist()
    assert metrics.static_total.tolist() == static_total.tolist()
    assert metrics.static_ok.tolist() == static_ok.tolist()


@pytest.mark.parametrize("case", sorted(MINI_CASES))
def test_mini_runs_match_the_dense_oracle(case, tmp_path):
    cfg = config_from_dict(MINI_CASES[case](copy.deepcopy(conftest.MINI_CONFIG)))
    offline = build_offline_phase(cfg)
    metrics, expected = run_beside_oracle(cfg, offline, tmp_path)
    _assert_metrics_match(metrics, expected)
    assert metrics.trace_offline.size > 0
    if case == "overhang_mini":  # the window hangs over the extent at both ends
        for knot in cfg.ego_trajectory:
            g = online_init(offline, knot, cfg.window_size).grid
            dc, dr = g.offset_in(offline)
            assert dc + g.width > offline.width and not 0 <= dr <= offline.height - g.height


def test_overtake_matches_the_dense_oracle(tmp_path):
    # the van passes the ego and its traces fade within the first 12 s
    cfg = dataclasses.replace(load_config(OVERTAKE), duration=12.0)
    metrics, expected = run_beside_oracle(cfg, build_offline_phase(cfg), tmp_path)
    _assert_metrics_match(metrics, expected)
    assert (metrics.last_observed >= 0).sum() > 400


def test_prior_holding_negative_zeros(tmp_path):
    # a prebuilt prior may hold -0.0; whole-window decay turns an online
    # -0.0 into +0.0 on its first step, and the settled window must too
    cfg = config_from_dict(_moving(copy.deepcopy(conftest.MINI_CONFIG)))
    offline = build_offline_phase(cfg)
    zeros = offline.values == 0.0
    offline.values[zeros] = -0.0
    metrics, expected = run_beside_oracle(cfg, offline, tmp_path)
    _assert_metrics_match(metrics, expected)
    final = read_map(tmp_path / "online_final.ogm")
    was_negative = fusion.prior_cells(zeros, offline, final, False)
    assert was_negative.sum() > 1000
    assert not np.signbit(final.values[was_negative & (final.values == 0.0)]).any()


# a 30x20-cell prior at 0.5 m holding the values the mask has to tell
# apart, and an 8-cell window whose ego reaches 6 cells past every edge
PRIOR_VALUES = st.sampled_from([0.0, -0.0, L_FREE_SET, -L_FREE_SET, L_MIN, L_MAX, 1.5, -0.25])
DECAYS = [DecayParams(10.0, 1.0), DecayParams(1.0, 1.0), DecayParams(0.0, 1.0),
          DecayParams(1.0, 0.0), DecayParams(10.0, 1.0, enabled=False)]


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, (20, 30), elements=PRIOR_VALUES),
       hnp.arrays(np.bool_, (20, 30)),
       st.sampled_from(DECAYS),
       st.lists(st.tuples(st.floats(-8.0, 13.0), st.floats(-6.0, 10.0)),
                min_size=1, max_size=8),
       st.integers(0, 2**32 - 1))
def test_settled_cells_hold_the_dense_bits(values, observed, decay, path, seed):
    offline = GridMap(0.5, -5.0, -3.0, values, observed)
    rng = np.random.default_rng(seed)
    start = Pose(2.0, 2.0, 0.0, 0.0)
    online = online_init(offline, start, window_size=4.0)
    dense = DenseOnline(offline, start, 4.0)
    check_against(dense, online, decay)

    def random_evidence(sweep, grid, thresholds):
        return InstantMap(grid.resolution, grid.origin_x, grid.origin_y,
                          rng.choice(np.uint8([0, 0, 1, 2]), size=grid.shape))

    with mock.patch.object(fusion, "build_instant_map", random_evidence):
        for t, (x, y) in enumerate(path):
            ego = Pose(x, y, 0.0, float(t))
            inst = online_step(online, SimpleNamespace(ego_pose=ego), decay, None)
            dense.step(offline, ego, inst, decay)
            check_against(dense, online, decay)
