from __future__ import annotations

import math

import numpy as np
import pytest
from conftest import decay_cell_pow
from hypothesis import given, settings, strategies as st

from mapdecay import (
    AlignmentError,
    DecayParams,
    GridMap,
    LogError,
    ParameterError,
    ScenarioError,
    apply_decay,
    build_offline,
    clean_offline,
    ego_pose_at,
    online_init,
    online_step,
    recenter,
    simulate_sweep,
)
from mapdecay.fusion import CleanParams, offline_window
from mapdecay.grid import L_MAX, L_MIN
from mapdecay.instant import KIND_OCCUPIED, L_FREE_SET, L_OCC
from mapdecay.scenario import build_offline_phase
from mapdecay.world import Pose


class TestBuildOffline:
    def _sweep(self, mini_cfg, pose):
        return simulate_sweep(mini_cfg.world.without_dynamic(), pose, mini_cfg.sensor)

    def test_timestamps_must_increase(self, mini_cfg):
        pose = Pose(0, 0, 0, 0)
        sweeps = [self._sweep(mini_cfg, pose), self._sweep(mini_cfg, pose)]
        with pytest.raises(LogError):
            build_offline(sweeps, GridMap.blank(0.2, -24, -24, 240, 240), mini_cfg.thresholds)

    def test_wall_registered_occupied(self, mini_cfg):
        grid = build_offline_phase(mini_cfg)
        # the wall spans x in [-8, 8], y in [6, 6.4]
        r0, r1 = int((6.0 + 24) / 0.2), int((6.4 + 24) / 0.2)
        wall = grid.values[r0:r1, int(16 / 0.2):int(32 / 0.2)]
        assert (wall > 0).sum() > 50
        assert grid.observed.sum() > 10000


class TestCleanOffline:
    def _grid(self):
        g = GridMap.blank(0.2, 0.0, 0.0, 20, 20)
        g.values[:] = L_FREE_SET
        g.observed[:] = True
        return g

    def test_small_component_removed_large_kept(self):
        g = self._grid()
        g.values[2:4, 2:4] = 3.0          # 4 cells, below the cutoff of 6
        g.values[10:13, 10:13] = 3.0      # 9 cells, kept
        out = clean_offline(g, CleanParams(0.5, 6))
        assert (out.values[2:4, 2:4] == L_FREE_SET).all()
        assert (out.values[10:13, 10:13] == 3.0).all()

    def test_diagonal_cells_form_one_component(self):
        g = self._grid()
        for i in range(6):                # 8-connected diagonal chain of 6
            g.values[i + 2, i + 2] = 3.0
        out = clean_offline(g, CleanParams(0.5, 6))
        assert (out.values > 0).sum() == 6

    def test_input_not_mutated_and_idempotent(self):
        g = self._grid()
        g.values[5, 5] = 3.0
        before = g.values.copy()
        out = clean_offline(g, CleanParams(0.5, 6))
        np.testing.assert_array_equal(g.values, before)
        again = clean_offline(out, CleanParams(0.5, 6))
        np.testing.assert_array_equal(out.values, again.values)

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            CleanParams(0.0, 6)
        with pytest.raises(ParameterError):
            CleanParams(0.5, 0)


class TestOnlineWindow:
    def _offline(self):
        rng = np.random.default_rng(2)
        g = GridMap(0.2, -24.0, -24.0, rng.uniform(-3, 3, (240, 240)),
                    rng.random((240, 240)) > 0.3)
        return g

    def test_init_copies_offline_values(self):
        off = self._offline()
        online = online_init(off, Pose(0, 0, 0, 0), window_size=20.0)
        g = online.grid
        assert online.prior is off
        assert g.values.shape == (100, 100)
        win = offline_window(off, g)
        np.testing.assert_array_equal(g.values, win.values)
        assert not g.observed.any()

    def test_window_snaps_to_offline_lattice(self):
        off = self._offline()
        online = online_init(off, Pose(0.07, -0.13, 0, 0), window_size=20.0)
        g = online.grid
        assert (g.origin_x - off.origin_x) / 0.2 == pytest.approx(
            round((g.origin_x - off.origin_x) / 0.2), abs=1e-9)

    def test_ego_outside_offline_rejected(self):
        with pytest.raises(ScenarioError):
            online_init(self._offline(), Pose(500.0, 0, 0, 0), 20.0)

    def test_recenter_preserves_staying_cells(self):
        off = self._offline()
        online = online_init(off, Pose(0, 0, 0, 0), window_size=20.0)
        g = online.grid
        g.values[50, 50] = 9.25
        g.observed[50, 50] = True
        x0, y0 = g.origin_x, g.origin_y
        recenter(online, Pose(2.0, 0, 0, 0))
        assert online.grid.origin_x == pytest.approx(x0 + 2.0)
        # the marked cell moved 10 columns west in window coordinates
        assert online.grid.values[50, 40] == 9.25
        assert online.grid.observed[50, 40]

    def test_recenter_loads_entering_cells_from_offline(self):
        off = self._offline()
        online = online_init(off, Pose(0, 0, 0, 0), window_size=20.0)
        online.grid.values[:] = 5.0
        recenter(online, Pose(2.0, 0, 0, 0))
        g = online.grid
        win = offline_window(off, g)
        np.testing.assert_array_equal(g.values[:, 90:], win.values[:, 90:])
        assert not g.observed[:, 90:].any()
        assert (g.values[:, :90] == 5.0).all()

    def test_offline_window_keeps_observed_flags(self):
        off = self._offline()
        win = offline_window(off, GridMap.blank(0.2, off.origin_x + 2.0, off.origin_y + 2.0,
                                                50, 50))
        np.testing.assert_array_equal(win.observed, off.observed[10:60, 10:60])

    def test_offline_window_inside_extent_is_a_read_only_view(self):
        off = self._offline()
        before = off.copy()
        win = offline_window(off, GridMap.blank(0.2, off.origin_x + 2.0, off.origin_y + 2.0,
                                                50, 50))
        for view, prior in ((win.values, off.values), (win.observed, off.observed)):
            assert np.shares_memory(view, prior)
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = 1
        np.testing.assert_array_equal(off.values, before.values)
        np.testing.assert_array_equal(off.observed, before.observed)

    def test_decay_over_the_view_matches_decay_over_a_copy(self):
        off = self._offline()
        online = online_init(off, Pose(3.0, -2.0, 0, 0), window_size=20.0)
        online.grid.values[:] = np.random.default_rng(4).uniform(L_MIN, L_MAX, (100, 100))
        on_view, on_copy = online.grid, online.grid.copy()
        win = offline_window(off, on_view)
        every = np.arange(on_view.values.size)
        apply_decay(on_view, win, DecayParams(10.0, 1.0), every)
        apply_decay(on_copy, win.copy(), DecayParams(10.0, 1.0), every)
        assert np.array_equal(on_view.values, on_copy.values)

    def test_decay_leaves_the_read_only_prior_unchanged(self):
        off = self._offline()
        before = off.copy()
        online = online_init(off, Pose(3.0, -2.0, 0, 0), window_size=20.0)
        online.grid.values[:] = np.random.default_rng(5).uniform(L_MIN, L_MAX, (100, 100))
        win = offline_window(off, online.grid)
        apply_decay(online.grid, win, DecayParams(10.0, 1.0), np.arange(win.values.size))
        assert not win.values.flags.writeable and np.shares_memory(win.values, off.values)
        assert off.values.tobytes() == before.values.tobytes()
        np.testing.assert_array_equal(off.observed, before.observed)

    def test_offline_window_outside_extent_unknown(self):
        off = self._offline()
        win = offline_window(off, GridMap.blank(0.2, off.origin_x - 2.0, off.origin_y, 50, 50))
        assert (win.values[:, :10] == 0.0).all()
        assert not win.observed[:, :10].any()
        # a window hanging over the extent is a fresh copy, not a view
        for cells, prior in ((win.values, off.values), (win.observed, off.observed)):
            assert cells.flags.writeable and not np.shares_memory(cells, prior)

    @pytest.mark.parametrize("resolution, shift", [(0.4, 0.0), (0.2, 0.1)],
                             ids=["coarser", "half_cell_off"])
    def test_offline_window_on_another_lattice_rejected(self, resolution, shift):
        off = self._offline()
        with pytest.raises(AlignmentError, match="one lattice"):
            offline_window(off, GridMap.blank(resolution, off.origin_x + shift,
                                              off.origin_y, 50, 50))


def _recenter_reference(values, observed, old_origin, new_origin, offline):
    """Cell-by-cell expectation for a window moved between two origins: a
    cell whose center lay in the old window keeps its value and flag, any
    other cell takes the offline value (0.0 outside the extent), unobserved."""
    res = offline.resolution
    n = values.shape[0]
    exp_values = np.zeros((n, n))
    exp_observed = np.zeros((n, n), dtype=bool)
    for r in range(n):
        for c in range(n):
            x = new_origin[0] + (c + 0.5) * res
            y = new_origin[1] + (r + 0.5) * res
            oc = math.floor((x - old_origin[0]) / res)
            orow = math.floor((y - old_origin[1]) / res)
            if 0 <= oc < n and 0 <= orow < n:
                exp_values[r, c] = values[orow, oc]
                exp_observed[r, c] = observed[orow, oc]
                continue
            fc, fr = offline.cell_of(x, y)
            if 0 <= fc < offline.width and 0 <= fr < offline.height:
                exp_values[r, c] = offline.values[fr, fc]
    return exp_values, exp_observed


class TestRecenterProperty:
    # a 30x20-cell offline map at 0.5 m and an 8-cell window; ego positions
    # reach 6 cells past every edge, so windows hang over the extent and
    # consecutive jumps range from none to well over a window width
    OFFLINE = GridMap(0.5, -5.0, -3.0, np.random.default_rng(5).uniform(-3, 3, (20, 30)),
                      np.random.default_rng(6).random((20, 30)) > 0.3)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.floats(-8.0, 13.0), st.floats(-6.0, 10.0)),
                    min_size=1, max_size=5),
           st.integers(0, 2**32 - 1))
    def test_recenter_matches_cellwise_reference(self, path, seed):
        off = self.OFFLINE
        rng = np.random.default_rng(seed)
        online = online_init(off, Pose(2.0, 2.0, 0, 0), window_size=4.0)
        for x, y in path:
            g = online.grid
            g.values[:] = rng.uniform(5.0, 9.0, g.values.shape)
            g.observed[:] = rng.random(g.values.shape) > 0.5
            values, observed = g.values.copy(), g.observed.copy()
            old_origin = (g.origin_x, g.origin_y)
            recenter(online, Pose(x, y, 0, 0))
            g = online.grid
            # snapped to the offline lattice, with the ego in the central cells
            assert (g.origin_x - off.origin_x) / 0.5 == pytest.approx(
                round((g.origin_x - off.origin_x) / 0.5), abs=1e-9)
            assert abs(g.origin_x + 2.0 - x) <= 0.25 + 1e-9
            assert abs(g.origin_y + 2.0 - y) <= 0.25 + 1e-9
            exp_values, exp_observed = _recenter_reference(
                values, observed, old_origin, (g.origin_x, g.origin_y), off)
            np.testing.assert_array_equal(g.values, exp_values)
            np.testing.assert_array_equal(g.observed, exp_observed)


class TestOnlineStep:
    def test_decay_runs_before_update(self, mini_cfg):
        offline = build_offline_phase(mini_cfg)
        online = online_init(offline, Pose(0, 0, 0, 0), window_size=20.0)
        decay = DecayParams(10.0, 1.0)
        sweep = simulate_sweep(mini_cfg.world.without_dynamic(), Pose(0, 0, 0, 0),
                               mini_cfg.sensor)
        # seed an occupied-this-tick cell away from its offline value and
        # check the order: decayed first, evidence added after
        inst0 = online_step(online, sweep, DecayParams(10, 1, enabled=False),
                            mini_cfg.thresholds)
        r, c = np.argwhere(inst0.kind == KIND_OCCUPIED)[0]
        g = online.grid
        g.values[r, c] = 0.0
        online.deviating[r, c] = True
        win = offline_window(offline, g)
        off_v = win.values[r, c]
        expect = (0.0 * 10 + off_v * 1) / 11.0 + L_OCC
        online_step(online, sweep, decay, mini_cfg.thresholds)
        assert g.values[r, c] == pytest.approx(expect, rel=1e-12)

    def test_unobserved_cell_converges_to_offline(self, mini_cfg):
        offline = build_offline_phase(mini_cfg)
        online = online_init(offline, Pose(0, 0, 0, 0), window_size=20.0)
        g = online.grid
        # a cell inside the blind disk never receives evidence
        r, c = g.cell_of(1.0, 1.0)[1], g.cell_of(1.0, 1.0)[0]
        win = offline_window(offline, g)
        g.values[r, c] = win.values[r, c] + 8.0
        online.deviating[r, c] = True
        sweep = simulate_sweep(mini_cfg.world.without_dynamic(), Pose(0, 0, 0, 0),
                               mini_cfg.sensor)
        decay = DecayParams(10.0, 1.0)
        for k in range(60):
            online_step(online, sweep, decay, mini_cfg.thresholds)
        expect = decay_cell_pow(win.values[r, c] + 8.0, win.values[r, c], decay, 60)
        assert g.values[r, c] == pytest.approx(expect, rel=1e-12)
        assert not g.observed[r, c]

    def test_cells_without_evidence_stay_exactly_at_the_prior(self, mini_cfg):
        offline = build_offline_phase(mini_cfg)
        online = online_init(offline, Pose(0, 0, 0, 0), window_size=20.0)
        sweep = simulate_sweep(mini_cfg.world.without_dynamic(), Pose(0, 0, 0, 0),
                               mini_cfg.sensor)
        touched = np.zeros(online.grid.shape, dtype=bool)
        for _ in range(60):
            inst = online_step(online, sweep, DecayParams(10.0, 1.0), mini_cfg.thresholds)
            touched |= inst.kind != 0
        g = online.grid
        assert (~touched).sum() > 0
        np.testing.assert_array_equal(g.values[~touched],
                                      offline_window(offline, g).values[~touched])

    def test_disabled_decay_keeps_untouched_cells_bit_identical(self, mini_cfg):
        offline = build_offline_phase(mini_cfg)
        online = online_init(offline, Pose(0, 0, 0, 0), window_size=20.0)
        g = online.grid
        before = g.values.copy()
        sweep = simulate_sweep(mini_cfg.world.without_dynamic(), Pose(0, 0, 0, 0),
                               mini_cfg.sensor)
        inst = online_step(online, sweep, DecayParams(10, 1, enabled=False),
                           mini_cfg.thresholds)
        untouched = inst.kind == 0
        np.testing.assert_array_equal(g.values[untouched], before[untouched])
