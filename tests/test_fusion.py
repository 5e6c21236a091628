from __future__ import annotations

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from conftest import MINI_CONFIG, decay_cell_pow
from hypothesis import assume, example, given, settings, strategies as st
from scipy import ndimage

from mapdecay import (
    AlignmentError,
    ConfigError,
    DecayParams,
    GridMap,
    LogError,
    ParameterError,
    ScenarioError,
    apply_decay,
    apply_instant,
    build_instant_map,
    build_offline,
    clean_offline,
    config_from_dict,
    ego_pose_at,
    online_init,
    online_step,
    recenter,
    simulate_sweep,
)
from mapdecay import fusion
from mapdecay.fusion import CleanParams, offline_window
from mapdecay.grid import L_MAX, L_MIN, logodds_from_prob
from mapdecay.instant import KIND_FREE_SET, KIND_OCCUPIED, L_FREE_SET, L_OCC, InstantMap
from mapdecay.scenario import build_offline_phase
from mapdecay.world import Pose


@st.composite
def _fold_cases(draw):
    """Pre-sweep values and flags of a small grid, and per sweep a free and an
    occupied list of its flat cell indices: duplicates, cells in both lists and
    empty lists included."""
    h, w = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(st.sampled_from([L_MIN, L_MAX, L_FREE_SET, -0.0, 0.0]),
                      st.floats(L_MIN, L_MAX))
    values = draw(hnp.arrays(np.float64, (h, w), elements=value))
    observed = draw(hnp.arrays(np.bool_, (h, w)))
    cells = st.lists(st.integers(0, h * w - 1), max_size=3 * h * w).map(
        lambda c: np.array(c, dtype=np.int64))
    return values, observed, draw(st.lists(st.tuples(cells, cells), max_size=4))


class TestBuildOffline:
    def _sweep(self, mini_cfg, pose):
        return simulate_sweep(mini_cfg.world.without_dynamic(), pose, mini_cfg.sensor)

    def test_timestamps_must_increase(self, mini_cfg):
        pose = Pose(0, 0, 0, 0)
        sweeps = [self._sweep(mini_cfg, pose), self._sweep(mini_cfg, pose)]
        with pytest.raises(LogError):
            build_offline(sweeps, GridMap.blank(0.2, -24, -24, 240, 240), mini_cfg.thresholds)
        # a NaN time compares false both ways, so it must not hide a log that runs backwards
        for times in ([1.0, math.nan, 0.5], [math.nan, 1.0], [0.0, math.nan]):
            logged = [dataclasses.replace(sweeps[0], ego_pose=Pose(0, 0, 0, t)) for t in times]
            with pytest.raises(LogError):
                build_offline(logged, GridMap.blank(0.2, -24, -24, 240, 240), mini_cfg.thresholds)

    @given(_fold_cases())
    @example((np.array([[L_MAX, -0.0, L_MIN]]), np.array([[False, True, False]]),
              [(np.array([0, 1, 1, 2]), np.array([2, 0, 0])), (np.array([], dtype=np.int64),
                                                                np.array([1]))]))
    def test_list_fold_matches_the_dense_fold(self, case):
        # the dense fold marks a kind map, occupied last, and applies it
        values, observed, lists = case
        want = GridMap(0.2, 0.0, 0.0, values.copy(), observed.copy())
        for free, occupied in lists:
            kind = np.zeros(values.shape, dtype=np.uint8)
            kind.reshape(-1)[free] = KIND_FREE_SET
            kind.reshape(-1)[occupied] = KIND_OCCUPIED
            apply_instant(want, InstantMap(0.2, 0.0, 0.0, kind))
        got = GridMap(0.2, 0.0, 0.0, values.copy(), observed.copy())
        sweeps = [SimpleNamespace(ego_pose=Pose(0.0, 0.0, 0.0, t)) for t in range(len(lists))]
        drawn = iter(lists)
        with mock.patch.object(fusion, "sweep_cells", lambda sweep, grid, th: next(drawn)):
            build_offline(sweeps, got, None)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.observed, want.observed)

    def test_offline_phase_matches_a_loop_of_the_dense_fold(self, mini_cfg):
        cfg, lat = mini_cfg, mini_cfg.lattice
        world, rng = cfg.world.without_dynamic(), np.random.default_rng(cfg.seed)
        want = GridMap.blank(lat.resolution, lat.origin_x, lat.origin_y, lat.width, lat.height)
        for k in range(cfg.n_offline_ticks):
            pose = ego_pose_at(cfg.offline_trajectory,
                               cfg.offline_trajectory[0].t + k / cfg.offline_tick_rate)
            sweep = simulate_sweep(world, pose, cfg.sensor, rng)
            apply_instant(want, build_instant_map(sweep, want, cfg.thresholds))
        want = clean_offline(want, cfg.clean)
        got = build_offline_phase(cfg)
        assert got.values.tobytes() == want.values.tobytes()
        assert np.array_equal(got.observed, want.observed)

    def test_grid_of_strided_arrays_rejected(self, mini_cfg):
        # the fold writes through flat views, which a strided array has not
        strided = GridMap(0.2, -24, -24, np.zeros((240, 480))[:, ::2])
        with pytest.raises(ParameterError, match="C-contiguous"):
            build_offline([], strided, mini_cfg.thresholds)

    def test_wall_registered_occupied(self, mini_cfg):
        grid = build_offline_phase(mini_cfg)
        # the wall spans x in [-8, 8], y in [6, 6.4]
        r0, r1 = int((6.0 + 24) / 0.2), int((6.4 + 24) / 0.2)
        wall = grid.values[r0:r1, int(16 / 0.2):int(32 / 0.2)]
        assert (wall > 0).sum() > 50
        assert grid.observed.sum() > 10000


def ndimage_clean(grid, params):
    """Reference cleaner: the 8-connected components of ``scipy.ndimage.label``."""
    out = grid.copy()
    occ = out.values > logodds_from_prob(params.occ_threshold)
    labels, _ = ndimage.label(occ, structure=np.ones((3, 3), dtype=int))
    small = np.bincount(labels.reshape(-1), minlength=1) < params.min_component_cells
    small[0] = False  # the unoccupied cells
    out.values[small[labels]] = L_FREE_SET
    return out


def _occupied(shape, cells):
    """An observed free map holding 3.0 at each (row, col) of ``cells``."""
    values = np.full(shape, L_FREE_SET)
    values[tuple(np.transpose(cells))] = 3.0
    return GridMap(0.2, 0.0, 0.0, values, np.ones(shape, dtype=bool))


@st.composite
def _clean_cases(draw):
    h, w = draw(st.sampled_from([(0, None), (1, None), (None, 1), (None, None)]))
    h = draw(st.integers(0, 40)) if h is None else h
    w = draw(st.integers(0, 40)) if w is None else w
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    threshold = draw(st.floats(0.01, 0.99))
    occ = rng.random((h, w)) < draw(st.floats(0.0, 0.8))
    values = logodds_from_prob(threshold) + np.where(occ, 1.0, -1.0) * rng.uniform(0, 5, (h, w))
    params = CleanParams(threshold, draw(st.integers(1, 30)))
    return GridMap(0.2, 0.0, 0.0, values, rng.random((h, w)) < 0.5), params


class TestCleanOffline:
    @settings(max_examples=200, deadline=None)
    @given(_clean_cases())
    # an anti-diagonal chain of 6, joined by NW neighbours alone
    @example((_occupied((8, 8), [(1 + i, 6 - i) for i in range(6)]), CleanParams(0.5, 6)))
    # two 3-cell runs, apart on the map, at adjacent flat indices across a row end
    @example((_occupied((6, 8), [(2, 5), (2, 6), (2, 7), (3, 0), (3, 1), (3, 2)]),
              CleanParams(0.5, 4)))
    # a serpentine of 49 cells, which no single hooking round joins
    @example((_occupied((9, 9), [(r, c) for r in range(0, 9, 2) for c in range(9)]
                        + [(1, 8), (3, 0), (5, 8), (7, 0)]), CleanParams(0.5, 30)))
    def test_matches_ndimage_labelling(self, case):
        grid, params = case
        got, want = clean_offline(grid, params), ndimage_clean(grid, params)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.observed.tobytes() == want.observed.tobytes()

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

    def test_no_occupied_cell_leaves_the_map_alone(self):
        g = self._grid()
        g.values[3, 3] = 0.0  # at the threshold, not above it
        out = clean_offline(g, CleanParams(0.5, 6))
        assert out.values.tobytes() == g.values.tobytes()
        np.testing.assert_array_equal(out.observed, g.observed)
        empty = GridMap.blank(0.2, 0.0, 0.0, 0, 0)
        assert clean_offline(empty, CleanParams(0.5, 6)).shape == (0, 0)

    def test_holds_little_beyond_the_new_map(self):
        # a sparse prior of the workload extent, 800 x 2000 cells with about
        # 1 600 occupied: the cleaner indexes the occupied cells, not the extent
        rng = np.random.default_rng(7)
        g = GridMap(0.2, 0.0, 0.0, np.where(rng.random((800, 2000)) < 1e-3, 3.0, L_FREE_SET),
                    np.ones((800, 2000), dtype=bool))
        g.values[400:403, 1000:1003] = 3.0  # one component that stays
        tracemalloc.start()
        try:
            out = clean_offline(g, CleanParams(0.5, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = out.values.nbytes + out.observed.nbytes
        assert peak < 1.25 * kept, (peak, kept)
        assert out.values.tobytes() == ndimage_clean(g, CleanParams(0.5, 6)).values.tobytes()
        assert (out.values > 0.0).sum() >= 9

    def test_param_validation(self):
        with pytest.raises(ParameterError):
            CleanParams(0.0, 6)
        with pytest.raises(ParameterError):
            CleanParams(0.5, 0)


@pytest.fixture(scope="module")
def mini_prior():
    return build_offline_phase(config_from_dict(MINI_CONFIG))


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

    # the mini prior's cell edges and centres, and any point of its extent
    _MINI_X = st.one_of(st.integers(0, 239).map(lambda i: -24.0 + 0.2 * i),
                        st.integers(0, 239).map(lambda i: -24.0 + 0.2 * (i + 0.5)),
                        st.floats(-24.0, 24.0, exclude_max=True))

    @settings(max_examples=200, deadline=None)
    @given(window_size=st.one_of(
               st.sampled_from([0.0, -5.0, math.nan, math.inf, -math.inf, 0.2, 0.3]),
               st.floats(0.0, 0.6),  # under three cells
               st.floats(1.5 - 1e-9, 1.5 + 1e-9).map(lambda c: c * 0.2),
               st.floats(-10.0, 60.0)),
           x=_MINI_X, y=_MINI_X)
    @example(window_size=0.2, x=0.2, y=0.0)  # a one-cell window snapped off the ego
    @example(window_size=1e6, x=0.0, y=0.0)  # more cells than the address space holds
    def test_window_holds_the_ego_or_is_rejected(self, mini_prior, window_size, x, y):
        assume(mini_prior.contains_point(x, y))
        try:
            online = online_init(mini_prior, Pose(x, y, 0.0, 0.0), window_size)
        except ParameterError as exc:
            assert str(exc).startswith("window_size: ")
            rejected = str(exc)
        else:
            assert online.grid.contains_point(x, y)
            rejected = None
        if 0.0 < window_size < math.inf:  # the sizes the config's field check lets through
            # one rule: the config rejects the same sizes on the same lattice, in the same words
            try:
                config_from_dict(dict(MINI_CONFIG, window_size=window_size))
            except ConfigError as exc:
                assert str(exc) == rejected
            else:
                assert rejected is None

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
