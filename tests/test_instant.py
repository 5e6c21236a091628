from __future__ import annotations

import math

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from mapdecay import (
    AlignmentError,
    GridMap,
    SensorConfig,
    apply_instant,
    build_instant_map,
    simulate_sweep,
)
from mapdecay.grid import L_MAX, L_MIN, update_cell
from mapdecay.instant import (
    KIND_FREE_SET,
    KIND_OCCUPIED,
    KIND_UNTOUCHED,
    L_FREE_SET,
    L_OCC,
    InstantMap,
    ObstacleThresholds,
    obstacle_mask,
    raycast_cells,
)
from mapdecay.world import Box, Pose, Rect, World


def dense_line_cells(frm, to, step=0.01):
    """Reference raycast: sample the segment between cell centers finely and
    round every sample to a cell."""
    fx, fy = frm
    tx, ty = to
    n = max(abs(tx - fx), abs(ty - fy))
    if n == 0:
        return []
    ts = np.arange(0.0, 1.0 + step / n / 2, step / n)
    cols = np.rint(fx + ts * (tx - fx)).astype(int)
    rows = np.rint(fy + ts * (ty - fy)).astype(int)
    seen = []
    for c, r in zip(cols, rows):
        if not seen or seen[-1] != (c, r):
            seen.append((c, r))
    return seen


def line_cells(frm, to):
    """The batch raycast of one ray, as a list of (col, row) cells."""
    _, cols, rows = raycast_cells(np.array([frm]), np.array([to]))
    return list(zip(cols.tolist(), rows.tolist()))


class TestRaycast:
    def test_axis_aligned(self):
        assert line_cells((0, 0), (5, 0)) == [(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)]
        assert line_cells((0, 0), (0, 3)) == [(0, 0), (0, 1), (0, 2)]

    def test_diagonal(self):
        assert line_cells((0, 0), (3, 3)) == [(0, 0), (1, 1), (2, 2)]

    def test_empty_when_endpoints_coincide(self):
        assert line_cells((4, 4), (4, 4)) == []

    @pytest.mark.parametrize("starts, ends", [
        (np.empty((0, 2)), np.empty((0, 2))),  # no rays
        ([(4, 4), (-2, 7)], [(4, 4), (-2, 7)]),  # only zero-length rays
    ], ids=["no_rays", "zero_length"])
    def test_no_cells_are_three_empty_int64_arrays(self, starts, ends):
        for out in raycast_cells(np.array(starts), np.array(ends)):
            assert out.shape == (0,) and out.dtype == np.int64

    def test_reverse_direction(self):
        cells = line_cells((5, 2), (1, 2))
        assert cells == [(5, 2), (4, 2), (3, 2), (2, 2)]

    def test_against_dense_sampling(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            frm = tuple(rng.integers(0, 16, 2).tolist())
            to = tuple(rng.integers(0, 16, 2).tolist())
            cells = line_cells(frm, to)
            oracle = dense_line_cells(frm, to)
            # one cell per major-axis step, each on the sampled line,
            # starting at frm and stopping short of to
            assert len(cells) == max(abs(to[0] - frm[0]), abs(to[1] - frm[1]))
            assert set(cells) <= set(oracle)
            if cells:
                assert cells[0] == frm
            assert to not in cells


class TestObstacleMask:
    def _mask(self, heights, ground_z, thresholds, returned=None):
        z = np.asarray(heights, dtype=np.float64)
        returned = np.isfinite(z) if returned is None else np.asarray(returned)
        return obstacle_mask(z, returned, ground_z, thresholds)

    def test_height_window(self):
        mask = self._mask([0.0, 0.2, 0.31, 2.0, 3.99, 4.0, 5.0], 0.0,
                          ObstacleThresholds(0.3, 4.0))
        assert mask.tolist() == [False, False, True, True, True, False, False]
        assert np.argmax(mask) == 2

    def test_no_returns(self):
        mask = self._mask([float("nan")] * 4, 0.0, ObstacleThresholds(0.3, 4.0))
        assert not mask.any()
        # a beam without a return is never an obstacle, whatever its height
        mask = self._mask([2.0, 2.0], 0.0, ObstacleThresholds(0.3, 4.0), returned=[False, True])
        assert mask.tolist() == [False, True]

    def test_ground_offset(self):
        mask = self._mask([1.0, 1.4], 1.0, ObstacleThresholds(0.3, 4.0))
        assert mask.tolist() == [False, True]


class _Scene:
    """Stationary ego at the origin, one tall box to the east, on a ground
    plane at ``ground_z``."""

    def __init__(self, ground_z=0.0):
        self.world = World(ground_z, Rect(-50, -50, 50, 50),
                           [Box(6.0, 7.0, -1.0, 1.0, ground_z + 3.0)], [])
        self.cfg = SensorConfig(vertical_angles=np.radians([-20.0, -10.0, -3.0, 4.0]),
                                azimuth_steps=360, max_range=30.0, mount_height=2.0)
        self.sweep = simulate_sweep(self.world, Pose(0, 0, 0, 0), self.cfg)

    def instant(self, res=0.25):
        return build_instant_map(self.sweep, GridMap.blank(res, -25.0, -25.0, 200, 200),
                                 ObstacleThresholds(0.3, 4.0))


class TestBuildInstantMap:
    def test_box_face_cells_occupied(self):
        scene = _Scene()
        inst = scene.instant()
        # the x = 6 face straight ahead is at col (6 - -25) / 0.25 = 124, row 99/100
        face = inst.kind[:, 124]
        assert (face == KIND_OCCUPIED).sum() >= 2
        rows = np.nonzero(face == KIND_OCCUPIED)[0]
        assert abs(rows.mean() - 100) < 4

    def test_ground_annulus_free(self):
        scene = _Scene()
        inst = scene.instant()
        # first beam grounds at 2 / tan(20 deg) = 5.49 m; a cell just beyond
        # that on the unobstructed west side must be free
        col, row = int((-6.0 + 25.0) / 0.25), 100
        assert inst.kind[row, col] == KIND_FREE_SET
        # inside the blind disk nothing is marked
        col = int((-3.0 + 25.0) / 0.25)
        assert inst.kind[100, col] == KIND_UNTOUCHED

    def test_cells_behind_obstacle_untouched(self):
        scene = _Scene()
        inst = scene.instant()
        col = int((10.0 + 25.0) / 0.25)  # behind the box along azimuth 0
        assert inst.kind[100, col] == KIND_UNTOUCHED

    @pytest.mark.parametrize("ground_z", [1.5, -2.0, 7.25])
    def test_raised_ground_marks_the_same_cells(self, ground_z):
        # heights count from the sweep's ground plane, so lifting the whole
        # scene, sensor and box top included, changes no cell
        raised = _Scene(ground_z)
        assert raised.sweep.ground_z == ground_z
        assert np.array_equal(raised.instant().kind, _Scene().instant().kind)

    def test_sensor_outside_extent_rejected(self):
        scene = _Scene()
        with pytest.raises(AlignmentError):
            build_instant_map(scene.sweep, GridMap.blank(0.25, 100.0, 100.0, 10, 10),
                              ObstacleThresholds(0.3, 4.0))


def dense_apply(target, inst):
    """Reference apply: a boolean mask per kind over the whole grid."""
    occ = inst.kind == KIND_OCCUPIED
    free = inst.kind == KIND_FREE_SET
    target.values[occ] = update_cell(target.values[occ], L_OCC)
    target.values[free] = L_FREE_SET
    target.observed[occ | free] = True


@st.composite
def _apply_cases(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9))
    kind = draw(hnp.arrays(np.uint8, shape, elements=st.sampled_from(
        [KIND_UNTOUCHED, KIND_FREE_SET, KIND_OCCUPIED])))
    # values within L_OCC of L_MAX hit the clamp
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(L_MIN, L_MAX)
                             | st.floats(L_MAX - L_OCC, L_MAX)))
    observed = draw(hnp.arrays(np.bool_, shape))
    return kind, values, observed


class TestApplyInstant:
    def _setup(self):
        scene = _Scene()
        inst = scene.instant()
        grid = GridMap.blank(0.25, -25.0, -25.0, 200, 200)
        return inst, grid

    def test_occupied_adds_and_clamps(self):
        inst, grid = self._setup()
        occ = inst.kind == KIND_OCCUPIED
        grid.values[occ] = 1.0
        apply_instant(grid, inst)
        np.testing.assert_allclose(grid.values[occ], 1.0 + L_OCC)
        for _ in range(20):
            apply_instant(grid, inst)
        np.testing.assert_allclose(grid.values[occ], L_MAX)

    def test_free_overwrites(self):
        inst, grid = self._setup()
        free = inst.kind == KIND_FREE_SET
        grid.values[free] = 7.5
        apply_instant(grid, inst)
        np.testing.assert_array_equal(grid.values[free], L_FREE_SET)
        apply_instant(grid, inst)
        np.testing.assert_array_equal(grid.values[free], L_FREE_SET)

    def test_untouched_cells_keep_value_and_flag(self):
        inst, grid = self._setup()
        untouched = inst.kind == KIND_UNTOUCHED
        grid.values[:] = 0.125
        apply_instant(grid, inst)
        np.testing.assert_array_equal(grid.values[untouched], 0.125)
        assert not grid.observed[untouched].any()
        assert grid.observed[~untouched].all()

    def test_extent_mismatch_rejected(self):
        inst, _ = self._setup()
        grid = GridMap.blank(0.25, 0.0, 0.0, 200, 200)
        with pytest.raises(AlignmentError):
            apply_instant(grid, inst)

    @given(_apply_cases())
    @example((np.zeros((3, 4), np.uint8), np.full((3, 4), L_MAX - 1.0), np.zeros((3, 4), bool)))
    @example((np.full((3, 4), KIND_OCCUPIED, np.uint8),
              np.linspace(L_MAX - 2.0 * L_OCC, L_MAX, 12).reshape(3, 4),
              np.eye(3, 4, dtype=bool)))
    def test_matches_dense_apply(self, case):
        kind, values, observed = case
        inst = InstantMap(0.25, 0.0, 0.0, kind)
        got = GridMap(0.25, 0.0, 0.0, values.copy(), observed.copy())
        want = GridMap(0.25, 0.0, 0.0, values.copy(), observed.copy())
        free, occ = apply_instant(got, inst)
        dense_apply(want, inst)
        assert np.array_equal(free, kind == KIND_FREE_SET)
        assert np.array_equal(occ, np.flatnonzero(kind == KIND_OCCUPIED))
        assert np.array_equal(got.values, want.values)
        assert np.array_equal(got.observed, want.observed)
