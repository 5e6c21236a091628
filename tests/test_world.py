from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mapdecay import (
    Box,
    ConfigError,
    DynamicObject,
    ParameterError,
    Pose,
    Rect,
    ScenarioError,
    SensorConfig,
    World,
    interpolate_pose,
    simulate_sweep,
)
from mapdecay.world import TAU, normalize_angle


def flat_world(boxes=(), objects=()):
    return World(0.0, Rect(-100.0, -100.0, 100.0, 100.0), list(boxes), list(objects))


def small_sensor(**kw):
    args = dict(vertical_angles=np.radians([-20.0, -10.0, -2.0, 5.0]),
                azimuth_steps=36, max_range=40.0, mount_height=2.0)
    args.update(kw)
    return SensorConfig(**args)


class TestAngles:
    @given(st.floats(-50.0, 50.0))
    def test_normalized_range(self, a):
        out = normalize_angle(a)
        assert -math.pi < out <= math.pi

    @given(st.floats(-20.0, 20.0))
    def test_periodicity(self, a):
        assert normalize_angle(a + TAU) == pytest.approx(normalize_angle(a), abs=1e-9)


class TestTrajectories:
    KNOTS = [Pose(0.0, 0.0, 0.0, t=0.0), Pose(4.0, 2.0, math.pi / 2, t=2.0)]

    def test_midpoint(self):
        p = interpolate_pose(self.KNOTS, 1.0)
        assert (p.x, p.y) == (2.0, 1.0)
        assert p.yaw == pytest.approx(math.pi / 4)

    def test_clamps_outside_span(self):
        assert interpolate_pose(self.KNOTS, -1.0).x == 0.0
        assert interpolate_pose(self.KNOTS, 99.0).x == 4.0

    def test_yaw_takes_shortest_arc(self):
        knots = [Pose(0, 0, math.radians(170), t=0.0),
                 Pose(0, 0, math.radians(-170), t=1.0)]
        mid = interpolate_pose(knots, 0.5)
        # halfway between 170 and -170 going through 180, not through 0
        assert abs(mid.yaw) == pytest.approx(math.pi, abs=1e-9)

    def test_object_requires_increasing_timestamps(self):
        with pytest.raises(ConfigError):
            DynamicObject("x", 1.0, 1.0, 1.0,
                          [Pose(0, 0, 0, t=1.0), Pose(1, 0, 0, t=1.0)])

    def test_footprint_corners_rotate(self):
        obj = DynamicObject("x", 4.0, 2.0, 1.0,
                            [Pose(0, 0, math.pi / 2, t=0.0)])
        corners = obj.footprint_corners(0.0)
        assert corners[:, 0].max() == pytest.approx(1.0)
        assert corners[:, 1].max() == pytest.approx(2.0)


class TestGroundReturns:
    def test_downward_beams_hit_ground_at_analytic_range(self):
        cfg = small_sensor()
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg, 0.0)
        for b, ang in enumerate((-20.0, -10.0)):
            expect = 2.0 / math.sin(math.radians(-ang))
            np.testing.assert_allclose(sweep.ranges[:, b], expect, rtol=1e-12)

    def test_level_and_upward_beams_miss(self):
        cfg = small_sensor(vertical_angles=np.radians([-20.0, 0.0, 2.0, 5.0]))
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg, 0.0)
        assert np.isinf(sweep.ranges[:, 1:]).all()
        assert np.isnan(sweep.hit_points[:, 1:]).all()

    def test_max_range_cutoff(self):
        cfg = small_sensor(max_range=5.0)
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg, 0.0)
        assert np.isinf(sweep.ranges[:, 0]).all()  # ground at 5.85 m

    def test_blind_disk_radius(self):
        # the innermost ground return sits where the steepest beam lands
        cfg = small_sensor()
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg, 0.0)
        ground = sweep.hit_points[np.isfinite(sweep.ranges)]
        r = np.hypot(ground[:, 0], ground[:, 1])
        assert r.min() == pytest.approx(2.0 / math.tan(math.radians(20.0)), rel=1e-9)


class TestBoxReturns:
    def test_face_hit_at_analytic_slant_range(self):
        box = Box(5.0, 6.0, -2.0, 2.0, 3.0)
        cfg = small_sensor()
        sweep = simulate_sweep(flat_world([box]), Pose(0, 0, 0, 0), cfg, 0.0)
        # the azimuth-0 scan points straight at the x = 5 face
        idx = int(np.argmin(np.abs(sweep.azimuths)))
        for b, ang in enumerate((-20.0, -10.0, -2.0)):
            expect = 5.0 / math.cos(math.radians(ang))
            assert sweep.ranges[idx, b] == pytest.approx(expect, rel=1e-12)

    def test_occlusion_takes_nearest_surface(self):
        near = Box(4.0, 5.0, -2.0, 2.0, 3.0)
        far = Box(8.0, 9.0, -2.0, 2.0, 3.0)
        sweep = simulate_sweep(flat_world([far, near]), Pose(0, 0, 0, 0),
                               small_sensor(), 0.0)
        idx = int(np.argmin(np.abs(sweep.azimuths)))
        assert sweep.ranges[idx, 2] == pytest.approx(4.0 / math.cos(math.radians(2.0)))

    def test_rotated_dynamic_box(self):
        obj = DynamicObject("d", 2.0, 1.0, 3.0,
                            [Pose(6.0, 0.0, math.pi / 2, t=0.0)])
        sweep = simulate_sweep(flat_world(objects=[obj]), Pose(0, 0, 0, 0),
                               small_sensor(), 0.0)
        idx = int(np.argmin(np.abs(sweep.azimuths)))
        # rotated 90 degrees, the 1.0 m width spans x, so the near face is at 5.5
        assert sweep.ranges[idx, 2] == pytest.approx(5.5 / math.cos(math.radians(2.0)))

    def test_sampling_oracle(self):
        # march each ray in 1 mm steps and find the first surface crossing
        boxes = [Box(3.0, 5.0, 1.0, 4.0, 2.5), Box(-6.0, -4.0, -3.0, 0.5, 1.0)]
        cfg = small_sensor(azimuth_steps=24, max_range=20.0)
        ego = Pose(0.5, -0.25, 0.3, 0.0)
        sweep = simulate_sweep(flat_world(boxes), ego, cfg, 0.0)
        origin = np.array([ego.x, ego.y, 2.0])
        step = 1e-3
        for i in range(sweep.scan_count):
            for b in range(len(cfg.vertical_angles)):
                az = sweep.azimuths[i]
                va = cfg.vertical_angles[b]
                d = np.array([math.cos(va) * math.cos(az),
                              math.cos(va) * math.sin(az), math.sin(va)])
                expect = math.inf
                for t in np.arange(step, 20.0, step):
                    p = origin + t * d
                    if p[2] <= 0.0 or any(
                            bx.x_min <= p[0] <= bx.x_max
                            and bx.y_min <= p[1] <= bx.y_max
                            and 0.0 <= p[2] <= bx.z_top for bx in boxes):
                        expect = t
                        break
                got = sweep.ranges[i, b]
                if math.isinf(expect):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expect, abs=2e-3)


class TestSweepBehavior:
    def test_deterministic_without_noise(self):
        w = flat_world([Box(3.0, 4.0, -1.0, 1.0, 2.0)])
        a = simulate_sweep(w, Pose(0, 0, 0, 0), small_sensor(), 0.0)
        b = simulate_sweep(w, Pose(0, 0, 0, 0), small_sensor(), 0.0)
        np.testing.assert_array_equal(a.ranges, b.ranges)
        np.testing.assert_array_equal(a.hit_points, b.hit_points)

    def test_noise_is_seeded(self):
        cfg = small_sensor(noise_sigma=0.05)
        w = flat_world()
        a = simulate_sweep(w, Pose(0, 0, 0, 0), cfg, 0.0, np.random.default_rng(1))
        b = simulate_sweep(w, Pose(0, 0, 0, 0), cfg, 0.0, np.random.default_rng(1))
        c = simulate_sweep(w, Pose(0, 0, 0, 0), cfg, 0.0, np.random.default_rng(2))
        np.testing.assert_array_equal(a.ranges, b.ranges)
        assert not np.array_equal(a.ranges, c.ranges)

    def test_hit_points_consistent_with_ranges(self):
        sweep = simulate_sweep(flat_world([Box(3, 4, -1, 1, 2)]),
                               Pose(1.0, -2.0, 0.7, 0.0), small_sensor(), 0.0)
        fin = np.isfinite(sweep.ranges)
        d = np.linalg.norm(
            sweep.hit_points[fin] - np.array([1.0, -2.0, 2.0]), axis=-1)
        np.testing.assert_allclose(d, sweep.ranges[fin], rtol=1e-9)

    def test_yaw_rotates_azimuths(self):
        box = Box(5.0, 6.0, -2.0, 2.0, 3.0)
        base = simulate_sweep(flat_world([box]), Pose(0, 0, 0, 0), small_sensor(), 0.0)
        turned = simulate_sweep(flat_world([box]), Pose(0, 0, TAU / 36, 0),
                                small_sensor(), 0.0)
        np.testing.assert_allclose(base.ranges[1], turned.ranges[0], rtol=1e-12)

    def test_ego_outside_bounds_rejected(self):
        with pytest.raises(ScenarioError):
            simulate_sweep(flat_world(), Pose(500.0, 0, 0, 0), small_sensor(), 0.0)

    def test_sensor_validation(self):
        with pytest.raises(ParameterError):
            small_sensor(vertical_angles=np.radians([5.0, 10.0, 15.0, 20.0]))
        with pytest.raises(ParameterError):
            small_sensor(azimuth_steps=0)
        with pytest.raises(ParameterError):
            small_sensor(noise_sigma=-0.1)
