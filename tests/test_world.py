from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mapdecay import (
    ConfigError,
    ParameterError,
    ScenarioError,
    SensorConfig,
    simulate_sweep,
)
from mapdecay.world import (
    TAU,
    Box,
    DynamicObject,
    Pose,
    Rect,
    World,
    interpolate_pose,
    normalize_angle,
    ray_geometry,
)


def flat_world(boxes=(), objects=()):
    return World(0.0, Rect(-100.0, -100.0, 100.0, 100.0), list(boxes), list(objects))


def small_sensor(**kw):
    args = dict(vertical_angles=np.radians([-20.0, -10.0, -2.0, 5.0]),
                azimuth_steps=36, max_range=40.0, mount_height=2.0)
    args.update(kw)
    return SensorConfig(**args)


def sweep_points(sweep):
    """(n_scans, n_beams, 3) return points derived from the ranges along
    ``sweep.rays``, NaN where there is no return."""
    origin, dx, dy, dz = sweep.rays
    returned = np.isfinite(sweep.ranges)
    safe = np.where(returned, sweep.ranges, 0.0)
    points = np.stack([origin[0] + safe * dx, origin[1] + safe * dy, origin[2] + safe * dz],
                      axis=-1)
    points[~returned] = np.nan
    return points


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

    def test_empty_trajectory_rejected(self):
        with pytest.raises(ConfigError, match="trajectory has no knots"):
            interpolate_pose([], 0.0)
        with pytest.raises(ConfigError, match="'x' has an empty trajectory"):
            DynamicObject("x", 1.0, 1.0, 1.0, [])

    def test_object_requires_increasing_timestamps(self):
        with pytest.raises(ConfigError):
            DynamicObject("x", 1.0, 1.0, 1.0,
                          [Pose(0, 0, 0, t=1.0), Pose(1, 0, 0, t=1.0)])


class TestGroundReturns:
    def test_downward_beams_hit_ground_at_analytic_range(self):
        cfg = small_sensor()
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg)
        for b, ang in enumerate((-20.0, -10.0)):
            expect = 2.0 / math.sin(math.radians(-ang))
            np.testing.assert_allclose(sweep.ranges[:, b], expect, rtol=1e-12)

    def test_level_and_upward_beams_miss(self):
        cfg = small_sensor(vertical_angles=np.radians([-20.0, 0.0, 2.0, 5.0]))
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg)
        assert np.isinf(sweep.ranges[:, 1:]).all()
        assert np.isnan(sweep_points(sweep)[:, 1:]).all()

    def test_max_range_cutoff(self):
        cfg = small_sensor(max_range=5.0)
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg)
        assert np.isinf(sweep.ranges[:, 0]).all()  # ground at 5.85 m

    def test_blind_disk_radius(self):
        # the innermost ground return sits where the steepest beam lands
        cfg = small_sensor()
        sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg)
        ground = sweep_points(sweep)[np.isfinite(sweep.ranges)]
        r = np.hypot(ground[:, 0], ground[:, 1])
        assert r.min() == pytest.approx(2.0 / math.tan(math.radians(20.0)), rel=1e-9)


class TestBoxReturns:
    def test_face_hit_at_analytic_slant_range(self):
        box = Box(5.0, 6.0, -2.0, 2.0, 3.0)
        cfg = small_sensor()
        sweep = simulate_sweep(flat_world([box]), Pose(0, 0, 0, 0), cfg)
        # scan 0 points along the ego's yaw, straight at the x = 5 face
        for b, ang in enumerate((-20.0, -10.0, -2.0)):
            expect = 5.0 / math.cos(math.radians(ang))
            assert sweep.ranges[0, b] == pytest.approx(expect, rel=1e-12)

    def test_occlusion_takes_nearest_surface(self):
        near = Box(4.0, 5.0, -2.0, 2.0, 3.0)
        far = Box(8.0, 9.0, -2.0, 2.0, 3.0)
        sweep = simulate_sweep(flat_world([far, near]), Pose(0, 0, 0, 0),
                               small_sensor())
        assert sweep.ranges[0, 2] == pytest.approx(4.0 / math.cos(math.radians(2.0)))

    def test_rotated_dynamic_box(self):
        obj = DynamicObject("d", 2.0, 1.0, 3.0,
                            [Pose(6.0, 0.0, math.pi / 2, t=0.0)])
        sweep = simulate_sweep(flat_world(objects=[obj]), Pose(0, 0, 0, 0),
                               small_sensor())
        # rotated 90 degrees, the 1.0 m width spans x, so the near face is at 5.5
        assert sweep.ranges[0, 2] == pytest.approx(5.5 / math.cos(math.radians(2.0)))

    @pytest.mark.parametrize("t, face_x", [(0.0, 4.5), (2.0, 6.5)])
    def test_moving_box_seen_at_the_pose_time(self, t, face_x):
        # the box drives from x = 5 to x = 9 over 0-4 s; its near face is 0.5 m short
        obj = DynamicObject("d", 1.0, 2.0, 3.0, [Pose(5.0, 0.0, 0.0, t=0.0),
                                                 Pose(9.0, 0.0, 0.0, t=4.0)])
        sweep = simulate_sweep(flat_world(objects=[obj]), Pose(0, 0, 0, t), small_sensor())
        assert sweep.ranges[0, 2] == pytest.approx(face_x / math.cos(math.radians(2.0)))

    def test_sampling_oracle(self):
        # march each ray in 1 mm steps and find the first surface crossing
        boxes = [Box(3.0, 5.0, 1.0, 4.0, 2.5), Box(-6.0, -4.0, -3.0, 0.5, 1.0)]
        cfg = small_sensor(azimuth_steps=24, max_range=20.0)
        ego = Pose(0.5, -0.25, 0.3, 0.0)
        sweep = simulate_sweep(flat_world(boxes), ego, cfg)
        origin = np.array([ego.x, ego.y, 2.0])
        step = 1e-3
        for i in range(cfg.azimuth_steps):
            for b in range(len(cfg.vertical_angles)):
                az = ego.yaw + i * (TAU / cfg.azimuth_steps)
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
        a = simulate_sweep(w, Pose(0, 0, 0, 0), small_sensor())
        b = simulate_sweep(w, Pose(0, 0, 0, 0), small_sensor())
        np.testing.assert_array_equal(a.ranges, b.ranges)
        np.testing.assert_array_equal(sweep_points(a), sweep_points(b))

    def test_noise_is_seeded(self):
        cfg = small_sensor(noise_sigma=0.05)
        w = flat_world()
        a = simulate_sweep(w, Pose(0, 0, 0, 0), cfg, np.random.default_rng(1))
        b = simulate_sweep(w, Pose(0, 0, 0, 0), cfg, np.random.default_rng(1))
        c = simulate_sweep(w, Pose(0, 0, 0, 0), cfg, np.random.default_rng(2))
        np.testing.assert_array_equal(a.ranges, b.ranges)
        assert not np.array_equal(a.ranges, c.ranges)

    def test_noise_leaves_no_returns_alone(self):
        # noise of 1e308 overflows to +-inf on some rays; added to a no-return
        # ray's inf it would make a NaN and warn
        cfg = small_sensor(noise_sigma=1e308, azimuth_steps=720)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sweep = simulate_sweep(flat_world(), Pose(0, 0, 0, 0), cfg, np.random.default_rng(0))
        finite = sweep.ranges[np.isfinite(sweep.ranges)]
        assert finite.size and np.all(finite == 1e-3)
        assert not np.isnan(sweep.ranges).any()

    def test_noise_without_a_generator_rejected(self):
        with pytest.raises(ParameterError, match="noise_sigma"):
            simulate_sweep(flat_world(), Pose(0, 0, 0, 0), small_sensor(noise_sigma=0.05))

    def test_hit_points_consistent_with_ranges(self):
        sweep = simulate_sweep(flat_world([Box(3, 4, -1, 1, 2)]),
                               Pose(1.0, -2.0, 0.7, 0.0), small_sensor())
        fin = np.isfinite(sweep.ranges)
        d = np.linalg.norm(
            sweep_points(sweep)[fin] - np.array([1.0, -2.0, 2.0]), axis=-1)
        np.testing.assert_allclose(d, sweep.ranges[fin], rtol=1e-9)

    def test_yaw_rotates_azimuths(self):
        box = Box(5.0, 6.0, -2.0, 2.0, 3.0)
        base = simulate_sweep(flat_world([box]), Pose(0, 0, 0, 0), small_sensor())
        turned = simulate_sweep(flat_world([box]), Pose(0, 0, TAU / 36, 0),
                                small_sensor())
        np.testing.assert_allclose(base.ranges[1], turned.ranges[0], rtol=1e-12)

    def test_ego_outside_bounds_rejected(self):
        with pytest.raises(ScenarioError):
            simulate_sweep(flat_world(), Pose(500.0, 0, 0, 0), small_sensor())

    def test_sensor_validation(self):
        with pytest.raises(ParameterError):
            small_sensor(vertical_angles=np.radians([5.0, 10.0, 15.0, 20.0]))
        with pytest.raises(ParameterError):
            small_sensor(vertical_angles=np.array([]))
        with pytest.raises(ParameterError):
            small_sensor(vertical_angles=np.radians([-95.0, -10.0, 0.0]))
        with pytest.raises(ParameterError, match="azimuth_steps must be at least 1"):
            small_sensor(azimuth_steps=0)
        with pytest.raises(ParameterError, match="max_range must be positive"):
            small_sensor(max_range=-1.0)
        for height in (0.0, -1.0):
            with pytest.raises(ParameterError, match="mount_height must be positive"):
                small_sensor(mount_height=height)
        with pytest.raises(ParameterError):
            small_sensor(noise_sigma=-0.1)

    @pytest.mark.parametrize("bounds", [(6.0, 5.0, -2.0, 2.0), (5.0, 6.0, 2.0, -2.0),
                                        (5.0, 6.0, 2.0, 2.0)])
    def test_box_validation(self, bounds):
        # an inverted or flat box would never be hit by the slab test
        with pytest.raises(ParameterError, match="x_min < x_max"):
            Box(*bounds, 3.0)


def parent_hit_points(world, ego, cfg, ranges):
    """The points a sweep used to store beside its ranges, by that code."""
    n_az = cfg.azimuth_steps
    azimuths = ego.yaw + np.arange(n_az) * (TAU / n_az)
    elev = cfg.vertical_angles
    cos_e, sin_e = np.cos(elev), np.sin(elev)
    cos_a, sin_a = np.cos(azimuths), np.sin(azimuths)
    dirs = np.empty((n_az, len(elev), 3))
    dirs[:, :, 0] = cos_a[:, None] * cos_e[None, :]
    dirs[:, :, 1] = sin_a[:, None] * cos_e[None, :]
    dirs[:, :, 2] = sin_e[None, :]
    origin = np.array([ego.x, ego.y, world.ground_z + cfg.mount_height])
    safe = np.where(np.isfinite(ranges), ranges, 0.0)
    hits = origin[None, None, :] + safe[:, :, None] * dirs
    hits[~np.isfinite(ranges)] = np.nan
    return hits


def slab_enter_t(origin, dirs, lo, hi):
    """Slab-test entry distance of rays into an AABB, inf where the ray misses
    or starts inside or behind the box; ``dirs`` has shape (..., 3).  This is
    the library's former slab test, kept here so the oracle below does not
    share the one it checks."""
    tmin = np.full(dirs.shape[:-1], -np.inf)
    tmax = np.full(dirs.shape[:-1], np.inf)
    for axis in range(3):
        d = dirs[..., axis]
        o = origin[axis]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (lo[axis] - o) / d
            t2 = (hi[axis] - o) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        zero = d == 0.0
        if np.any(zero):
            inside = lo[axis] <= o <= hi[axis]
            near = np.where(zero, -np.inf if inside else np.inf, near)
            far = np.where(zero, np.inf if inside else -np.inf, far)
        tmin = np.maximum(tmin, near)
        tmax = np.minimum(tmax, far)
    hit = (tmin <= tmax) & (tmin > 1e-9)
    return np.where(hit, tmin, np.inf)


def full_slab_sweep(world, ego, cfg, rng=None):
    """Reference sweep at ``ego.t``: every box is slab-tested against every ray."""
    n_az = cfg.azimuth_steps
    azimuths = ego.yaw + np.arange(n_az) * (TAU / n_az)
    elev = cfg.vertical_angles
    cos_e, sin_e = np.cos(elev), np.sin(elev)
    dirs = np.empty((n_az, len(elev), 3))
    dirs[:, :, 0] = np.cos(azimuths)[:, None] * cos_e[None, :]
    dirs[:, :, 1] = np.sin(azimuths)[:, None] * cos_e[None, :]
    dirs[:, :, 2] = sin_e[None, :]
    origin = np.array([ego.x, ego.y, world.ground_z + cfg.mount_height])
    with np.errstate(divide="ignore"):
        t_ground = (world.ground_z - origin[2]) / dirs[:, :, 2]
    best = np.where((dirs[:, :, 2] < 0.0) & (t_ground > 1e-9), t_ground, np.inf)
    for box in world.static_boxes:
        lo = np.array([box.x_min, box.y_min, world.ground_z])
        hi = np.array([box.x_max, box.y_max, box.z_top])
        best = np.minimum(best, slab_enter_t(origin, dirs, lo, hi))
    for obj in world.dynamic_objects:
        pose = obj.pose_at(ego.t)
        c, s = math.cos(-pose.yaw), math.sin(-pose.yaw)
        local_origin = origin.copy()
        ox, oy = origin[0] - pose.x, origin[1] - pose.y
        local_origin[0] = c * ox - s * oy
        local_origin[1] = s * ox + c * oy
        local_dirs = dirs.copy()
        local_dirs[:, :, 0] = c * dirs[:, :, 0] - s * dirs[:, :, 1]
        local_dirs[:, :, 1] = s * dirs[:, :, 0] + c * dirs[:, :, 1]
        lo = np.array([-obj.length / 2.0, -obj.width / 2.0, world.ground_z])
        hi = np.array([obj.length / 2.0, obj.width / 2.0, world.ground_z + obj.height])
        best = np.minimum(best, slab_enter_t(local_origin, local_dirs, lo, hi))
    if rng is not None and cfg.noise_sigma > 0.0:
        noise = rng.normal(0.0, cfg.noise_sigma, best.shape)
        best = np.where(np.isfinite(best), np.maximum(best + noise, 1e-3), best)
    ranges = np.where(best <= cfg.max_range, best, np.inf)
    return ranges, parent_hit_points(world, ego, cfg, ranges)


@st.composite
def culling_cases(draw):
    """A sensor, an ego and boxes placed where the azimuth sectors are hard:
    across the wrap at row 0, straight behind, with a corner on a ray, and
    with the ego on a face, on a corner or inside a dynamic footprint."""
    n_az = draw(st.integers(1, 40))
    x0, y0 = draw(st.floats(-5.0, 5.0)), draw(st.floats(-5.0, 5.0))
    yaw = draw(st.floats(-math.pi, math.pi))
    row_angle = st.integers(0, n_az - 1).map(lambda i: yaw + i * (TAU / n_az))
    bearing = st.one_of(st.sampled_from([yaw, yaw + math.pi]), row_angle,
                        st.floats(-math.pi, math.pi))
    size = st.floats(0.05, 4.0)
    sign = st.sampled_from([-1.0, 1.0])

    def toward(a, r):
        return x0 + r * math.cos(a), y0 + r * math.sin(a)

    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        cx, cy = toward(draw(bearing), draw(st.floats(0.3, 20.0)))
        hx, hy = draw(size), draw(size)
        boxes.append(Box(cx - hx, cx + hx, cy - hy, cy + hy, draw(st.floats(0.5, 4.0))))
    if draw(st.booleans()):  # a corner on the horizontal line of one row
        cx, cy = toward(draw(row_angle), draw(st.floats(0.3, 20.0)))
        sx, sy = draw(size) * draw(sign), draw(size) * draw(sign)
        boxes.append(Box(min(cx, cx + sx), max(cx, cx + sx),
                         min(cy, cy + sy), max(cy, cy + sy), 3.0))
    objects = []
    for i in range(draw(st.integers(0, 2))):
        cx, cy = toward(draw(bearing), draw(st.floats(0.3, 20.0)))
        pose = Pose(cx, cy, draw(st.floats(-math.pi, math.pi)), 0.0)
        objects.append(DynamicObject(f"d{i}", 2 * draw(size), 2 * draw(size),
                                     draw(st.floats(0.5, 3.0)), [pose]))

    where = draw(st.sampled_from(["free", "face", "corner", "inside"]))
    if where in ("face", "corner") and boxes:
        b = boxes[0]
        if where == "face":  # on a face, or on its line beside the box
            x0 = draw(st.floats(b.x_min - 1.0, b.x_max + 1.0))
            y0 = draw(st.floats(b.y_min - 1.0, b.y_max + 1.0))
            if draw(st.booleans()):
                x0 = draw(st.sampled_from([b.x_min, b.x_max]))
            else:
                y0 = draw(st.sampled_from([b.y_min, b.y_max]))
        else:
            x0 = draw(st.sampled_from([b.x_min, b.x_max]))
            y0 = draw(st.sampled_from([b.y_min, b.y_max]))
    elif where == "inside" and objects:
        obj = objects[0]
        p = obj.pose_at(0.0)
        u = draw(st.floats(-0.5, 0.5)) * obj.length
        v = draw(st.floats(-0.5, 0.5)) * obj.width
        x0 = p.x + u * math.cos(p.yaw) - v * math.sin(p.yaw)
        y0 = p.y + u * math.sin(p.yaw) + v * math.cos(p.yaw)

    cfg = small_sensor(
        azimuth_steps=n_az,
        vertical_angles=np.radians(draw(st.sampled_from(
            [[-20.0, -10.0, -2.0, 5.0], [-90.0, -30.0, 0.0, 30.0, 90.0]]))),
        noise_sigma=draw(st.sampled_from([0.0, 0.05])))
    world = flat_world(boxes, objects)
    return world, Pose(x0, y0, yaw, 0.0), cfg, draw(st.integers(0, 2**32 - 1))


class TestBoxCulling:
    @settings(max_examples=300, deadline=None)
    @given(culling_cases())
    # the sector starts exactly on row 0, so its padded first row wraps to the last
    @example((flat_world([Box(1.0, 3.0, 0.0, 2.0, 3.0)]), Pose(0.0, 0.0, 0.0, 0.0),
              small_sensor(azimuth_steps=8), 0))
    def test_matches_full_slab_test(self, case):
        world, ego, cfg, seed = case
        sweep = simulate_sweep(world, ego, cfg, np.random.default_rng(seed))
        ranges, hits = full_slab_sweep(world, ego, cfg, np.random.default_rng(seed))
        assert np.array_equal(sweep.ranges, ranges, equal_nan=True)
        assert np.array_equal(sweep_points(sweep), hits, equal_nan=True)


class TestDerivedPoints:
    @settings(max_examples=150, deadline=None)
    @given(culling_cases(), st.floats(-2.0, 0.4), st.floats(0.1, 5.0))
    def test_match_the_stored_points(self, case, ground_z, mount_height):
        world, ego, cfg, seed = case
        world = World(ground_z, world.bounds, world.static_boxes, world.dynamic_objects)
        cfg = dataclasses.replace(cfg, mount_height=mount_height)
        sweep = simulate_sweep(world, ego, cfg, np.random.default_rng(seed))
        for stored, fresh in zip(sweep.rays, ray_geometry(ego, cfg, ground_z), strict=True):
            assert np.array_equal(stored, fresh)
        assert sweep.ground_z == ground_z
        assert np.array_equal(sweep_points(sweep),
                              parent_hit_points(world, ego, cfg, sweep.ranges), equal_nan=True)
