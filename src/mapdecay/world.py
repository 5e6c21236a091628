"""Deterministic 2.5-D world and a revolving multi-beam range sensor.

The world is a flat ground plane plus axis-aligned static boxes and moving
boxes that follow piecewise-linear trajectories.  The sensor revolves a
vertical array of beams (lowest beam pointing downward) and reports, per ray,
the first analytic intersection with the ground, a static box, or a dynamic
object.  Everything is a pure function of (world, pose, time), so sweeps are
bit-reproducible.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, ParameterError, ScenarioError

TAU = 2.0 * math.pi


def normalize_angle(a: float) -> float:
    """Map an angle to (-pi, pi]."""
    r = a % TAU
    if r > math.pi:
        r -= TAU
    return r


@dataclass(frozen=True)
class Pose:
    x: float
    y: float
    yaw: float = 0.0
    t: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


@dataclass(frozen=True)
class Rect:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def contains(self, x: float, y: float) -> bool:
        return self.x_min <= x <= self.x_max and self.y_min <= y <= self.y_max


@dataclass(frozen=True)
class Box:
    """Axis-aligned static obstacle; extends from the ground up to z_top."""
    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_top: float


def interpolate_pose(knots: Sequence[Pose], t: float) -> Pose:
    """Piecewise-linear position, shortest-arc heading, clamped at the ends."""
    if not knots:
        raise ConfigError("trajectory has no knots")
    times = [k.t for k in knots]
    if t <= times[0]:
        k = knots[0]
        return Pose(k.x, k.y, k.yaw, t)
    if t >= times[-1]:
        k = knots[-1]
        return Pose(k.x, k.y, k.yaw, t)
    i = bisect.bisect_right(times, t) - 1
    a, b = knots[i], knots[i + 1]
    u = (t - a.t) / (b.t - a.t)
    yaw = a.yaw + u * normalize_angle(b.yaw - a.yaw)
    return Pose(a.x + u * (b.x - a.x), a.y + u * (b.y - a.y), yaw, t)


@dataclass
class DynamicObject:
    """A moving box: rectangular footprint (length along local +x) of a given
    height, following a piecewise-linear pose-vs-time trajectory."""

    name: str
    length: float
    width: float
    height: float
    trajectory: list[Pose]

    def __post_init__(self) -> None:
        if not self.trajectory:
            raise ConfigError(f"dynamic object {self.name!r} has an empty trajectory")
        times = [p.t for p in self.trajectory]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ConfigError(
                f"dynamic object {self.name!r} trajectory timestamps must be strictly increasing")
        if self.length <= 0 or self.width <= 0 or self.height <= 0:
            raise ConfigError(f"dynamic object {self.name!r} must have positive dimensions")

    def pose_at(self, t: float) -> Pose:
        return interpolate_pose(self.trajectory, t)

    def footprint_corners(self, t: float) -> np.ndarray:
        """World-frame (4, 2) corner array of the footprint at time t."""
        p = self.pose_at(t)
        hl, hw = self.length / 2.0, self.width / 2.0
        local = np.array([[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]])
        c, s = math.cos(p.yaw), math.sin(p.yaw)
        rot = np.array([[c, -s], [s, c]])
        return local @ rot.T + np.array([p.x, p.y])


ego_pose_at = interpolate_pose


@dataclass
class World:
    ground_z: float
    bounds: Rect
    static_boxes: list[Box] = field(default_factory=list)
    dynamic_objects: list[DynamicObject] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [obj.name for obj in self.dynamic_objects]
        if len(set(names)) < len(names):
            raise ConfigError(f"duplicate dynamic object names in {names}")
        for box in self.static_boxes:
            if box.z_top <= self.ground_z:
                raise ConfigError("static box top must be above the ground plane")
            if not (self.bounds.contains(box.x_min, box.y_min)
                    and self.bounds.contains(box.x_max, box.y_max)):
                raise ConfigError("static box lies outside the world bounds")

    def without_dynamic(self) -> "World":
        return World(self.ground_z, self.bounds, list(self.static_boxes), [])


@dataclass
class SensorConfig:
    """A revolving beam array: ``azimuth_steps`` scans per revolution, one
    beam per entry of ``vertical_angles`` (radians, increasing)."""
    vertical_angles: np.ndarray
    azimuth_steps: int
    max_range: float
    mount_height: float
    noise_sigma: float = 0.0

    def __post_init__(self) -> None:
        self.vertical_angles = np.asarray(self.vertical_angles, dtype=np.float64)
        if np.any(np.diff(self.vertical_angles) <= 0.0):
            raise ParameterError("vertical angles must be strictly increasing")
        if self.vertical_angles[0] >= 0.0:
            raise ParameterError("the first beam must point downward")
        if self.azimuth_steps < 1 or self.max_range <= 0.0:
            raise ParameterError("azimuth_steps must be at least 1 and max_range positive")
        if not self.noise_sigma >= 0.0:
            raise ParameterError("noise_sigma must be nonnegative")


@dataclass
class Sweep:
    """One full revolution: scan i has azimuth ego.yaw + i * TAU / azimuth_steps."""
    t: float
    ego_pose: Pose
    azimuths: np.ndarray            # (n_scans,)
    ranges: np.ndarray              # (n_scans, n_beams), inf = no return
    hit_points: np.ndarray          # (n_scans, n_beams, 3), NaN = no return

    @property
    def scan_count(self) -> int:
        return self.azimuths.shape[0]


def _box_enter_t(origin: np.ndarray, dirs: np.ndarray,
                 lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Slab-test entry distance of rays into an AABB; inf where the ray
    misses or starts inside/behind the box.  ``dirs`` has shape (..., 3)."""
    tmin = np.full(dirs.shape[:-1], -np.inf)
    tmax = np.full(dirs.shape[:-1], np.inf)
    for axis in range(3):
        d = dirs[..., axis]
        o = origin[axis]
        with np.errstate(divide="ignore", invalid="ignore"):
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


def simulate_sweep(world: World, ego: Pose, cfg: SensorConfig, t: float,
                   rng: Optional[np.random.Generator] = None) -> Sweep:
    """Simulate one full revolution at time ``t`` from the ego pose.

    Rays start at (ego.x, ego.y, ground_z + mount_height).  Dynamic objects
    are frozen at their pose for time ``t`` (no intra-sweep motion).
    """
    if not world.bounds.contains(ego.x, ego.y):
        raise ScenarioError(f"ego pose ({ego.x}, {ego.y}) is outside the world bounds")

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
    best = np.full(dirs.shape[:2], np.inf)

    # ground plane
    dz = dirs[:, :, 2]
    with np.errstate(divide="ignore"):
        t_ground = (world.ground_z - origin[2]) / dz
    t_ground = np.where((dz < 0.0) & (t_ground > 1e-9), t_ground, np.inf)
    best = np.minimum(best, t_ground)

    for box in world.static_boxes:
        lo = np.array([box.x_min, box.y_min, world.ground_z])
        hi = np.array([box.x_max, box.y_max, box.z_top])
        best = np.minimum(best, _box_enter_t(origin, dirs, lo, hi))

    for obj in world.dynamic_objects:
        pose = obj.pose_at(t)
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
        best = np.minimum(best, _box_enter_t(local_origin, local_dirs, lo, hi))

    if rng is not None and cfg.noise_sigma > 0.0:
        noise = rng.normal(0.0, cfg.noise_sigma, best.shape)
        best = np.where(np.isfinite(best), np.maximum(best + noise, 1e-3), best)

    ranges = np.where(best <= cfg.max_range, best, np.inf)
    safe = np.where(np.isfinite(ranges), ranges, 0.0)
    hits = origin[None, None, :] + safe[:, :, None] * dirs
    hits[~np.isfinite(ranges)] = np.nan
    return Sweep(t, ego, azimuths, ranges, hits)

