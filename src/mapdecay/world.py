"""Deterministic 2.5-D world and a revolving multi-beam range sensor.

The world is a flat ground plane plus axis-aligned static boxes and moving
boxes that follow piecewise-linear trajectories.  The sensor revolves a
vertical array of beams (lowest beam pointing downward) and reports, per ray,
the first analytic intersection with the ground, a static box, or a dynamic
object.  A sweep is a pure function of (world, pose): the pose carries the
time at which the dynamic objects are placed, so sweeps are bit-reproducible.
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

    def __post_init__(self) -> None:
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ParameterError("a box needs x_min < x_max and y_min < y_max")


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
        if not self.vertical_angles.size:
            raise ParameterError("a sensor needs at least one beam")
        # past +-90 degrees a beam would point at the opposite azimuth
        if not np.all(np.abs(self.vertical_angles) <= math.pi / 2):
            raise ParameterError("vertical angles must lie within +-90 degrees")
        if np.any(np.diff(self.vertical_angles) <= 0.0):
            raise ParameterError("vertical angles must be strictly increasing")
        if self.vertical_angles[0] >= 0.0:
            raise ParameterError("the first beam must point downward")
        if self.azimuth_steps < 1:
            raise ParameterError("azimuth_steps must be at least 1")
        if not self.max_range > 0.0:
            raise ParameterError("max_range must be positive")
        if not self.mount_height > 0.0:
            raise ParameterError("mount_height must be positive")
        if not self.noise_sigma >= 0.0:
            raise ParameterError("noise_sigma must be nonnegative")


@dataclass
class Sweep:
    """One revolution at ``ego_pose`` and its time by ``sensor`` over a ground
    plane at ``ground_z``.  ``ranges[i, b]`` is ray (i, b)'s distance along its
    unit direction from :func:`ray_geometry`, inf where it has no return."""
    ego_pose: Pose
    ranges: np.ndarray              # (n_scans, n_beams), inf = no return
    sensor: SensorConfig
    ground_z: float


def ray_geometry(ego: Pose, cfg: SensorConfig, ground_z: float):
    """``(origin, dx, dy, dz)`` of a sweep's rays: scan i faces ``ego.yaw + i *
    TAU / n_scans``, and ray (i, b) leaves ``origin`` along the unit vector
    ``(dx[i, b], dy[i, b], dz[b])``; ``dz`` holds one value per beam.  Its
    return lies at ``origin[k] + range * d[k]``, in that order."""
    azimuths = ego.yaw + np.arange(cfg.azimuth_steps) * (TAU / cfg.azimuth_steps)
    elev = cfg.vertical_angles
    cos_e = np.cos(elev)
    return (np.array([ego.x, ego.y, ground_z + cfg.mount_height]),
            np.cos(azimuths)[:, None] * cos_e, np.sin(azimuths)[:, None] * cos_e, np.sin(elev))


def _box_enter_t(origin: Sequence[float], dirs: Sequence[np.ndarray],
                 lo: Sequence[float], hi: Sequence[float]) -> np.ndarray:
    """Slab-test entry distance of rays into an AABB; inf where the ray
    misses or starts inside/behind the box.  ``dirs`` holds the x, y and z
    direction components as arrays that broadcast together."""
    tmin, tmax = -np.inf, np.inf
    for o, d, l, h in zip(origin, dirs, lo, hi):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            t1 = (l - o) / d
            t2 = (h - o) / d
        near = np.minimum(t1, t2)
        far = np.maximum(t1, t2)
        zero = d == 0.0
        if np.any(zero):
            inside = l <= o <= h
            near = np.where(zero, -np.inf if inside else np.inf, near)
            far = np.where(zero, np.inf if inside else -np.inf, far)
        tmin = np.maximum(tmin, near)
        tmax = np.minimum(tmax, far)
    hit = (tmin <= tmax) & (tmin > 1e-9)
    return np.where(hit, tmin, np.inf)


def _sector_rows(origin: Sequence[float], lo: Sequence[float], hi: Sequence[float],
                 az0: float, n_az: int) -> list[slice]:
    """Row slices whose rays can meet the footprint ``lo[:2]..hi[:2]``, in a
    frame where row i points at ``az0 + i * TAU / n_az``.  Seen from outside,
    the footprint spans the circle less the widest gap between its corner
    angles; one step of padding each side covers the rounding of the rays."""
    ox, oy = origin[0], origin[1]
    if lo[0] <= ox <= hi[0] and lo[1] <= oy <= hi[1]:
        return [slice(None)]
    ang = sorted(math.atan2(y - oy, x - ox) for x in (lo[0], hi[0]) for y in (lo[1], hi[1]))
    gap, k = max((b - a, i) for i, (a, b) in enumerate(zip(ang, ang[1:] + [ang[0] + TAU])))
    step = TAU / n_az
    start = (ang[(k + 1) % 4] - az0) % TAU
    first = math.ceil(start / step) - 1
    count = math.floor((start + TAU - gap) / step) + 2 - first
    if count >= n_az:
        return [slice(None)]
    first %= n_az
    if first + count <= n_az:
        return [slice(first, first + count)]
    return [slice(first, n_az), slice(0, first + count - n_az)]


def simulate_sweep(world: World, ego: Pose, cfg: SensorConfig,
                   rng: Optional[np.random.Generator] = None) -> Sweep:
    """Simulate one full revolution from the ego pose at its time ``ego.t``.

    Rays start at (ego.x, ego.y, ground_z + mount_height) along the directions
    of :func:`ray_geometry`.  Each box is slab-tested in its own frame: a
    dynamic object's is its pose at ``ego.t`` (no intra-sweep motion), a
    static box's is the world's.
    """
    if not world.bounds.contains(ego.x, ego.y):
        raise ScenarioError(f"ego pose ({ego.x}, {ego.y}) is outside the world bounds")
    if cfg.noise_sigma > 0.0 and rng is None:
        raise ParameterError("noise_sigma > 0 needs a random generator")

    n_az = cfg.azimuth_steps
    origin, dx, dy, dz = ray_geometry(ego, cfg, world.ground_z)
    ground = world.ground_z

    # the ground plane, per beam
    with np.errstate(divide="ignore", over="ignore"):
        t_ground = (ground - origin[2]) / dz
    best = np.tile(np.where((dz < 0.0) & (t_ground > 1e-9), t_ground, np.inf), (n_az, 1))

    # a static box is posed at the origin with yaw 0, a dynamic one at ego.t
    boxes = [(Pose(0.0, 0.0), (box.x_min, box.y_min, ground), (box.x_max, box.y_max, box.z_top))
             for box in world.static_boxes]
    for obj in world.dynamic_objects:
        hl, hw = obj.length / 2.0, obj.width / 2.0
        boxes.append((obj.pose_at(ego.t), (-hl, -hw, ground), (hl, hw, ground + obj.height)))
    # each box is slab-tested in its own frame against its azimuth sector's rows
    for pose, lo, hi in boxes:
        c, s = math.cos(-pose.yaw), math.sin(-pose.yaw)
        ox, oy = origin[0] - pose.x, origin[1] - pose.y
        local = (c * ox - s * oy, s * ox + c * oy, origin[2])
        for rows in _sector_rows(local, lo, hi, ego.yaw - pose.yaw, n_az):
            x, y = dx[rows], dy[rows]
            enter = _box_enter_t(local, (c * x - s * y, s * x + c * y, dz), lo, hi)
            best[rows] = np.minimum(best[rows], enter)

    if cfg.noise_sigma > 0.0:
        noise = rng.normal(0.0, cfg.noise_sigma, best.shape)
        best = np.where(np.isfinite(best), np.maximum(best + noise, 1e-3), best)

    return Sweep(ego, np.where(best <= cfg.max_range, best, np.inf), cfg, world.ground_z)

