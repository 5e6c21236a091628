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
import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, DomainError, ParameterError, ScenarioError

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


def check_knots(knots: Sequence[Pose], what: str) -> list[float]:
    """The times of the trajectory ``what``: at least one knot, each later than the last."""
    times = [k.t for k in knots]
    if not times:
        raise ConfigError(f"{what} has no knots")
    if not all(b > a for a, b in zip([-math.inf, *times], times)):  # NaN fails too
        raise ConfigError(f"{what}: knot timestamps must be strictly increasing")
    return times


def interpolate_pose(knots: Sequence[Pose], t: float) -> Pose:
    """Piecewise-linear position, shortest-arc heading, clamped at the ends."""
    times = check_knots(knots, "trajectory")
    if math.isnan(t):
        raise DomainError(f"pose time {t!r} is not a number")
    if not times[0] < t < times[-1]:
        k = knots[0] if t <= times[0] else knots[-1]
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
        check_knots(self.trajectory, f"dynamic object {self.name!r} trajectory")
        if not (self.length > 0 and self.width > 0 and self.height > 0):  # NaN fails too
            raise ConfigError(f"dynamic object {self.name!r} must have positive dimensions")

    def pose_at(self, t: float) -> Pose:
        return interpolate_pose(self.trajectory, t)



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
        for i, box in enumerate(self.static_boxes):
            if not box.z_top > self.ground_z:  # NaN fails too
                raise ConfigError(f"static_boxes[{i}]: top must be above the ground plane")
            if not (self.bounds.contains(box.x_min, box.y_min)
                    and self.bounds.contains(box.x_max, box.y_max)):
                raise ConfigError(f"static_boxes[{i}]: lies outside the world bounds")

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
    """One revolution at ``ego_pose`` and its time over a ground plane at
    ``ground_z``.  ``ranges[i, b]`` is ray (i, b)'s distance along its unit
    direction in ``rays``, from :func:`ray_geometry`; inf = no return."""
    ego_pose: Pose
    ranges: np.ndarray              # (n_scans, n_beams), inf = no return
    rays: tuple                     # (origin, dx, dy, dz)
    ground_z: float


@functools.lru_cache(maxsize=4)
def _ray_fan(yaw: float, n_scans: int, elevations: bytes) -> tuple:
    """Read-only ``(dx, dy, dz)`` of :func:`ray_geometry`, once per heading."""
    azimuths, elev = yaw + np.arange(n_scans) * (TAU / n_scans), np.frombuffer(elevations)
    cos_e = np.cos(elev)
    fan = np.cos(azimuths)[:, None] * cos_e, np.sin(azimuths)[:, None] * cos_e, np.sin(elev)
    for d in fan:
        d.flags.writeable = False
    return fan


def ray_geometry(ego: Pose, cfg: SensorConfig, ground_z: float):
    """``(origin, dx, dy, dz)`` of a sweep's rays: scan i faces ``ego.yaw + i *
    TAU / n_scans``, and ray (i, b) leaves ``origin`` along the unit vector
    ``(dx[i, b], dy[i, b], dz[b])``, one ``dz`` per beam, read-only and shared
    at one heading.  Its return lies at ``origin[k] + range * d[k]``, in that order."""
    return (np.array([ego.x, ego.y, ground_z + cfg.mount_height]),
            *_ray_fan(ego.yaw, cfg.azimuth_steps, cfg.vertical_angles.tobytes()))


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
    rays = ray_geometry(ego, cfg, world.ground_z)
    origin, dx, dy, dz = rays
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
            if pose.yaw:  # at yaw 0 the rotation gives x and y back bit for bit
                x, y = c * x - s * y, s * x + c * y
            enter = _box_enter_t(local, (x, y, dz), lo, hi)
            best[rows] = np.minimum(best[rows], enter)

    if cfg.noise_sigma > 0.0:
        # drawn for every ray, so the stream does not depend on the returns
        noise = rng.normal(0.0, cfg.noise_sigma, best.shape)
        hit = np.isfinite(best)
        best[hit] = np.maximum(best[hit] + noise[hit], 1e-3)

    return Sweep(ego, np.where(best <= cfg.max_range, best, np.inf), rays, world.ground_z)

