"""Scenario configuration, the run loop, metrics, and frame rendering.

A run has two phases.  Phase 1 drives the ego over the offline trajectory
with dynamic objects disabled and builds + cleans the offline map.  Phase 2
replays the ego trajectory with dynamic objects enabled, calling one online
step per tick, recording trace-region metrics and rendering PPM frames.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import AlignmentError, ConfigError
from .grid import DecayParams, GridMap, check_values, logodds_from_prob, write_map
from .instant import KIND_UNTOUCHED, ObstacleThresholds
from .fusion import (
    CleanParams,
    build_offline,
    clean_offline,
    offline_window,
    online_init,
    online_step,
    window_cells,
)
from .world import (
    Box,
    DynamicObject,
    Pose,
    Rect,
    SensorConfig,
    World,
    check_knots,
    interpolate_pose,
    simulate_sweep,
)

_MAX_ELEMENTS = np.iinfo(np.intp).max // 8  # elements of the largest float64 numpy array
_PHYSICAL_BYTES = (os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")  # RAM, if known
                   if "SC_PHYS_PAGES" in getattr(os, "sysconf_names", {}) else math.inf)


@contextmanager
def _fits(what: str, nbytes: int):
    """Turn a failed or oversized allocation into a ConfigError naming ``what``: field and size."""
    try:
        if nbytes > _PHYSICAL_BYTES:
            raise MemoryError(f"Unable to allocate {nbytes} bytes: more than the "
                              f"{_PHYSICAL_BYTES} bytes of physical memory")
        yield
    except MemoryError as exc:
        raise ConfigError(f"{what} do not fit in memory: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration

@dataclass
class ScenarioConfig:
    world: World
    ego_trajectory: list[Pose]
    offline_trajectory: list[Pose]
    sensor: SensorConfig
    decay: DecayParams
    clean: CleanParams
    thresholds: ObstacleThresholds
    extent: Rect
    resolution: float
    window_size: float
    duration: float
    tick_rate: float
    offline_tick_rate: float
    render_stride: int
    epsilon_trace: float
    seed: int
    output_dir: Optional[str]

    def __post_init__(self) -> None:
        if not self.duration * self.tick_rate <= _MAX_ELEMENTS:  # also rejects inf and NaN
            raise ConfigError(f"duration: {self.duration!r} s at {self.tick_rate!r} Hz exceeds "
                              f"the {_MAX_ELEMENTS} ticks a run can record")
        if self.n_ticks < 1:
            raise ConfigError(f"duration: {self.duration!r} s at {self.tick_rate!r} Hz "
                              "rounds to 0 ticks")
        span = self.offline_trajectory[-1].t - self.offline_trajectory[0].t
        if not math.isfinite(span * self.offline_tick_rate):
            raise ConfigError(f"offline_tick_rate: {self.offline_tick_rate!r} Hz over "
                              f"{span!r} s is too many sweeps to count")
        size = []
        for side, length in (("width", self.extent.x_max - self.extent.x_min),
                             ("height", self.extent.y_max - self.extent.y_min)):
            cells = length / self.resolution
            if not (math.isfinite(cells) and math.isclose(cells, round(cells), rel_tol=1e-9)):
                raise ConfigError(f"extent: {side} {length!r} must be a whole number of "
                                  f"{self.resolution!r} m cells")
            size.append(round(cells))
        width, height = size
        if width * height > _MAX_ELEMENTS:
            raise ConfigError(f"extent: {width:.6g}x{height:.6g} cells of {self.resolution!r} m "
                              f"exceed the {_MAX_ELEMENTS} cells a map can hold")
        # the offline map's lattice, on read-only arrays that hold no memory
        self.lattice = GridMap(self.resolution, self.extent.x_min, self.extent.y_min,
                               np.broadcast_to(0.0, (height, width)),
                               np.broadcast_to(False, (height, width)))
        # poses between knots lie on segments, and the extent and bounds are convex
        extent = ("extent", self.lattice.contains_point)
        bounds = ("world.bounds", self.world.bounds.contains)
        paths = [(name, getattr(self, name), (extent, bounds))
                 for name in ("ego_trajectory", "offline_trajectory")]
        paths += [(f"world.dynamic_objects[{j}].trajectory", obj.trajectory, (bounds,))
                  for j, obj in enumerate(self.world.dynamic_objects)]
        for name, knots, areas in paths:
            for i, knot in enumerate(knots):
                for area, contains in areas:
                    if not contains(knot.x, knot.y):
                        raise ConfigError(f"{name}[{i}]: knot ({knot.x!r}, {knot.y!r}) "
                                          f"lies outside {area}")
        window_cells(self.lattice, self.window_size)
        # so that every cell index within max_range of the ego fits an int64
        if self.sensor.max_range / self.resolution > _MAX_ELEMENTS:
            raise ConfigError(f"sensor.max_range: {self.sensor.max_range!r} m spans more than "
                              f"the {_MAX_ELEMENTS} cells a map can hold")

    @property
    def n_ticks(self) -> int:
        """Number of online ticks in the run."""
        return round(self.duration * self.tick_rate)

    @property
    def n_offline_ticks(self) -> int:
        """Number of sweeps in the offline mapping run."""
        span = self.offline_trajectory[-1].t - self.offline_trajectory[0].t
        return math.floor(span * self.offline_tick_rate) + 1


_REQUIRED = object()
_POSITIVE = (lambda v: v > 0.0, "must be positive")
_AT_LEAST_1 = (lambda v: v >= 1, "must be at least 1")


def _expect(value, kind, path: str, accepted=None):
    """``value`` if it is an instance of ``accepted`` (default ``kind``) and
    not a bool standing in for another type."""
    if isinstance(value, bool) and kind is not bool or not isinstance(value, accepted or kind):
        raise ConfigError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _read_number(value, path: str, kind=float):
    """A finite JSON number as ``kind``; an int is accepted for a float."""
    _expect(value, kind, path, (int, kind))
    try:
        if math.isfinite(value):
            return kind(value)
    except OverflowError:  # an integer too large for a float
        pass
    raise ConfigError(f"{path}: expected a finite number, got {value!r}")


def _read_numbers(raw, path: str) -> list[float]:
    return [_read_number(v, f"{path}[{i}]") for i, v in enumerate(_expect(raw, list, path))]


def _read_rect(raw, path: str) -> Rect:
    if not (isinstance(raw, list) and len(raw) == 4):
        raise ConfigError(f"{path}: expected [x_min, y_min, x_max, y_max]")
    rect = Rect(*_read_numbers(raw, path))
    if rect.x_min >= rect.x_max or rect.y_min >= rect.y_max:
        raise ConfigError(f"{path}: degenerate rectangle")
    if not (math.isfinite(rect.x_max - rect.x_min) and math.isfinite(rect.y_max - rect.y_min)):
        raise ConfigError(f"{path}: a side is longer than the largest float")
    return rect


def _read_trajectory(raw, path: str) -> list[Pose]:
    knots = []
    for i, item in enumerate(_expect(raw, list, path)):
        if not (isinstance(item, list) and len(item) == 4):
            raise ConfigError(f"{path}[{i}]: expected [t, x, y, yaw] numbers")
        t, x, y, yaw = _read_numbers(item, f"{path}[{i}]")
        knots.append(Pose(x, y, yaw, t))
    check_knots(knots, path)
    return knots


def _read_section(raw, path: str, fields: dict, build):
    """Read a config object against its field table and call ``build`` with
    the fields as keywords; every error is a ConfigError naming the field.

    The table maps each key to ``(type, default, *checks)``.  ``type`` is a
    JSON type or a reader ``(value, path) -> value``, which also reads the
    default unless that is ``None``.  ``_REQUIRED`` marks a field that must
    be present; each check is a ``(predicate, message)`` pair.
    """
    if not isinstance(raw, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'}: expected an object")
    for key in raw:
        if key not in fields:
            raise ConfigError(f"{path}{key}: unknown key")
    values = {}
    for key, (kind, default, *check) in fields.items():
        where = f"{path}{key}"
        if key not in raw and default is _REQUIRED:
            raise ConfigError(f"{where}: required field is missing")
        value = raw.get(key, default)
        if key in raw or default is not None:
            if kind is int or kind is float:
                value = _read_number(value, where, kind)
            elif isinstance(kind, type):
                _expect(value, kind, where)
            else:
                value = kind(value, where)
            for ok, message in check:
                if not ok(value):
                    raise ConfigError(f"{where}: {message}")
        values[key] = value
    try:
        return build(**values)
    except ValueError as exc:
        raise ConfigError(f"{path.rstrip('.')}: {exc}" if path else str(exc)) from exc


def _section(fields: dict, build):
    """Reader for a nested config object."""
    return lambda raw, path: _read_section(raw, f"{path}.", fields, build)


def _items(fields: dict, build):
    """Reader for a list of config objects."""
    return lambda raw, path: [_read_section(item, f"{path}[{i}].", fields, build)
                              for i, item in enumerate(_expect(raw, list, path))]


def _sensor(beam_count, vertical_min_deg, vertical_max_deg, vertical_angles_deg,
            sweep_rate, azimuth_steps, **rest) -> SensorConfig:
    # sweep_rate is accepted so that older configs load; it is not used
    if azimuth_steps * beam_count > _MAX_ELEMENTS:  # before any beam angle is built
        raise ConfigError(f"azimuth_steps: {azimuth_steps} steps x {beam_count} beams exceed "
                          f"the {_MAX_ELEMENTS} rays a sweep can hold")
    if vertical_angles_deg is None:
        with _fits(f"beam_count: {beam_count} beam angles", 8 * beam_count):
            vertical_angles_deg = np.linspace(vertical_min_deg, vertical_max_deg, beam_count)
    elif len(vertical_angles_deg) != beam_count:
        raise ConfigError(f"vertical_angles_deg: {len(vertical_angles_deg)} angles "
                          f"for beam_count {beam_count}")
    return SensorConfig(np.radians(vertical_angles_deg), azimuth_steps, **rest)


def _scenario(obstacle, offline_trajectory, offline_tick_rate, **fields) -> ScenarioConfig:
    return ScenarioConfig(
        thresholds=obstacle,
        offline_trajectory=offline_trajectory or fields["ego_trajectory"],
        offline_tick_rate=offline_tick_rate or fields["tick_rate"],
        **fields)


_BOX_FIELDS = dict.fromkeys(("x_min", "x_max", "y_min", "y_max", "z_top"), (float, _REQUIRED))
_OBJECT_FIELDS = {"name": (str, _REQUIRED), "length": (float, _REQUIRED),
                  "width": (float, _REQUIRED), "height": (float, _REQUIRED),
                  "trajectory": (_read_trajectory, _REQUIRED)}
_WORLD_FIELDS = {
    "ground_z": (float, 0.0),
    "bounds": (_read_rect, _REQUIRED),
    "static_boxes": (_items(_BOX_FIELDS, Box), []),
    "dynamic_objects": (_items(_OBJECT_FIELDS, DynamicObject), []),
}
_SENSOR_FIELDS = {
    "beam_count": (int, 32, _AT_LEAST_1, (lambda v: v <= _MAX_ELEMENTS,
                                          f"must be at most {_MAX_ELEMENTS}")),
    "vertical_min_deg": (float, -30.0),
    "vertical_max_deg": (float, 10.0),
    "vertical_angles_deg": (_read_numbers, None),
    "azimuth_steps": (int, 720, _AT_LEAST_1),
    "max_range": (float, 70.0, _POSITIVE),
    "mount_height": (float, 2.0, _POSITIVE),
    "sweep_rate": (float, None),
    "noise_sigma": (float, 0.0),
}
_DECAY_FIELDS = {"w_on": (float, 10.0), "w_off": (float, 1.0), "enabled": (bool, True)}
_CLEAN_FIELDS = {"occ_threshold": (float, 0.5), "min_component_cells": (int, 6)}
_OBSTACLE_FIELDS = {"min_height": (float, 0.30), "max_height": (float, 4.0)}
_ROOT_FIELDS = {
    "world": (_section(_WORLD_FIELDS, World), _REQUIRED),
    "ego_trajectory": (_read_trajectory, _REQUIRED),
    "offline_trajectory": (_read_trajectory, None),
    "sensor": (_section(_SENSOR_FIELDS, _sensor), {}),
    "decay": (_section(_DECAY_FIELDS, DecayParams), {}),
    "clean": (_section(_CLEAN_FIELDS, CleanParams), {}),
    "obstacle": (_section(_OBSTACLE_FIELDS, ObstacleThresholds), {}),
    "extent": (_read_rect, _REQUIRED),
    "resolution": (float, 0.2, _POSITIVE),
    "window_size": (float, 150.0, _POSITIVE),
    "duration": (float, _REQUIRED, _POSITIVE),
    "tick_rate": (float, 20.0, _POSITIVE),
    "offline_tick_rate": (float, 0.0,
                          (lambda v: v >= 0.0, "must be nonnegative (0 means tick_rate)")),
    "render_stride": (int, 5, _AT_LEAST_1),
    "epsilon_trace": (float, 0.1, _POSITIVE),
    "seed": (int, 0, (lambda v: v >= 0, "must be nonnegative")),
    "output_dir": (str, None),
}


def config_from_dict(raw: dict) -> ScenarioConfig:
    return _read_section(raw, "", _ROOT_FIELDS, _scenario)


def load_config(path) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ConfigError(f"{path}: malformed JSON: {exc}") from exc
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# metrics

@dataclass
class RunMetrics:
    """What ``run_scenario`` measured: M trace cells over T ticks."""
    trace_offline: np.ndarray        # (M,) offline value per trace cell
    trace_dev: np.ndarray            # (T, M) |online - offline| per tick, 0.0 outside the window
    last_observed: np.ndarray        # (M,) last tick each cell got evidence, -1 never
    observed_cells: np.ndarray       # (T,)
    iou: np.ndarray                  # (T,)
    wall_time: np.ndarray            # (T,)
    static_total: np.ndarray         # (T,) observed cells occupied offline
    static_ok: np.ndarray            # (T,) of those, online prob > 0.9
    epsilon_trace: float

    @cached_property
    def trace_max_dev(self) -> np.ndarray:
        return self.trace_dev.max(axis=1, initial=0.0)

    @cached_property
    def peak_dev(self) -> np.ndarray:
        return self.trace_dev.max(axis=0)

    @property
    def trace_persistence(self) -> Optional[int]:
        """Ticks from the last evidence on any trace cell until the region's
        max deviation from offline drops below ``epsilon_trace``; None for an
        empty trace region or a deviation that never drops."""
        if not self.trace_offline.size:
            return None
        seen = self.last_observed[self.last_observed >= 0]
        start = int(seen.max()) if seen.size else 0
        return next((i for i, v in enumerate(self.trace_max_dev[start:])
                     if v < self.epsilon_trace), None)

    @property
    def final_iou(self) -> float:
        return float(self.iou[-1]) if len(self.iou) else 1.0


def occupancy_iou(grid: GridMap, prior: GridMap, occupied, deviating: np.ndarray) -> float:
    """IoU of occupancy (log-odds > 0) between the window ``grid`` and its
    prior window ``prior`` over the observed cells, in exact integer counts.
    ``occupied`` indexes the window cells the prior occupies; ``deviating``
    marks at least the cells whose value differs from the prior's, which hold
    every cell occupied online but not in the prior."""
    seen = grid.observed[occupied]
    shared, union = np.count_nonzero(seen & (grid.values[occupied] > 0.0)), np.count_nonzero(seen)
    at = np.divmod(np.flatnonzero(deviating), grid.width)  # faster than a 2-D nonzero
    union += np.count_nonzero(grid.observed[at] & (grid.values[at] > 0.0)
                              & (prior.values[at] <= 0.0))
    return shared / union if union else 1.0


def _cell_near(grid: GridMap, x, y, pad: float):
    """``grid.cell_of`` of a point moved to within ``pad`` m of the map: off it if pad > 0."""
    return grid.cell_of(
        np.clip(x, grid.origin_x - pad, grid.origin_x + grid.width * grid.resolution + pad),
        np.clip(y, grid.origin_y - pad, grid.origin_y + grid.height * grid.resolution + pad))


def _mark_footprints(mask: np.ndarray, value: bool, obj: DynamicObject, times,
                     grid: GridMap, margin: float = 0.0) -> None:
    """Set ``mask`` to ``value`` on the cells whose center lies in the object
    footprint at any of ``times``, grown by ``margin`` meters on every side.
    A pass tests, for a batch of times, the map cells of the square around
    each pose that holds the footprint in any heading: about 2**18 cells."""
    half_l, half_w = obj.length / 2.0 + margin, obj.width / 2.0 + margin
    reach = math.hypot(half_l, half_w)
    span = 2.0 * reach / grid.resolution  # inf for a footprint no float can span
    n_cols, n_rows = (min(n, math.ceil(min(span, n)) + 2) for n in (grid.width, grid.height))
    batch = max(1, (1 << 18) // (n_cols * n_rows))
    for i in range(0, len(times), batch):
        poses = [obj.pose_at(t) for t in times[i:i + batch].tolist()]
        px, py, ca, sa = (np.array(v)[:, None, None] for v in zip(*(
            (p.x, p.y, math.cos(-p.yaw), math.sin(-p.yaw)) for p in poses)))
        c0, r0 = _cell_near(grid, px - reach, py - reach, 0.0)
        cols, rows = c0 + np.arange(n_cols)[None, None, :], r0 + np.arange(n_rows)[None, :, None]
        cx, cy = grid.center_of(cols, rows)
        lx = ca * (cx - px) - sa * (cy - py)
        ly = sa * (cx - px) + ca * (cy - py)
        inside = (np.abs(lx) <= half_l) & (np.abs(ly) <= half_w) & grid.contains_cell(cols, rows)
        k, r, c = np.nonzero(inside)
        mask[rows[k, r, 0], cols[k, 0, c]] = value


def compute_trace_region(cfg: ScenarioConfig,
                         offline: GridMap) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols) of the cells swept by a dynamic footprint in phase 2 that
    the cleaned offline map knows to be free.

    Cells under or next to an object's first and final footprints are
    excluded: final-footprint cells are still legitimately occupied when the
    run ends, and first-footprint interiors may never have been exposed to
    the sensor at all.  Static obstacle footprints are excluded the same way.
    """
    mask = np.zeros(offline.shape, dtype=bool)
    with _fits(f"duration: {cfg.n_ticks} ticks", 16 * cfg.n_ticks):  # int64 and float64 times
        times = np.arange(cfg.n_ticks) / cfg.tick_rate
    for obj in cfg.world.dynamic_objects:
        _mark_footprints(mask, True, obj, times, offline)
    mask &= offline.observed & (offline.values < 0.0)
    for obj in cfg.world.dynamic_objects:
        _mark_footprints(mask, False, obj, times[[0, -1]], offline,
                         margin=3.0 * offline.resolution)
    for box in cfg.world.static_boxes:
        c0, r0 = _cell_near(offline, box.x_min, box.y_min, offline.resolution)
        c1, r1 = _cell_near(offline, box.x_max, box.y_max, offline.resolution)
        mask[max(r0, 0):max(r1 + 1, 0), max(c0, 0):max(c1 + 1, 0)] = False
    return np.nonzero(mask)


# ---------------------------------------------------------------------------
# rendering

def render_frame(grid: GridMap, path) -> None:
    """Write a binary PPM (P6), one pixel per cell, image north = world +y.

    Unobserved cells are blue; observed cells are a gray ramp from white
    (free) to black (occupied), evaluated on observed cells only: their values
    must be finite and in [L_MIN, L_MAX] (``mapdecay render`` runs ``check_values``).
    """
    ramp = grid.values[grid.observed]  # a copy: the ramp runs on it in place
    np.negative(ramp, out=ramp)
    np.exp(ramp, out=ramp)
    ramp += 1.0
    np.divide(1.0, ramp, out=ramp)
    np.subtract(1.0, ramp, out=ramp)
    ramp *= 255.0
    gray = np.zeros(grid.values.shape, dtype=np.uint8)
    gray[grid.observed] = np.rint(ramp, out=ramp)
    gray, observed = gray[::-1], grid.observed[::-1]  # row 0 at the max-y edge
    rgb = np.empty((grid.height, grid.width, 3), dtype=np.uint8)
    rgb[..., 0] = rgb[..., 1] = gray
    np.bitwise_or(gray, ~observed * np.uint8(255), out=rgb[..., 2])  # unobserved: blue
    with open(path, "wb") as fh:
        fh.write(f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(rgb)


# ---------------------------------------------------------------------------
# run loop

def _sweeper(cfg: ScenarioConfig, world: World, trajectory: list[Pose], seed: int):
    """``sweep_at(t)`` along ``trajectory``, if up to 18 ray-sized arrays fit in memory:
    11 in simulate_sweep, 6 in three more headings' cached fans, 1 in the last sweep."""
    steps, beams = cfg.sensor.azimuth_steps, cfg.sensor.vertical_angles.size
    with _fits(f"sensor.azimuth_steps: {steps}x{beams} rays", 18 * 8 * steps * beams):
        rng = np.random.default_rng(seed)
    return lambda t: simulate_sweep(world, interpolate_pose(trajectory, t), cfg.sensor, rng)


def build_offline_phase(cfg: ScenarioConfig) -> GridMap:
    """Phase 1: replay the offline trajectory with dynamic objects disabled."""
    sweep_at = _sweeper(cfg, cfg.world.without_dynamic(), cfg.offline_trajectory, cfg.seed)
    t0 = cfg.offline_trajectory[0].t
    sweeps = (sweep_at(t0 + k / cfg.offline_tick_rate) for k in range(cfg.n_offline_ticks))
    lat = cfg.lattice  # blank, not lat.copy(): np.zeros commits no page until it is written
    with _fits(f"extent: {lat.width}x{lat.height} cells of {lat.resolution!r} m",
               9 * lat.width * lat.height):  # float64 values and a bool mask
        grid = GridMap.blank(lat.resolution, lat.origin_x, lat.origin_y, lat.width, lat.height)
    build_offline(sweeps, grid, cfg.thresholds)
    return clean_offline(grid, cfg.clean)


def run_scenario(cfg: ScenarioConfig, offline: GridMap, output_dir) -> RunMetrics:
    """Phase 2 on the prior ``offline``, which must lie on the config's extent
    and resolution and hold only values in ``[L_MIN, L_MAX]``: write frames,
    maps and a metrics CSV into ``output_dir`` and print nothing.  Outputs are
    deterministic given the config; partial ones are removed on failure."""
    if not (offline.shape == cfg.lattice.shape and offline.offset_in(cfg.lattice) == (0, 0)):
        raise AlignmentError("offline map does not match the config's extent and resolution")
    check_values(offline, "offline map")
    created: list[Path] = []
    try:
        return _run_scenario(cfg, offline, Path(output_dir), created)
    except Exception:
        for p in created:
            p.unlink(missing_ok=True)
        raise


def _run_scenario(cfg: ScenarioConfig, offline: GridMap, out: Path,
                  created: list[Path]) -> RunMetrics:
    sweep_at = _sweeper(cfg, cfg.world, cfg.ego_trajectory, cfg.seed + 1)
    rows, cols = compute_trace_region(cfg, offline)
    with _fits(f"duration: {cfg.n_ticks} ticks", 8 * cfg.n_ticks * (len(rows) + 5)):  # records
        trace_dev = np.zeros((cfg.n_ticks, len(rows)))
        observed_cells, static_total, static_ok = np.zeros((3, cfg.n_ticks), dtype=np.int64)
        iou, wall = np.zeros((2, cfg.n_ticks))
    trace_off = offline.values[rows, cols]
    last_observed = np.full(len(rows), -1, dtype=np.int64)
    frames_dir = out / "frames"
    frames_dir.mkdir(parents=True, exist_ok=True)

    online = online_init(offline, interpolate_pose(cfg.ego_trajectory, 0.0), cfg.window_size)
    occ_cut = logodds_from_prob(0.9)
    # every prior class (occupied; and observed) lies on the prior's occupied cells
    occ_rows, occ_cols = np.nonzero(offline.values > 0.0)
    occ_static = offline.observed[occ_rows, occ_cols]

    for k in range(cfg.n_ticks):
        t_start = time.perf_counter()
        sweep = sweep_at(k / cfg.tick_rate)
        inst = online_step(online, sweep, cfg.decay, cfg.thresholds)
        grid = online.grid

        # trace region cells mapped into the current window
        dc, dr = grid.offset_in(offline)
        wc, wr = cols - dc, rows - dr
        inside = np.flatnonzero(grid.contains_cell(wc, wr))
        at = wr[inside], wc[inside]
        trace_dev[k, inside] = np.abs(grid.values[at] - trace_off[inside])
        last_observed[inside[inst.kind[at] != KIND_UNTOUCHED]] = k

        observed_cells[k] = np.count_nonzero(grid.observed)
        # the prior's occupied cells in the window give the static counts and the IoU
        wc, wr = occ_cols - dc, occ_rows - dr
        inside = grid.contains_cell(wc, wr)
        at = wr[inside], wc[inside]
        static = grid.observed[at] & occ_static[inside]
        static_total[k] = np.count_nonzero(static)
        static_ok[k] = np.count_nonzero(static & (grid.values[at] > occ_cut))
        iou[k] = occupancy_iou(grid, offline_window(offline, grid), at, online.deviating)

        if k % cfg.render_stride == 0:
            frame = frames_dir / f"frame_{k:06d}.ppm"
            created.append(frame)
            render_frame(grid, frame)
        wall[k] = time.perf_counter() - t_start

    for name, grid_out in (("offline.ogm", offline), ("online_final.ogm", online.grid)):
        path = out / name
        created.append(path)
        write_map(grid_out, path)

    csv_path = out / "metrics.csv"
    created.append(csv_path)
    metrics = RunMetrics(trace_off, trace_dev, last_observed, observed_cells,
                         iou, wall, static_total, static_ok, cfg.epsilon_trace)
    ticks = np.arange(cfg.n_ticks)
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:  # "\r\n" on every OS
        np.savetxt(fh, np.column_stack((ticks, ticks / cfg.tick_rate, metrics.trace_max_dev,
                                        observed_cells, iou)),
                   fmt=["%d", "%.6f", "%.12g", "%d", "%.12g"], delimiter=",", newline="\r\n",
                   header="tick,t_sec,trace_max_dev,observed_cells,iou", comments="")

    return metrics
