from __future__ import annotations

import contextlib
import copy
import csv
import dataclasses
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import conftest

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mapdecay
from mapdecay import (
    AlignmentError,
    ConfigError,
    DecayParams,
    DomainError,
    GridMap,
    apply_decay,
    apply_instant,
    config_from_dict,
    load_config,
    read_map,
    run_scenario,
    write_map,
)
from mapdecay import scenario
from mapdecay.cli import main
from mapdecay.grid import L_MAX, L_MIN
from mapdecay.instant import L_FREE_SET, L_OCC, InstantMap
from mapdecay.scenario import (
    RunMetrics,
    build_offline_phase,
    compute_trace_region,
    occupancy_iou,
    render_frame,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

OVERTAKE = Path(__file__).resolve().parent.parent / "configs" / "overtake.json"


class TestConfigValidation:
    def test_round_trip_through_json(self, mini_dict, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(mini_dict))
        cfg = load_config(path)
        assert cfg.tick_rate == 20.0
        assert cfg.decay.w_on == 10.0
        assert cfg.world.dynamic_objects[0].name == "cart"

    def test_unknown_key_named_in_error(self, mini_dict):
        mini_dict["velocity"] = 3.0
        with pytest.raises(ConfigError, match="velocity"):
            config_from_dict(mini_dict)

    def test_unknown_nested_key(self, mini_dict):
        mini_dict["sensor"]["fov"] = 1.0
        with pytest.raises(ConfigError, match="sensor.fov"):
            config_from_dict(mini_dict)

    def test_missing_required_field(self, mini_dict):
        del mini_dict["duration"]
        with pytest.raises(ConfigError, match="duration"):
            config_from_dict(mini_dict)

    def test_wrong_type_named(self, mini_dict):
        mini_dict["tick_rate"] = "fast"
        with pytest.raises(ConfigError, match="tick_rate"):
            config_from_dict(mini_dict)

    def test_duplicate_object_names(self, mini_dict):
        objs = mini_dict["world"]["dynamic_objects"]
        objs.append(dict(objs[0]))
        with pytest.raises(ConfigError, match="duplicate"):
            config_from_dict(mini_dict)

    def test_bad_trajectory_shape(self, mini_dict):
        mini_dict["ego_trajectory"] = [[0.0, 1.0]]
        with pytest.raises(ConfigError, match="ego_trajectory"):
            config_from_dict(mini_dict)

    def test_nonpositive_duration(self, mini_dict):
        mini_dict["duration"] = 0.0
        with pytest.raises(ConfigError, match="duration"):
            config_from_dict(mini_dict)

    def test_defaults_applied(self, mini_dict):
        del mini_dict["decay"]
        del mini_dict["render_stride"]
        cfg = config_from_dict(mini_dict)
        assert cfg.decay.w_on == 10.0 and cfg.decay.w_off == 1.0
        assert cfg.render_stride == 5

    @pytest.mark.parametrize("section, key, value, path", [
        ("world", "bounds", ["a", -30.0, 30.0, 30.0], "world.bounds"),
        (None, "extent", [None, -24.0, 24.0, 24.0], "extent"),
        ("sensor", "vertical_angles_deg", ["x"] + [0.0] * 7, "sensor.vertical_angles_deg"),
        (None, "duration", float("nan"), "duration"),
        (None, "tick_rate", float("inf"), "tick_rate"),
        (None, "duration", 10**400, "duration"),  # an integer no float can hold
        (None, "duration", 1e308, "duration"),  # a tick count no float can hold
        (None, "duration", 1e300, "duration: 1e+300 s at 20.0 Hz exceeds"),  # too many to record
        (None, "extent", [-24.0, -24.0, 24.1, 24.0], "extent"),  # 240.5 cells wide
        (None, "offline_tick_rate", 1e308, "offline_tick_rate"),  # a sweep count no float can hold
        (None, "ego_trajectory", [[0.0, 0.0, 0.0, 0.0], [7.0, 28.0, 0.0, 0.0]],
         "ego_trajectory[1]"),  # ends outside the +-24 m extent
        ("sensor", "beam_count", 0, "sensor.beam_count"),
        ("sensor", "beam_count", -3, "sensor.beam_count"),
        (None, "offline_tick_rate", -1.0,
         "offline_tick_rate: must be nonnegative (0 means tick_rate)"),
        (None, "seed", -1, "seed: must be nonnegative"),
        (None, "window_size", 1e12, "window_size: 5000000000000x5000000000000 cells exceed "
         "the extent's 240x240"),
        (None, "window_size", 1e308, "window_size: infxinf cells"),  # a side no float can hold
        # a one-cell window, snapped half to even, can miss the ego's cell
        (None, "window_size", 0.2, "window_size: must be at least two 0.2 m cells"),
        ("world", "static_boxes",
         [{"x_min": 8.0, "x_max": -8.0, "y_min": 6.0, "y_max": 6.4, "z_top": 3.0}],
         "world.static_boxes[0]: a box needs x_min < x_max"),
        (None, "duration", 1e-6, "duration: 1e-06 s at 20.0 Hz rounds to 0 ticks"),
        (None, "tick_rate", 0.01, "duration: 7.0 s at 0.01 Hz rounds to 0 ticks"),
        # the ego at (0, 0) is inside the +-24 m extent but below these bounds
        ("world", "bounds", [-30.0, 1.0, 30.0, 30.0],
         "ego_trajectory[0]: knot (0.0, 0.0) lies outside world.bounds"),
        ("sensor", "mount_height", -1.0, "sensor.mount_height: must be positive"),
        ("sensor", "mount_height", 0.0, "sensor.mount_height: must be positive"),
        ("sensor", "max_range", -1.0, "sensor.max_range: must be positive"),
        # a return this far off has a cell index no int64 can hold
        ("sensor", "max_range", 1e300, "sensor.max_range: 1e+300 m spans more than the "
         "1152921504606846975 cells a map can hold"),
        # arrays of more float64 elements than numpy can address
        ("sensor", "azimuth_steps", 2**60,
         "sensor: azimuth_steps: 1152921504606846976 steps x 8 beams exceed the "
         "1152921504606846975 rays a sweep can hold"),
        ("sensor", "azimuth_steps", 10**30, f"sensor: azimuth_steps: {10**30} steps x 8"),
        ("sensor", "azimuth_steps", 2**63, "sensor: azimuth_steps: 9223372036854775808 steps"),
        # rejected before the beam angles are built: np.linspace would ask for 64 PiB
        ("sensor", "beam_count", 2**53 + 1, "sensor: azimuth_steps: 720 steps x "
         "9007199254740993 beams exceed the 1152921504606846975 rays a sweep can hold"),
        ("sensor", "beam_count", 2**63, "sensor.beam_count: must be at most 1152921504606846975"),
        ("sensor", "beam_count", 2**60, "sensor.beam_count: must be at most 1152921504606846975"),
        (None, "resolution", 1e-300, "extent: 4.8e+301x4.8e+301 cells of 1e-300 m exceed the "
         "1152921504606846975 cells a map can hold"),
        (None, "extent", [-1e18, -1e18, 1e18, 1e18], "extent: 1e+19x1e+19 cells of 0.2 m"),
        # a knot no int64 cell index can hold is outside the extent, without a cast
        (None, "ego_trajectory", [[0.0, 0.0, 0.0, 0.0], [7.0, 1e300, 0.0, 0.0]],
         "ego_trajectory[1]: knot (1e+300, 0.0) lies outside extent"),
        # a dynamic object may leave the +-24 m map, but not the +-30 m world
        ("world", "dynamic_objects",
         [{"name": "cart", "length": 1.2, "width": 0.8, "height": 2.4,
           "trajectory": [[0.5, -4.0, 2.5, 0.0], [4.0, 500.0, 2.5, 0.0]]}],
         "world.dynamic_objects[0].trajectory[1]: knot (500.0, 2.5) lies outside world.bounds"),
        # sides whose length overflows a float, though each end is finite
        ("world", "bounds", [-1.7e308, -30.0, 1.7e308, 30.0],
         "world.bounds: a side is longer than the largest float"),
        (None, "extent", [-24.0, -1.7e308, 24.0, 1.7e308],
         "extent: a side is longer than the largest float"),
        (None, "extent", [1.0, 2.0, 3.0], "extent: expected [x_min, y_min, x_max, y_max]"),
        (None, "extent", [24.0, -24.0, -24.0, 24.0], "extent: degenerate rectangle"),
        (None, "ego_trajectory", [], "ego_trajectory has no knots"),
        (None, "ego_trajectory", [[1.0, 0.0, 0.0, 0.0], [1.0, 1.0, 0.0, 0.0]],
         "ego_trajectory: knot timestamps must be strictly increasing"),
        (None, "sensor", [], "sensor: expected an object"),
    ], ids=["bounds", "extent", "vertical_angles", "nan", "inf", "huge_int",
            "tick_overflow", "long_run", "partial_cell", "offline_tick_overflow",
            "knot_outside_extent", "no_beams", "negative_beams", "negative_offline_tick_rate",
            "negative_seed",
            "huge_window", "window_overflow", "one_cell_window", "inverted_box", "short_duration",
            "slow_tick_rate", "knot_outside_bounds", "negative_mount_height",
            "zero_mount_height", "negative_max_range", "max_range_beyond_int64",
            "azimuth_2e60", "azimuth_1e30", "azimuth_2e63", "beams_2e53", "beams_2e63",
            "beams_2e60",
            "tiny_resolution", "huge_extent",
            "knot_beyond_int64", "object_knot_outside_bounds", "bounds_side_overflow",
            "extent_side_overflow", "extent_of_three", "inverted_extent", "no_knots",
            "repeated_knot_time", "sensor_not_an_object"])
    def test_malformed_numbers_rejected(self, mini_dict, tmp_path, capsys,
                                        section, key, value, path):
        (mini_dict[section] if section else mini_dict)[key] = value
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_dict(mini_dict)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(mini_dict))  # NaN and Infinity as JSON literals
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["ego_trajectory", "offline_trajectory"])
    def test_knot_inside_extent_outside_bounds_rejected(self, mini_dict, tmp_path, capsys, name):
        # with a +-40 m extent, a knot at x = 35 lies outside the +-30 m bounds
        mini_dict["extent"] = [-40.0, -40.0, 40.0, 40.0]
        mini_dict[name] = [[0.0, 0.0, 0.0, 0.0], [3.0, 35.0, 0.0, 0.0]]
        path = f"{name}[1]: knot (35.0, 0.0) lies outside world.bounds"
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_dict(mini_dict)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(mini_dict))
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        assert path in capsys.readouterr().err

    SECTION_CASES = [
        ("obstacle", {"min_height": 4.0, "max_height": 0.3},
         "obstacle: obstacle min_height must be below max_height"),
        ("obstacle", {"min_height": 1.0, "max_height": 1.0},
         "obstacle: obstacle min_height must be below max_height"),
        ("sensor", {"noise_sigma": -0.5}, "sensor: noise_sigma must be nonnegative"),
        ("decay", {"w_on": float("nan")}, "decay.w_on: expected a finite number, got nan"),
        ("sensor", {"vertical_angles_deg": [-20.0, -10.0, 0.0]},  # beam_count is 8
         "sensor: vertical_angles_deg: 3 angles for beam_count 8"),
        ("sensor", {"vertical_angles_deg": [], "beam_count": 0},
         "sensor.beam_count: must be at least 1"),
        ("sensor", {"vertical_min_deg": -120.0},  # the lowest beam points backwards
         "sensor: vertical angles must lie within +-90 degrees"),
        ("decay", {"w_on": 1e308, "w_off": 1e308},  # each finite, the sum is not
         "decay: w_on + w_off must be positive and finite"),
        ("world", {"static_boxes": [{"x_min": -8.0, "x_max": 8.0, "y_min": 6.0, "y_max": 6.4,
                                     "z_top": 0.0}]},  # the ground plane is at 0
         "world: static_boxes[0]: top must be above the ground plane"),
        ("world", {"dynamic_objects": [dict(conftest.MINI_CONFIG["world"]["dynamic_objects"][0],
                                            length=0.0)]},
         "world.dynamic_objects[0]: dynamic object 'cart' must have positive dimensions"),
        ("world", {"static_boxes": conftest.MINI_CONFIG["world"]["static_boxes"] + [
            {"x_min": 29.0, "x_max": 31.0, "y_min": -1.0, "y_max": 1.0, "z_top": 3.0}]},
         "world: static_boxes[1]: lies outside the world bounds"),  # the bounds end at 30
        ("sensor", {"vertical_angles_deg": [-10.0, -20.0], "beam_count": 2},
         "sensor: vertical angles must be strictly increasing"),
    ]

    @pytest.mark.parametrize("section, values, message", SECTION_CASES,
                             ids=[f"{c[0]}-values{i}" for i, c in enumerate(SECTION_CASES)])
    def test_invalid_section_values_rejected(self, mini_dict, section, values, message):
        mini_dict[section].update(values)
        with pytest.raises(ConfigError) as exc:
            config_from_dict(mini_dict)
        assert str(exc.value) == message

    def test_root_must_be_an_object(self):
        with pytest.raises(ConfigError) as exc:
            config_from_dict([])
        assert str(exc.value) == "config: expected an object"

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")

    def test_parsing_builds_no_map(self):
        # numpy's allocations are traced: a zeroed overtake map alone is 14.4 MB
        tracemalloc.start()
        try:
            cfg = load_config(OVERTAKE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        assert cfg.lattice.shape == (800, 2000)
        with pytest.raises(ValueError):
            cfg.lattice.values[0, 0] = 1.0

    def test_a_lattice_too_large_to_allocate_parses(self, mini_dict):
        # 5e9 x 240 cells, 8.73 TiB as a map: the parser must not build one;
        # never passed to build_offline_phase or the CLI
        mini_dict["extent"] = [-24.0, -24.0, 24.0, 1e9]
        assert config_from_dict(mini_dict).lattice.shape == (5_000_000_120, 240)


def _on_a_blank_prior(raw):
    cfg = config_from_dict(raw)
    return cfg, cfg.lattice.copy()


def _run_with_no_trace_cells(raw, out):
    with mock.patch.object(scenario, "compute_trace_region",
                           lambda cfg, offline: (np.zeros(0, np.intp),) * 2):
        return run_scenario(*_on_a_blank_prior(raw), out)


_TOO_LARGE = {
    "beam_angles": (
        {"sensor": dict(conftest.MINI_CONFIG["sensor"], azimuth_steps=1, beam_count=2**53 + 1)},
        lambda raw, out: config_from_dict(raw), "sensor: beam_count: 9007199254740993 beam angles"),
    "extent": (
        {"extent": [-1e6, -1e6, 1e6, 1e6]},
        lambda raw, out: build_offline_phase(config_from_dict(raw)),
        "extent: 10000000x10000000 cells of 0.2 m"),
    "tick_times": (
        {"duration": 1e14}, lambda raw, out: compute_trace_region(*_on_a_blank_prior(raw)),
        "duration: 2000000000000000 ticks"),
    "records": ({"duration": 1e14}, _run_with_no_trace_cells, "duration: 2000000000000000 ticks"),
}


@pytest.mark.parametrize("edit, call, field, bounded", [
    (*case, bounded) for bounded in (True, False) for case in _TOO_LARGE.values()],
    ids=[name + suffix for suffix in ("", "-unbounded") for name in _TOO_LARGE])
def test_arrays_too_large_to_allocate_name_their_field(mini_dict, tmp_path, edit, call, field,
                                                       bounded):
    # each request exceeds the physical memory, so the bound refuses it
    # before allocating; with no bound, it exceeds the address space and the
    # allocation fails at once, without touching memory, as in TestCli's runs
    # of the same configs
    mini_dict.update(edit)
    bound = scenario._PHYSICAL_BYTES if bounded else math.inf
    with mock.patch.object(scenario, "_PHYSICAL_BYTES", bound), \
            pytest.raises(ConfigError) as exc:
        call(mini_dict, tmp_path / "out")
    assert str(exc.value).startswith(f"{field} do not fit in memory: Unable to allocate")
    assert str(exc.value).endswith("bytes of physical memory") == bounded
    cause = exc.value.__cause__
    while isinstance(cause, ConfigError):  # the parser prefixes its section: sensor
        cause = cause.__cause__
    assert isinstance(cause, MemoryError)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("phase", ["offline", "online"])
def test_sweeps_beyond_physical_memory_name_azimuth_steps(mini_dict, tmp_path, capsys, phase):
    # 36000 x 8 rays ask for 41.5 MB, on a machine made to hold 4 MB: each
    # phase refuses them before its first sweep and before writing a file
    mini_dict["sensor"]["azimuth_steps"] = 36000
    message = ("sensor.azimuth_steps: 36000x8 rays do not fit in memory: Unable to allocate "
               "41472000 bytes: more than the 4000000 bytes of physical memory")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(mini_dict))
    with mock.patch.object(scenario, "_PHYSICAL_BYTES", 4_000_000):
        if phase == "offline":
            assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        else:
            with pytest.raises(ConfigError) as exc:
                run_scenario(*_on_a_blank_prior(mini_dict), tmp_path / "out")
            assert str(exc.value) == message
    assert not (tmp_path / "out").exists()


def _leaves(node, path=()):
    """Paths of the scalar leaves of a JSON tree."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [leaf for key, value in items for leaf in _leaves(value, path + (key,))]
    return [path]


# the mini config at 30 ticks, and values at the edges of what JSON and a float hold
_SHORT_MINI = dict(conftest.MINI_CONFIG, duration=1.5)
_EDGE_VALUES = [0, -0.0, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308, 2**53 + 1,
                2**63, 10**400, True, False, None, "text", [1.0], {"key": 1.0}]
_EDITS = st.lists(st.tuples(st.sampled_from(_leaves(_SHORT_MINI)), st.sampled_from(_EDGE_VALUES)),
                  min_size=1, max_size=2, unique_by=lambda edit: edit[0])


@settings(max_examples=200, deadline=None)
@given(_EDITS)
@example([(("window_size",), 0.2), (("ego_trajectory", 0, 1), 0.2)])  # a window missing the ego
@example([(("sensor", "beam_count"), 2**53 + 1)])  # more beam angles than memory holds
@example([(("extent", 3), 1e9)])  # a lattice too large to allocate
def test_config_edits_are_rejected_at_the_boundary(edits):
    # an edit gives a config or one ConfigError; a config of a small run then
    # runs to the end, or stops in one error line that names a field
    raw = copy.deepcopy(_SHORT_MINI)
    for path, value in edits:
        node = raw
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = copy.deepcopy(value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            cfg = config_from_dict(raw)
        except ConfigError:
            return
        if (cfg.lattice.width * cfg.lattice.height > 2e6 or cfg.n_ticks > 40
                or cfg.sensor.azimuth_steps * cfg.sensor.vertical_angles.size > 2e5
                or cfg.n_offline_ticks > 60):
            return
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(raw))
            status = main(["run", str(path), "--output", str(Path(tmp) / "out")])
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    assert (status, errors) == (0, []) or (
        status == 1 and len(errors) == 1
        and re.match(r"error: (\w*)", errors[0])[1] in _SHORT_MINI), (status, errors)


@st.composite
def _iou_cases(draw):
    """(online, prior, observed, extra): window and prior values, the
    window's observed flags, and marks added to the cells that differ."""
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9))
    # 0.0 is the occupancy edge: it counts as not occupied
    cell = st.floats(L_MIN, L_MAX) | st.sampled_from([0.0, -0.0, 5e-324])
    prior = draw(hnp.arrays(np.float64, shape, elements=cell))
    online = draw(hnp.arrays(np.float64, shape, elements=cell))
    online = np.where(draw(hnp.arrays(np.bool_, shape)), prior, online)  # cells at their prior
    observed = draw(st.sampled_from([np.zeros(shape, bool), np.ones(shape, bool)])
                    | hnp.arrays(np.bool_, shape))
    return online, prior, observed, draw(hnp.arrays(np.bool_, shape))


def _cells(*occupied):
    """A 4x4 map of 0.0 with 5.0 at the ``occupied`` (row, col) cells."""
    values = np.zeros((4, 4))
    for cell in occupied:
        values[cell] = 5.0
    return values


ALL, NONE = np.ones((4, 4), bool), np.zeros((4, 4), bool)


def persistence(max_dev, eps_trace: float):
    """``trace_persistence`` of one never-observed trace cell whose deviation
    from its offline value at each tick is the ``max_dev`` stream."""
    ticks = np.zeros(len(max_dev))
    return RunMetrics(np.zeros(1), np.asarray(max_dev, dtype=float)[:, None], np.array([-1]),
                      ticks, ticks, ticks, ticks, ticks, eps_trace).trace_persistence


def iou_of(online, prior, observed, extra=False):
    """``occupancy_iou`` of the window ``online`` against ``prior`` over the
    ``observed`` cells, with ``extra`` marks added to the deviating cells."""
    return occupancy_iou(GridMap(0.2, 0.0, 0.0, online, observed), GridMap(0.2, 0.0, 0.0, prior),
                         np.nonzero(prior > 0.0), (online != prior) | extra)


class TestMetrics:
    def test_persistence_examples(self):
        assert persistence([0.0, 0.0], 0.1) == 0
        assert persistence([1.0, 0.5, 0.05], 0.1) == 2
        assert persistence([1.0, 0.5], 0.1) is None
        # a single cell left 11.0 above its offline value decays under
        # (10, 1) weights to below 0.1 on the 50th step
        stream = 11.0 * (10.0 / 11.0) ** np.arange(80)
        assert persistence(stream, 0.1) == 50

    def test_iou_examples(self):
        assert iou_of(_cells((0, 0)), _cells((0, 0)), ALL) == 1.0  # equal maps
        assert iou_of(_cells((0, 0)), _cells((1, 1)), ALL) == 0.0  # disjoint
        assert iou_of(_cells(), _cells(), ALL) == 1.0  # empty

    def test_iou_respects_mask(self):
        assert iou_of(_cells((0, 0)), _cells(), _cells((0, 0)) == 0.0) == 1.0

    @given(_iou_cases())
    @example((np.ones((3, 3)), np.ones((3, 3)), np.zeros((3, 3), bool), np.ones((3, 3), bool)))
    @example((np.zeros((2, 4)), np.zeros((2, 4)), np.ones((2, 4), bool),
              np.zeros((2, 4), bool)))
    def test_iou_matches_dense_iou(self, case):
        # deviating marks every cell that differs from the prior, and more
        online, prior, observed, extra = case
        assert iou_of(online, prior, observed, extra) == conftest.dense_iou(online, prior, observed)

    def test_the_run_scores_every_tick_with_occupancy_iou(self, mini_dict, tmp_path):
        mini_dict["duration"] = 2.0
        cfg = config_from_dict(mini_dict)
        offline = build_offline_phase(cfg)
        returns = []

        def record(*args):
            returns.append(occupancy_iou(*args))
            return returns[-1]

        with mock.patch.object(scenario, "occupancy_iou", wraps=record) as spy:
            metrics = run_scenario(cfg, offline, tmp_path)
        assert spy.call_count == cfg.n_ticks == 40
        assert metrics.iou.tolist() == returns and len(set(returns)) > 1


def dense_render(grid, path):
    """Reference render: the gray ramp over every cell, then blue stored into
    the unobserved pixels."""
    prob = 1.0 / (1.0 + np.exp(-grid.values))
    gray = np.rint(255.0 * (1.0 - prob)).astype(np.uint8)
    rgb = np.empty((grid.height, grid.width, 3), dtype=np.uint8)
    rgb[:, :, 0] = rgb[:, :, 1] = rgb[:, :, 2] = gray
    rgb[~grid.observed] = (0, 0, 255)
    rgb = rgb[::-1]  # row 0 at the max-y edge
    with open(path, "wb") as fh:
        fh.write(f"P6\n{grid.width} {grid.height}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


# L_FREE_SET and 0.0 land exactly on the ramp's rounding ties (229.5, 127.5)
_RAMP_EDGES = [L_FREE_SET, 0.0, L_MIN, L_MAX, L_OCC]


# contiguous, row-reversed, column-strided and transposed grids
_VIEWS = [lambda a: a, lambda a: a[::-1], lambda a: a[:, ::2], lambda a: a.T]


@st.composite
def _frames(draw):
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9))
    values = draw(hnp.arrays(np.float64, shape, elements=st.floats(L_MIN, L_MAX)
                             | st.sampled_from(_RAMP_EDGES)))
    observed = draw(st.sampled_from([np.zeros(shape, bool), np.ones(shape, bool)])
                    | hnp.arrays(np.bool_, shape))
    view = draw(st.sampled_from(_VIEWS))
    return view(values), view(observed)


class TestRender:
    @given(_frames())
    @example((np.array([_RAMP_EDGES]), np.ones((1, 5), bool)))
    @example((np.array([_RAMP_EDGES]).T, np.array([[1], [0], [1], [1], [0]], bool)))
    @example((np.full((2, 3), L_FREE_SET), np.zeros((2, 3), bool)))
    def test_matches_dense_render(self, frame):
        values, observed = frame
        g = GridMap(0.5, 0.0, 0.0, values, observed)
        with tempfile.TemporaryDirectory() as d:
            render_frame(g, Path(d) / "a.ppm")
            dense_render(g, Path(d) / "b.ppm")
            assert (Path(d) / "a.ppm").read_bytes() == (Path(d) / "b.ppm").read_bytes()

    @given(_frames())
    def test_leaves_its_grid_untouched(self, frame):
        g = GridMap(0.5, 0.0, 0.0, *frame)
        before = g.values.tobytes(), g.observed.tobytes()
        with tempfile.TemporaryDirectory() as d:
            render_frame(g, Path(d) / "a.ppm")
        assert (g.values.tobytes(), g.observed.tobytes()) == before

    def test_unobserved_values_are_never_evaluated(self, tmp_path):
        # the ramp would overflow exp on -1e6 and cast NaN; unobserved cells
        # take their blue from the observed mask, so neither reaches it
        g = GridMap.blank(0.5, 0.0, 0.0, 2, 2)
        g.values[:] = [[-1e6, np.nan], [L_MIN, L_MAX]]
        g.observed[1, :] = True
        path = tmp_path / "f.ppm"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            render_frame(g, path)
        pixels = np.frombuffer(path.read_bytes()[len(b"P6\n2 2\n255\n"):], dtype=np.uint8)
        pixels = pixels.reshape(2, 2, 3)
        # image row 1 is grid row 0, the unobserved one
        assert (pixels[1] == [0, 0, 255]).all()
        assert (pixels[0] == [[255, 255, 255], [0, 0, 0]]).all()

    def test_pixel_values_and_row_order(self, tmp_path):
        g = GridMap.blank(0.5, 0.0, 0.0, 2, 2)
        g.values[0, 0] = -50.0   # certainly free -> white
        g.values[0, 1] = 50.0    # certainly occupied -> black
        g.observed[0, :] = True  # bottom row observed, top row unknown
        path = tmp_path / "f.ppm"
        render_frame(g, path)
        blob = path.read_bytes()
        assert blob.startswith(b"P6\n2 2\n255\n")
        pixels = np.frombuffer(blob[len(b"P6\n2 2\n255\n"):], dtype=np.uint8)
        pixels = pixels.reshape(2, 2, 3)
        # image row 0 is the max-y grid row: both cells unknown, blue
        assert (pixels[0] == [0, 0, 255]).all()
        assert (pixels[1, 0] == [255, 255, 255]).all()
        assert (pixels[1, 1] == [0, 0, 0]).all()

    def test_midscale_gray(self, tmp_path):
        g = GridMap.blank(0.5, 0.0, 0.0, 1, 1)
        g.observed[:] = True     # log-odds 0 -> p = 0.5 -> 128 after rounding
        path = tmp_path / "f.ppm"
        render_frame(g, path)
        assert path.read_bytes().endswith(bytes([128, 128, 128]))


def csv_oracle(metrics, cfg) -> bytes:
    """metrics.csv as a ``csv.writer`` writes it, one row per tick."""
    fh = io.StringIO()
    writer = csv.writer(fh)
    writer.writerow(["tick", "t_sec", "trace_max_dev", "observed_cells", "iou"])
    for k in range(cfg.n_ticks):
        writer.writerow([k, f"{k / cfg.tick_rate:.6f}", f"{metrics.trace_max_dev[k]:.12g}",
                         int(metrics.observed_cells[k]), f"{metrics.iou[k]:.12g}"])
    return fh.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = config_from_dict(copy.deepcopy(conftest.MINI_CONFIG))
    out = tmp_path_factory.mktemp("mini_run")
    metrics = run_scenario(cfg, offline=build_offline_phase(cfg), output_dir=str(out))
    return cfg, out, metrics


class TestRunScenario:
    def test_outputs_exist(self, run):
        _, out, _ = run
        assert (out / "offline.ogm").exists()
        assert (out / "online_final.ogm").exists()
        assert (out / "metrics.csv").exists()
        assert any((out / "frames").glob("frame_*.ppm"))

    def test_failed_run_removes_its_outputs(self, run, monkeypatch, tmp_path):
        cfg, mini_out, _ = run
        calls = []

        def render_or_fail(grid, path):
            calls.append(path)
            if len(calls) == 3:
                raise OSError("disk full")
            render_frame(grid, path)

        monkeypatch.setattr("mapdecay.scenario.render_frame", render_or_fail)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="disk full"):
            run_scenario(cfg, read_map(mini_out / "offline.ogm"), out)
        assert len(calls) == 3
        # the frames directory may stay behind, empty
        assert [p for p in out.rglob("*") if not p.is_dir()] == []

    @pytest.mark.parametrize("name", ["frame", "offline.ogm", "online_final.ogm", "metrics.csv"])
    def test_a_torn_write_leaves_no_partial_output(self, run, monkeypatch, tmp_path, name):
        # the file's own first write lands a few bytes and then fails
        cfg, mini_out, _ = run
        if name == "frame":
            name = f"frame_{cfg.render_stride:06d}.ppm"
        torn = []

        class Torn:
            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:4])
                self.fh.flush()
                torn.append(self.fh.name)
                raise OSError(28, "No space left on device")

        def torn_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return Torn(fh) if Path(path).name == name else fh

        monkeypatch.setattr("mapdecay.scenario.open", torn_open, raising=False)
        monkeypatch.setattr("mapdecay.grid.open", torn_open, raising=False)
        out = tmp_path / "out"
        with pytest.raises(OSError, match="No space left"):
            run_scenario(cfg, read_map(mini_out / "offline.ogm"), out)
        assert [Path(p).name for p in torn] == [name]
        assert [p for p in out.rglob("*") if not p.is_dir()] == []

    def test_metrics_csv_layout(self, run):
        cfg, out, metrics = run
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "t_sec", "trace_max_dev", "observed_cells", "iou"]
        assert len(rows) - 1 == int(cfg.duration * cfg.tick_rate)
        assert rows[1][0] == "0" and float(rows[1][1]) == 0.0
        assert (out / "metrics.csv").read_bytes() == csv_oracle(metrics, cfg)

    def test_metrics_csv_of_a_moving_window(self, mini_dict, tmp_path):
        mini_dict["ego_trajectory"] = [[0.0, -12.0, -1.0, 0.0], [7.0, 12.0, 1.0, 0.0]]
        mini_dict["sensor"]["max_range"] = 8.0
        cfg = config_from_dict(mini_dict)
        metrics = run_scenario(cfg, offline=build_offline_phase(cfg), output_dir=str(tmp_path))
        assert metrics.trace_max_dev.max() > 1.0 and len(set(metrics.observed_cells)) > 10
        assert (tmp_path / "metrics.csv").read_bytes() == csv_oracle(metrics, cfg)

    def test_the_record_holds_one_trace_array(self, run):
        # read after the CSV has taken trace_max_dev from it
        cfg, _, metrics = run
        shape = (cfg.n_ticks, metrics.trace_offline.size)
        assert [name for name, v in vars(metrics).items()
                if isinstance(v, np.ndarray) and v.shape == shape] == ["trace_dev"]

    def test_trace_decays_within_run(self, run):
        _, _, metrics = run
        assert metrics.trace_offline.size > 50
        assert metrics.trace_persistence is not None
        # roughly the closed-form step count for a pulled-to-clamp cell
        assert 20 <= metrics.trace_persistence <= 60
        assert metrics.trace_max_dev[-1] < 0.1

    def test_static_wall_holds(self, run):
        _, _, metrics = run
        held = metrics.static_ok / np.maximum(metrics.static_total, 1)
        assert metrics.static_total.max() > 50
        assert held.min() >= 0.99

    def test_decay_off_keeps_traces(self, run, tmp_path):
        cfg, _, metrics_on = run
        metrics_off = run_scenario(
            dataclasses.replace(cfg, decay=DecayParams(10, 1, enabled=False)),
            offline=build_offline_phase(cfg), output_dir=str(tmp_path / "off"))
        assert metrics_off.trace_max_dev[-1] > 1.0
        assert metrics_off.trace_max_dev[-1] > metrics_on.trace_max_dev[-1]

    def test_empty_trace_region(self, mini_dict, tmp_path):
        mini_dict["world"]["dynamic_objects"] = []
        mini_dict["duration"] = 0.5
        cfg = config_from_dict(mini_dict)
        metrics = run_scenario(cfg, offline=build_offline_phase(cfg), output_dir=str(tmp_path))
        assert metrics.trace_offline.size == 0
        assert metrics.trace_persistence is None
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["0"] * 10

    def test_trace_region_excludes_walls_and_endpoints(self, run):
        cfg, out, _ = run
        offline = read_map(out / "offline.ogm")
        rows, cols = compute_trace_region(cfg, offline)
        xs = offline.origin_x + (cols + 0.5) * offline.resolution
        ys = offline.origin_y + (rows + 0.5) * offline.resolution
        assert (ys < 6.0).all()          # never inside the wall band
        assert (xs < 3.0 - 0.6).all()    # parked footprint excluded
        assert offline.values[rows, cols].max() < 0.0


def _parent_rect_cells(grid, x_min, y_min, x_max, y_max):
    c0, r0 = grid.cell_of(x_min, y_min)
    c1, r1 = grid.cell_of(x_max, y_max)
    return max(c0, 0), min(c1 + 1, grid.width), max(r0, 0), min(r1 + 1, grid.height)


def _parent_footprint_cells(obj, t, grid, margin=0.0):
    """The footprint rasteriser as it was: one meshgrid per object and time."""
    pose = obj.pose_at(t)
    hl, hw = obj.length / 2.0, obj.width / 2.0
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    corners = (np.array([[-hl, -hw], [hl, -hw], [hl, hw], [-hl, hw]])
               @ np.array([[c, -s], [s, c]]).T + np.array([pose.x, pose.y]))
    c0, c1, r0, r1 = _parent_rect_cells(grid, corners[:, 0].min() - margin,
                                        corners[:, 1].min() - margin,
                                        corners[:, 0].max() + margin,
                                        corners[:, 1].max() + margin)
    cols, rows = np.meshgrid(np.arange(c0, c1), np.arange(r0, r1))
    cx, cy = grid.center_of(cols, rows)
    ca, sa = math.cos(-pose.yaw), math.sin(-pose.yaw)
    lx = ca * (cx - pose.x) - sa * (cy - pose.y)
    ly = sa * (cx - pose.x) + ca * (cy - pose.y)
    inside = ((np.abs(lx) <= obj.length / 2.0 + margin)
              & (np.abs(ly) <= obj.width / 2.0 + margin))
    return rows[inside], cols[inside]


def _parent_trace_region(cfg, offline):
    """compute_trace_region as it was, one footprint per object and tick."""
    mask = np.zeros(offline.shape, dtype=bool)
    for obj in cfg.world.dynamic_objects:
        for k in range(cfg.n_ticks):
            mask[_parent_footprint_cells(obj, k / cfg.tick_rate, offline)] = True
    mask &= offline.observed & (offline.values < 0.0)
    t_end = (cfg.n_ticks - 1) / cfg.tick_rate
    margin = 3.0 * offline.resolution
    for obj in cfg.world.dynamic_objects:
        mask[_parent_footprint_cells(obj, 0.0, offline, margin=margin)] = False
        mask[_parent_footprint_cells(obj, t_end, offline, margin=margin)] = False
    for box in cfg.world.static_boxes:
        c0, c1, r0, r1 = _parent_rect_cells(offline, box.x_min, box.y_min, box.x_max,
                                            box.y_max)
        mask[r0:r1, c0:c1] = False
    return np.nonzero(mask)


@pytest.mark.parametrize("name", ["mini", "overtake", "drive", "crowd"])
def test_trace_region_matches_one_footprint_per_tick(name):
    raw = copy.deepcopy(conftest.MINI_CONFIG) if name == "mini" else workloads.make_config(name, 0)
    cfg = config_from_dict(raw)
    # a prior that is observed and free everywhere keeps every footprint cell
    offline = cfg.lattice.copy()
    offline.values[:] = -1.0
    offline.observed[:] = True
    rows, cols = compute_trace_region(cfg, offline)
    expect_rows, expect_cols = _parent_trace_region(cfg, offline)
    assert len(rows) > 80
    assert np.array_equal(rows, expect_rows) and np.array_equal(cols, expect_cols)


def _dense_trace_region(cfg, offline):
    """The trace region by its definition: every cell center tested against
    every footprint.  Static boxes are left out."""
    cx, cy = offline.center_of(*np.meshgrid(np.arange(offline.width),
                                            np.arange(offline.height)))

    def covered(obj, times, margin):
        hit = np.zeros(offline.shape, dtype=bool)
        for t in times:
            pose = obj.pose_at(t)
            ca, sa = math.cos(-pose.yaw), math.sin(-pose.yaw)
            lx = ca * (cx - pose.x) - sa * (cy - pose.y)
            ly = sa * (cx - pose.x) + ca * (cy - pose.y)
            hit |= ((np.abs(lx) <= obj.length / 2.0 + margin)
                    & (np.abs(ly) <= obj.width / 2.0 + margin))
        return hit

    times = [k / cfg.tick_rate for k in range(cfg.n_ticks)]
    mask = np.zeros(offline.shape, dtype=bool)
    for obj in cfg.world.dynamic_objects:
        mask |= covered(obj, times, 0.0)
    mask &= offline.observed & (offline.values < 0.0)
    for obj in cfg.world.dynamic_objects:
        mask &= ~covered(obj, [0.0, times[-1]], 3.0 * offline.resolution)
    return np.nonzero(mask)


@pytest.mark.parametrize("case", ["length_1e6", "length_1e308", "distant_box",
                                  "distant_object"])
def test_trace_region_of_huge_or_distant_shapes(mini_dict, case):
    # each shape reaches far beyond the 240x240 map; its cells must be found
    # without an overflow, a request for a square larger than the map, or a warning
    world = mini_dict["world"]
    world["bounds"] = [-1e300, -1e300, 1e300, 1e300]
    world["static_boxes"] = []
    cart = world["dynamic_objects"][0]
    if case.startswith("length"):
        # a bar turning about a point south of the ego, crossing the whole map
        cart["length"] = float(case.split("_")[1])
        cart["trajectory"] = [[0.0, 0.0, -10.0, 0.0], [7.0, 0.0, -10.0, 1.0]]
    elif case == "distant_box":
        world["static_boxes"] = [{"x_min": -1e300, "x_max": -1e299, "y_min": -1e300,
                                  "y_max": -1e299, "z_top": 2.0}]
    else:
        world["dynamic_objects"].append(dict(cart, name="far", trajectory=[
            [0.0, 1e300, 0.0, 0.0], [7.0, 1e300, 5.0, 0.5]]))
    cfg = config_from_dict(mini_dict)
    offline = cfg.lattice.copy()
    offline.values[:] = -1.0
    offline.observed[:] = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, cols = compute_trace_region(cfg, offline)
    expect_rows, expect_cols = _dense_trace_region(cfg, offline)
    assert len(rows) > 80
    assert np.array_equal(rows, expect_rows) and np.array_equal(cols, expect_cols)


def test_static_box_beyond_the_extent_excludes_nothing(mini_dict):
    # the box lies in the world but west of the extent's low edge
    offline = config_from_dict(mini_dict).lattice.copy()
    offline.values[:] = -1.0
    offline.observed[:] = True
    before = compute_trace_region(config_from_dict(mini_dict), offline)
    mini_dict["world"]["static_boxes"].append(
        {"x_min": -29.0, "x_max": -27.0, "y_min": 1.0, "y_max": 3.0, "z_top": 2.0})
    after = compute_trace_region(config_from_dict(mini_dict), offline)
    assert len(before[0]) > 80
    assert np.array_equal(before[0], after[0]) and np.array_equal(before[1], after[1])


class TestLatticeRule:
    """Every call site takes two grids to cover the same cells when they have
    one shape and ``offset_in`` is (0, 0): origins within 1e-6 cells."""

    @pytest.mark.parametrize("shift, accepted", [(1e-8, True), (2e-4, False)],
                             ids=["1e-8_m", "1e-3_cells"])
    @pytest.mark.parametrize("site", ["apply_decay", "apply_instant", "prebuilt_offline",
                                      "diff"])
    def test_origin_tolerance(self, run, tmp_path, capsys, site, shift, accepted):
        cfg, out, _ = run
        grid = read_map(out / "offline.ogm")
        moved = GridMap(grid.resolution, grid.origin_x + shift, grid.origin_y,
                        grid.values.copy(), grid.observed.copy())
        if site == "diff":
            write_map(grid, tmp_path / "a.ogm")
            write_map(moved, tmp_path / "b.ogm")
            assert main(["diff", str(tmp_path / "a.ogm"), str(tmp_path / "b.ogm")]) == (
                0 if accepted else 1)
            assert ("differing_cells=0" if accepted else "extent mismatch") in (
                capsys.readouterr().out)
            return
        calls = {
            "apply_decay": lambda: apply_decay(moved, grid, cfg.decay, np.arange(grid.values.size)),
            "apply_instant": lambda: apply_instant(moved, InstantMap(
                grid.resolution, grid.origin_x, grid.origin_y,
                np.zeros(grid.shape, dtype=np.uint8))),
            "prebuilt_offline": lambda: run_scenario(
                dataclasses.replace(cfg, duration=0.25), offline=moved,
                output_dir=str(tmp_path / "out")),
        }
        if accepted:
            calls[site]()
        else:
            with pytest.raises(AlignmentError):
                calls[site]()


class TestCli:
    def _write_cfg(self, mini_dict, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(mini_dict))
        return path

    def test_build_offline_and_diff_self(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        out = tmp_path / "off.ogm"
        assert main(["build-offline", str(cfg), str(out)]) == 0
        assert main(["diff", str(out), str(out)]) == 0
        assert "max_abs_diff=0" in capsys.readouterr().out

    def test_runs_on_numpy_alone(self, mini_dict, tmp_path):
        # fresh interpreters, so that no test has imported scipy before them: with
        # scipy unimportable every subcommand exits 0, and the CLI imports none
        self._write_cfg(mini_dict, tmp_path)
        env = {**os.environ, "PYTHONPATH": str(Path(mapdecay.__file__).parents[1])}
        blocked = (
            'import sys\nsys.modules["scipy"] = None\nfrom mapdecay.cli import main\n'
            'for args in (["build-offline", "cfg.json", "off.ogm"],\n'
            '             ["run", "cfg.json", "--offline", "off.ogm", "--output", "out"],\n'
            '             ["render", "out/online_final.ogm", "final.ppm"],\n'
            '             ["diff", "off.ogm", "out/offline.ogm"]):\n'
            '    assert main(args) == 0, args\n')
        plain = 'import sys, mapdecay.cli\nassert "scipy" not in sys.modules, "scipy imported"\n'
        for code in (blocked, plain):
            done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr

    def test_diff_reports_changes(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        a = tmp_path / "a.ogm"
        main(["build-offline", str(cfg), str(a)])
        grid = read_map(a)
        grid.values[0, 0] += 1.5
        from mapdecay import write_map
        b = tmp_path / "b.ogm"
        write_map(grid, b)
        assert main(["diff", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "max_abs_diff=1.5" in out and "differing_cells=1" in out

    @pytest.mark.parametrize("a, b, expect, status", [
        (GridMap(0.2, 0.0, 0.0, np.zeros((3, 3))), GridMap(0.4, 5.0, 5.0, np.zeros((3, 3))),
         "extent mismatch", 1),
        (GridMap(0.2, 0.0, 0.0, np.zeros((3, 3))), GridMap(0.2, 0.0, 0.0, np.zeros((2, 3))),
         "extent mismatch", 1),  # one lattice, other cells
        (GridMap(0.2, 0.0, 0.0, np.zeros((3, 3))),
         GridMap(0.2, 0.0, 0.0, np.diag([0.0, np.nan, 0.0])), "differing_cells=1", 1),
        (GridMap(0.2, 0.0, 0.0, np.zeros((0, 0))), GridMap(0.2, 0.0, 0.0, np.zeros((0, 0))),
         "differing_cells=0", 0),
        (GridMap(0.2, 0.0, 0.0, np.diag([np.inf, -np.inf, 0.0])),  # equal cells add nothing
         GridMap(0.2, 0.0, 0.0, np.diag([np.inf, -np.inf, 0.0])),
         "max_abs_diff=0 differing_cells=0 flag_mismatches=0\n", 0),
        (GridMap(0.2, 0.0, 0.0, np.diag([0.0, np.nan, 0.0])),  # a file against itself
         GridMap(0.2, 0.0, 0.0, np.diag([0.0, np.nan, 0.0])),
         "max_abs_diff=0 differing_cells=0 flag_mismatches=0\n", 0),
    ], ids=["other_lattice", "other_shape", "nan_cell", "empty", "equal_infinite_cells",
            "nan_in_both"])
    def test_diff_checks_lattice_nan_and_empty(self, tmp_path, capsys, a, b, expect, status):
        write_map(a, tmp_path / "a.ogm")
        write_map(b, tmp_path / "b.ogm")
        assert main(["diff", str(tmp_path / "a.ogm"), str(tmp_path / "b.ogm")]) == status
        assert expect in capsys.readouterr().out

    def test_diff_rejects_a_non_finite_origin(self, tmp_path, capsys):
        # written by hand: GridMap itself refuses a NaN origin
        path = tmp_path / "nan_origin.ogm"
        path.write_bytes(struct.pack("<4sHdddII", b"OGM1", 1, 0.2, math.nan, 0.0, 1, 1)
                         + struct.pack("<d", 0.0) + b"\x00")
        assert main(["diff", str(path), str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_run_with_prebuilt_offline(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        off = tmp_path / "off.ogm"
        main(["build-offline", str(cfg), str(off)])
        rc = main(["run", str(cfg), "--offline", str(off),
                   "--output", str(tmp_path / "out")])
        assert rc == 0
        assert "trace_persistence=" in capsys.readouterr().out
        assert (tmp_path / "out" / "metrics.csv").exists()
        # the prior read back from its file gives the run of a plain `run`
        assert main(["run", str(cfg), "--output", str(tmp_path / "plain")]) == 0
        written = sorted(p.relative_to(tmp_path / "out")
                         for p in (tmp_path / "out").rglob("*") if p.is_file())
        plain = sorted(p.relative_to(tmp_path / "plain")
                       for p in (tmp_path / "plain").rglob("*") if p.is_file())
        assert written == plain and len(written) > 3
        for name in written:
            assert (tmp_path / "out" / name).read_bytes() == (
                tmp_path / "plain" / name).read_bytes(), name

    def test_summary_line_printed_by_the_cli_only(self, run, mini_dict, tmp_path, capsys):
        cfg, mini_out, _ = run
        off = mini_out / "offline.ogm"
        metrics = run_scenario(cfg, offline=read_map(off), output_dir=str(tmp_path / "lib"))
        assert capsys.readouterr().out == ""
        cfg_path = self._write_cfg(mini_dict, tmp_path)
        assert main(["run", str(cfg_path), "--offline", str(off),
                     "--output", str(tmp_path / "cli")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(r"ticks=\d+ trace_region_cells=\d+ trace_persistence=(\d+|none) "
                            r"final_iou=[0-9.]+ total_wall_s=[0-9.]+", lines[0]), lines
        assert lines[0].startswith(
            f"ticks={cfg.n_ticks} trace_region_cells={metrics.trace_offline.size} "
            f"trace_persistence={metrics.trace_persistence} "
            f"final_iou={metrics.final_iou:.6f} total_wall_s="), lines

    @pytest.mark.parametrize("output_dir", [None, "from_config"])
    def test_run_output_directory_fallback(self, run, mini_dict, tmp_path, monkeypatch,
                                           output_dir):
        # --output, else the config's output_dir, else ./out
        _, mini_out, _ = run
        if output_dir:
            mini_dict["output_dir"] = output_dir
        cfg_path = self._write_cfg(mini_dict, tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(cfg_path), "--offline", str(mini_out / "offline.ogm")]) == 0
        assert (tmp_path / (output_dir or "out") / "metrics.csv").is_file()

    def test_run_rejects_offline_on_another_lattice(self, mini_dict, tmp_path, capsys):
        off = tmp_path / "coarse.ogm"
        coarse = self._write_cfg(dict(mini_dict, resolution=0.4), tmp_path)
        assert main(["build-offline", str(coarse), str(off)]) == 0
        cfg = self._write_cfg(mini_dict, tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--offline", str(off), "--output", str(out)]) == 1
        assert "extent and resolution" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e6])
    def test_run_rejects_offline_with_bad_values(self, run, mini_dict, tmp_path, capsys,
                                                 value):
        cfg, mini_out, _ = run
        offline = read_map(mini_out / "offline.ogm")
        offline.values[169, 120] = value  # window cell (99, 50)
        off = tmp_path / "bad.ogm"
        write_map(offline, off)
        out = tmp_path / "out"
        with pytest.raises(DomainError, match=r"1 cell\(s\) not in .* row 169, col 120"):
            run_scenario(cfg, offline=offline, output_dir=str(out))
        assert not out.exists()
        cfg_path = self._write_cfg(mini_dict, tmp_path)
        assert main(["run", str(cfg_path), "--offline", str(off), "--output", str(out)]) == 1
        assert "error: offline map: 1 cell(s)" in capsys.readouterr().err
        assert not out.exists()

    def test_no_decay_flag_changes_result(self, mini_dict, tmp_path, capsys):
        # the config's decay.enabled is the one switch: off, the traces stay
        cfg = self._write_cfg(mini_dict, tmp_path)
        off = tmp_path / "off.ogm"
        assert main(["build-offline", str(cfg), str(off)]) == 0
        assert main(["run", str(cfg), "--offline", str(off),
                     "--output", str(tmp_path / "on")]) == 0
        mini_dict["decay"]["enabled"] = False
        cfg.write_text(json.dumps(mini_dict))
        assert main(["run", str(cfg), "--offline", str(off),
                     "--output", str(tmp_path / "off_run")]) == 0
        capsys.readouterr()
        assert main(["diff", str(tmp_path / "on" / "online_final.ogm"),
                     str(tmp_path / "off_run" / "online_final.ogm")]) == 1

    @pytest.mark.parametrize("flag", [["--no-decay"], ["--w-on", "5"], ["--w-off", "2"]],
                             ids=["no_decay", "w_on", "w_off"])
    def test_decay_flags_are_usage_errors(self, mini_dict, tmp_path, flag):
        # the config's decay section is the only owner of the decay settings
        cfg = self._write_cfg(mini_dict, tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), *flag, "--output", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_render_subcommand(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        off = tmp_path / "off.ogm"
        main(["build-offline", str(cfg), str(off)])
        img = tmp_path / "off.ppm"
        assert main(["render", str(off), str(img)]) == 0
        dense_render(read_map(off), tmp_path / "dense.ppm")
        assert img.read_bytes() == (tmp_path / "dense.ppm").read_bytes()

    def test_render_rejects_bad_values(self, tmp_path, capsys):
        # values render_frame must not be given: NaN and +-1e6 lie outside
        # [L_MIN, L_MAX], the gray ramp's domain
        path = tmp_path / "bad.ogm"
        write_map(GridMap(0.2, 0.0, 0.0, np.array([[np.nan, 0.0], [-1e6, 1e6]])), path)
        assert main(["render", str(path), str(tmp_path / "bad.ppm")]) == 1
        assert f"error: {path}: 3 cell(s) not in" in capsys.readouterr().err
        assert not (tmp_path / "bad.ppm").exists()

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 200_000],
                             ids=["not_utf8", "nested_too_deep"])
    def test_unreadable_config_exits_one(self, tmp_path, capsys, content):
        path = tmp_path / "cfg.json"
        path.write_bytes(content)
        assert main(["run", str(path), "--output", str(tmp_path / "out")]) == 1
        assert f"error: {path}: malformed JSON" in capsys.readouterr().err

    def test_config_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": 1.0}))
        assert main(["run", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def _fails_naming(self, mini_dict, tmp_path, capsys, message):
        cfg = self._write_cfg(mini_dict, tmp_path)
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}Unable to allocate") and err.count("error:") == 1

    def test_extent_too_large_to_allocate_exits_one(self, mini_dict, tmp_path, capsys):
        # 10^7 x 10^7 cells: the request exceeds the address space and fails
        # at once, without touching memory; the error names the field
        mini_dict["extent"] = [-1e6, -1e6, 1e6, 1e6]
        self._fails_naming(mini_dict, tmp_path, capsys,
                           "extent: 10000000x10000000 cells of 0.2 m do not fit in memory: ")

    def test_beam_angles_too_many_to_allocate_exit_one(self, mini_dict, tmp_path, capsys):
        # 2**53 + 1 rays pass the ray bound, but not their 64 PiB of beam angles
        mini_dict["sensor"].update(azimuth_steps=1, beam_count=2**53 + 1)
        self._fails_naming(mini_dict, tmp_path, capsys, "sensor: beam_count: 9007199254740993 "
                           "beam angles do not fit in memory: ")

    @pytest.mark.parametrize("region", [
        compute_trace_region, lambda cfg, offline: (np.zeros(0, np.intp),) * 2,
    ], ids=["tick_times", "records"])
    def test_duration_too_long_to_record_exits_one(self, mini_dict, tmp_path, capsys, region):
        # 2e15 ticks pass the tick bound, but not the trace region's 16 PB of
        # tick times, nor, with no trace cells, the run's per-tick records;
        # the run fails before it writes anything
        mini_dict["duration"] = 1e14
        with mock.patch.object(scenario, "compute_trace_region", region):
            self._fails_naming(mini_dict, tmp_path, capsys,
                               "duration: 2000000000000000 ticks do not fit in memory: ")
        assert not (tmp_path / "out").exists()

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
