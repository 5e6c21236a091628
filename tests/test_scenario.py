from __future__ import annotations

import copy
import csv
import dataclasses
import json
import re

import conftest

import numpy as np
import pytest

from mapdecay import (
    ConfigError,
    DecayParams,
    DomainError,
    GridMap,
    config_from_dict,
    load_config,
    occupancy_iou,
    persistence_from_stream,
    read_map,
    render_frame,
    run_scenario,
    write_map,
)
from mapdecay.cli import main
from mapdecay.scenario import build_offline_phase, compute_trace_region


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
        (None, "extent", [-24.0, -24.0, 24.1, 24.0], "extent"),  # 240.5 cells wide
        (None, "offline_tick_rate", 1e308, "offline_tick_rate"),  # a sweep count no float can hold
        (None, "ego_trajectory", [[0.0, 0.0, 0.0, 0.0], [7.0, 28.0, 0.0, 0.0]],
         "ego_trajectory[1]"),  # ends outside the +-24 m extent
        ("sensor", "beam_count", 0, "sensor.beam_count"),
        ("sensor", "beam_count", -3, "sensor.beam_count"),
        (None, "offline_tick_rate", -1.0,
         "offline_tick_rate: must be nonnegative (0 means tick_rate)"),
    ], ids=["bounds", "extent", "vertical_angles", "nan", "inf", "huge_int",
            "tick_overflow", "partial_cell", "offline_tick_overflow", "knot_outside_extent",
            "no_beams", "negative_beams", "negative_offline_tick_rate"])
    def test_malformed_numbers_rejected(self, mini_dict, tmp_path, capsys,
                                        section, key, value, path):
        (mini_dict[section] if section else mini_dict)[key] = value
        with pytest.raises(ConfigError, match=re.escape(path)):
            config_from_dict(mini_dict)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(mini_dict))  # NaN and Infinity as JSON literals
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("section, values", [
        ("obstacle", {"min_height": 4.0, "max_height": 0.3}),
        ("obstacle", {"min_height": 1.0, "max_height": 1.0}),
        ("sensor", {"noise_sigma": -0.5}),
        ("decay", {"w_on": float("nan")}),
        ("sensor", {"vertical_angles_deg": [-20.0, -10.0, 0.0]}),  # beam_count is 8
        ("sensor", {"vertical_angles_deg": [], "beam_count": 0}),
        ("sensor", {"vertical_min_deg": -120.0}),  # the lowest beam points backwards
    ])
    def test_invalid_section_values_rejected(self, mini_dict, section, values):
        mini_dict[section].update(values)
        with pytest.raises(ConfigError, match=rf"^{section}\."):
            config_from_dict(mini_dict)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.json")


class TestMetrics:
    def test_persistence_examples(self):
        assert persistence_from_stream([0.0, 0.0], 0.1) == 0
        assert persistence_from_stream([1.0, 0.5, 0.05], 0.1) == 2
        assert persistence_from_stream([1.0, 0.5], 0.1) is None
        # a single cell left 11.0 above its offline value decays under
        # (10, 1) weights to below 0.1 on the 50th step
        stream = 11.0 * (10.0 / 11.0) ** np.arange(80)
        assert persistence_from_stream(stream, 0.1) == 50

    def test_iou_examples(self):
        a = GridMap.blank(0.2, 0, 0, 4, 4)
        mask = np.ones((4, 4), dtype=bool)
        a.values[0, 0] = 5.0
        assert occupancy_iou(a.values, a.values, mask) == 1.0
        b = GridMap.blank(0.2, 0, 0, 4, 4)
        b.values[1, 1] = 5.0
        assert occupancy_iou(a.values, b.values, mask) == 0.0
        empty = np.zeros((4, 4))
        assert occupancy_iou(empty, empty, mask) == 1.0

    def test_iou_respects_mask(self):
        a = GridMap.blank(0.2, 0, 0, 4, 4)
        b = GridMap.blank(0.2, 0, 0, 4, 4)
        a.values[0, 0] = 5.0
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        assert occupancy_iou(a.values, b.values, mask) == 1.0


class TestRender:
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


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    cfg = config_from_dict(copy.deepcopy(conftest.MINI_CONFIG))
    out = tmp_path_factory.mktemp("mini_run")
    metrics = run_scenario(cfg, output_dir=str(out))
    return cfg, out, metrics


class TestRunScenario:
    def test_outputs_exist(self, run):
        _, out, _ = run
        assert (out / "offline.ogm").exists()
        assert (out / "online_final.ogm").exists()
        assert (out / "metrics.csv").exists()
        assert any((out / "frames").glob("frame_*.ppm"))

    def test_metrics_csv_layout(self, run):
        cfg, out, _ = run
        with open(out / "metrics.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["tick", "t_sec", "trace_max_dev", "observed_cells", "iou"]
        assert len(rows) - 1 == int(cfg.duration * cfg.tick_rate)
        assert rows[1][0] == "0" and float(rows[1][1]) == 0.0

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
            output_dir=str(tmp_path / "off"))
        assert metrics_off.trace_max_dev[-1] > 1.0
        assert metrics_off.trace_max_dev[-1] > metrics_on.trace_max_dev[-1]

    def test_empty_trace_region(self, mini_dict, tmp_path):
        mini_dict["world"]["dynamic_objects"] = []
        mini_dict["duration"] = 0.5
        metrics = run_scenario(config_from_dict(mini_dict), output_dir=str(tmp_path))
        assert metrics.trace_offline.size == 0
        assert metrics.trace_persistence is None
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[2] for row in rows] == ["0"] * 10

    def test_trace_region_excludes_walls_and_endpoints(self, run):
        cfg, _, metrics = run
        offline = read_map(metrics.output_dir / "offline.ogm")
        rows, cols = compute_trace_region(cfg, offline)
        xs = offline.origin_x + (cols + 0.5) * offline.resolution
        ys = offline.origin_y + (rows + 0.5) * offline.resolution
        assert (ys < 6.0).all()          # never inside the wall band
        assert (xs < 3.0 - 0.6).all()    # parked footprint excluded
        assert offline.values[rows, cols].max() < 0.0


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
        (GridMap(0.2, 0.0, 0.0, np.zeros((3, 3))),
         GridMap(0.2, 0.0, 0.0, np.diag([0.0, np.nan, 0.0])), "differing_cells=1", 1),
        (GridMap(0.2, 0.0, 0.0, np.zeros((0, 0))), GridMap(0.2, 0.0, 0.0, np.zeros((0, 0))),
         "differing_cells=0", 0),
    ], ids=["other_lattice", "nan_cell", "empty"])
    def test_diff_checks_lattice_nan_and_empty(self, tmp_path, capsys, a, b, expect, status):
        write_map(a, tmp_path / "a.ogm")
        write_map(b, tmp_path / "b.ogm")
        assert main(["diff", str(tmp_path / "a.ogm"), str(tmp_path / "b.ogm")]) == status
        assert expect in capsys.readouterr().out

    def test_run_with_prebuilt_offline(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        off = tmp_path / "off.ogm"
        main(["build-offline", str(cfg), str(off)])
        rc = main(["run", str(cfg), "--offline", str(off),
                   "--output", str(tmp_path / "out")])
        assert rc == 0
        assert "trace_persistence=" in capsys.readouterr().out
        assert (tmp_path / "out" / "metrics.csv").exists()

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

    @pytest.mark.parametrize("enabled, flags, decay", [
        (True, ["--w-on", "5", "--w-off", "2"], DecayParams(5.0, 2.0)),
        (True, ["--no-decay"], DecayParams(10.0, 1.0, enabled=False)),
        (False, ["--w-on", "5"], DecayParams(5.0, 1.0, enabled=False)),
    ], ids=["weights", "no_decay", "weights_keep_disabled"])
    def test_decay_flags_match_replaced_config(self, run, mini_dict, tmp_path,
                                               enabled, flags, decay):
        _, mini_out, _ = run
        mini_dict["decay"]["enabled"] = enabled
        cfg_path = self._write_cfg(mini_dict, tmp_path)
        off = mini_out / "offline.ogm"
        cli_out, lib_out = tmp_path / "cli", tmp_path / "lib"
        assert main(["run", str(cfg_path), "--offline", str(off),
                     "--output", str(cli_out), *flags]) == 0
        cfg = dataclasses.replace(config_from_dict(mini_dict), decay=decay)
        run_scenario(cfg, offline=read_map(off), output_dir=str(lib_out))
        for name in ("online_final.ogm", "metrics.csv"):
            assert (cli_out / name).read_bytes() == (lib_out / name).read_bytes(), name

    def test_no_decay_flag_changes_result(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        off = tmp_path / "off.ogm"
        main(["build-offline", str(cfg), str(off)])
        main(["run", str(cfg), "--offline", str(off), "--output", str(tmp_path / "on")])
        main(["run", str(cfg), "--offline", str(off), "--no-decay",
              "--output", str(tmp_path / "off_run")])
        capsys.readouterr()
        assert main(["diff", str(tmp_path / "on" / "online_final.ogm"),
                     str(tmp_path / "off_run" / "online_final.ogm")]) == 1

    def test_render_subcommand(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        off = tmp_path / "off.ogm"
        main(["build-offline", str(cfg), str(off)])
        img = tmp_path / "off.ppm"
        assert main(["render", str(off), str(img)]) == 0
        assert img.read_bytes().startswith(b"P6\n240 240\n255\n")

    def test_config_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"duration": 1.0}))
        assert main(["run", str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_extent_too_large_to_allocate_exits_one(self, mini_dict, tmp_path, capsys):
        # 10^7 x 10^7 cells: the request exceeds the address space and fails
        # at once, without touching memory
        mini_dict["extent"] = [-1e6, -1e6, 1e6, 1e6]
        cfg = self._write_cfg(mini_dict, tmp_path)
        assert main(["run", str(cfg), "--output", str(tmp_path / "out")]) == 1
        assert "error: Unable to allocate" in capsys.readouterr().err

    def test_nan_weight_flag_exits_one(self, mini_dict, tmp_path, capsys):
        cfg = self._write_cfg(mini_dict, tmp_path)
        assert main(["run", str(cfg), "--w-on", "nan",
                     "--output", str(tmp_path / "out")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2
