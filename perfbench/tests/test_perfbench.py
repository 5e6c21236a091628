"""Tests of the benchmark's own parts: workload generators, output check and
tracer.  They run with the repository's test suite; none of them times
anything."""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from mapdecay import GridMap, config_from_dict, ego_pose_at, run_scenario  # noqa: E402
from mapdecay.scenario import build_offline_phase  # noqa: E402

SEEDS = range(6)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_configs_parse(name):
    for seed in SEEDS:
        cfg = config_from_dict(workloads.make_config(name, seed))
        assert cfg.duration * cfg.tick_rate >= 200  # >= 10 ticks beyond p95


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_functions_of_the_seed(name):
    digests = {workloads.config_digest(workloads.make_config(name, s)) for s in SEEDS}
    again = {workloads.config_digest(workloads.make_config(name, s)) for s in SEEDS}
    assert digests == again
    assert len(digests) == (1 if name == "overtake" else len(SEEDS))


def test_overtake_is_the_shipped_file():
    import json
    shipped = json.loads(workloads.OVERTAKE_PATH.read_text())
    shipped.pop("output_dir")
    assert workloads.make_config("overtake", 12345) == shipped


def test_drive_ego_stays_inside_the_offline_extent():
    for seed in SEEDS:
        cfg = config_from_dict(workloads.make_config("drive", seed))
        n_ticks = round(cfg.duration * cfg.tick_rate)
        xs = [ego_pose_at(cfg.ego_trajectory, k / cfg.tick_rate).x for k in range(n_ticks)]
        ys = [ego_pose_at(cfg.ego_trajectory, k / cfg.tick_rate).y for k in range(n_ticks)]
        assert all(cfg.extent.contains(x, y) for x, y in zip(xs, ys))
        # the window really moves: ~1.7 cells a tick
        assert (xs[-1] - xs[0]) / cfg.resolution / (n_ticks - 1) > 1.5


def test_crowd_boxes_keep_clear_of_the_ego_and_each_other():
    for seed in SEEDS:
        raw = workloads.make_config("crowd", seed)
        objects = raw["world"]["dynamic_objects"]
        parked = raw["world"]["static_boxes"][2:]
        assert (len(objects), len(parked)) == (12, 8)
        spans = sorted([(o["trajectory"][0][1] - o["width"] / 2,
                         o["trajectory"][0][1] + o["width"] / 2) for o in objects]
                       + [(b["x_min"], b["x_max"]) for b in parked])
        assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
        assert all(not (lo < 0.0 < hi) for lo, hi in spans)


def _short(name: str, seed: int, duration: float) -> dict:
    raw = workloads.make_config(name, seed)
    raw["duration"] = duration
    return raw


def _run(cfg, offline, out: Path):
    with contextlib.redirect_stdout(io.StringIO()):
        return run_scenario(cfg, offline=offline, output_dir=str(out))


def test_traced_run_is_bit_identical_to_the_untraced_run(tmp_path):
    cfg = config_from_dict(_short("crowd", 1, 2.0))
    plain = _run(cfg, build_offline_phase(cfg), tmp_path / "plain")
    originals = {(l.module, l.attr): getattr(l.module, l.attr) for l in tracer.LAYERS}
    with tracer.Tracer() as tr:
        tr.phase = "setup"
        offline = build_offline_phase(cfg)
        tr.phase = "online"
        traced = _run(cfg, offline, tmp_path / "traced")
    assert all(getattr(m, a) is f for (m, a), f in originals.items())
    for name in ("offline.ogm", "online_final.ogm", "metrics.csv"):
        a = (tmp_path / "plain" / name).read_bytes()
        assert a == (tmp_path / "traced" / name).read_bytes(), name
    assert plain.trace_persistence == traced.trace_persistence

    layers = tracer.layer_metrics(tr, traced.wall_time, float(traced.wall_time.sum()))
    assert layers["fusion.offline_window_calls"][0] == 1.0
    assert layers["scenario.offline_window_calls"][0] == 1.0
    assert layers["world.rays"][0] == 46080
    assert layers["fusion.recenter_shift_cells"][0] == 0.0
    for name in ("world.simulate_sweep_ms", "grid.apply_decay_ms",
                 "instant.build_instant_map_ms", "setup.world.simulate_sweep_s",
                 "scenario.compute_trace_region_s"):
        assert layers[name][0] > 0.0, name
    # the spans plus the rest of the tick and the bookkeeping make up the tick
    top = sum(tr.wrapper_seconds.get((n, None), 0.0) for n in tracer.TICK_SPANS)
    other = layers["scenario.tick_other_ms"][0] * len(traced.wall_time) / 1e3
    assert top + other == pytest.approx(float(traced.wall_time.sum()), rel=1e-9)


def test_a_layer_that_is_not_called_reads_zero(tmp_path):
    raw = _short("overtake", 0, 0.5)
    raw["decay"]["enabled"] = False  # online_step then skips fetch and decay
    cfg = config_from_dict(raw)
    offline = build_offline_phase(cfg)
    with tracer.Tracer() as tr:
        m = _run(cfg, offline, tmp_path)
    layers = tracer.layer_metrics(tr, m.wall_time, float(m.wall_time.sum()))
    assert layers["fusion.offline_window_calls"][0] == 0.0
    assert layers["grid.apply_decay_ms"][0] == 0.0
    assert layers["grid.decay_useful_ratio"][0] == 0.0
    assert layers["scenario.offline_window_calls"][0] == 1.0


def _grid(values, observed=None):
    values = np.asarray(values, dtype=np.float64)
    return GridMap(0.2, -1.0, -2.0, values,
                   np.ones(values.shape, bool) if observed is None else observed)


def _outputs(values, observed=None, csv_text="tick,iou\n0,0.5\n"):
    g = _grid(values, observed)
    return {"maps": {"offline": g, "online_final": g.copy()}, "csv": csv_text}


def test_reference_accepts_ulp_changes_and_rejects_larger_ones(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.uniform(-10.0, 10.0, (6, 5))
    run = SimpleNamespace(trace_persistence=4)
    path = tmp_path / "ref.npz"
    check.save_reference(path, "abc", run, _outputs(values))
    ref = check.load_reference(path)
    assert str(ref["config_sha256"]) == "abc"
    assert check.compare_reference(ref, run, _outputs(values)) == []

    ulps = np.nextafter(np.nextafter(values, np.inf), np.inf)
    assert check.compare_reference(ref, run, _outputs(ulps)) == []
    assert check.compare_reference(
        ref, run, _outputs(values, csv_text="tick,iou\n0,0.50000000000001\n")) == []

    bumped = values.copy()
    bumped[2, 3] += 1e-9
    assert any("values differ" in p for p in check.compare_reference(ref, run, _outputs(bumped)))
    flags = np.ones(values.shape, bool)
    flags[0, 0] = False
    assert any("observed" in p for p in check.compare_reference(ref, run, _outputs(values, flags)))
    assert any("row 0" in p for p in check.compare_reference(
        ref, run, _outputs(values, csv_text="tick,iou\n0,0.5001\n")))
    assert any("trace_persistence" in p for p in check.compare_reference(
        ref, SimpleNamespace(trace_persistence=None), _outputs(values)))


def _run_record(dev, last, static_ok=(10,), static_total=(10,)):
    dev = np.asarray(dev, dtype=np.float64)
    return SimpleNamespace(trace_dev=dev, peak_dev=dev.max(axis=0),
                           last_observed=np.asarray(last),
                           static_ok=np.asarray(static_ok),
                           static_total=np.asarray(static_total))


def test_invariants():
    ticks = 50
    fading = 5.0 * (10.0 / 11.0) ** np.arange(ticks)
    stuck = np.full(ticks, 5.0)
    ulp = np.full(ticks, 4.4e-16)
    good = _run_record(np.stack([fading, ulp], axis=1), [0, 0])
    assert check.check_invariants(good, _outputs(np.zeros((2, 2)))) == []

    bad = check.check_invariants(_run_record(np.stack([fading, stuck], axis=1), [0, 0]),
                                 _outputs(np.zeros((2, 2))))
    assert any("trace cells" in p for p in bad)
    assert any("non-finite" in p for p in check.check_invariants(
        good, _outputs([[np.nan, 0.0]])))
    assert any("outside" in p for p in check.check_invariants(
        good, _outputs([[10.5, 0.0]])))
    walls = _run_record(np.stack([fading], axis=1), [0], static_ok=(98,), static_total=(100,))
    assert any("static" in p for p in check.check_invariants(walls, _outputs(np.zeros((1, 1)))))
