"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public layer functions where their callers look them up
(``mapdecay.scenario.simulate_sweep``, ``mapdecay.fusion.apply_decay``, ...)
with wrappers that time the call and count its work, then restores them.
The run loop itself is never re-implemented: a layer the program stops
calling simply reads as zero calls.

Spans are keyed by ``(layer, parent layer)``.  A span's duration excludes
the wrapper's own bookkeeping (probes, counters); that bookkeeping is summed
separately and is the tracing overhead.  A parent's self time is its
duration minus the whole wrapper time of its children.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from mapdecay import fusion, grid, scenario


def _sweep_counts(args, result, state):
    world = args[0]
    rays = result.ranges.size
    boxes = len(world.static_boxes) + len(world.dynamic_objects)
    return {"rays": rays, "box_tests": rays * boxes}


def _recenter_probe(args):
    g = args[0].grid
    return g.origin_x, g.origin_y


def _recenter_counts(args, result, state):
    g = args[0].grid
    dc = round((g.origin_x - state[0]) / g.resolution)
    dr = round((g.origin_y - state[1]) / g.resolution)
    return {"shift_cells": abs(dc) + abs(dr)}


def _decay_probe(args):
    on, off = args[0].values, args[1].values
    diff = np.abs(on - off)
    return {"decay_cells": on.size,
            "deviating_cells": int(np.count_nonzero(diff)),
            "deviating_cells_1e-6": int(np.count_nonzero(diff > 1e-6))}


def _instant_counts(args, result, state):
    kind = result.kind
    return {"window_cells": kind.size,
            "touched_cells": int(np.count_nonzero(kind)),
            "occupied_cells": int(np.count_nonzero(kind == 2))}


def _write_counts(args, result, state):
    return {"bytes": os.path.getsize(args[1])}


@dataclass
class Layer:
    module: object
    attr: str
    name: str
    probe: Optional[Callable] = None    # (args) -> state, before the call
    counts: Optional[Callable] = None   # (args, result, state) -> dict


LAYERS = [
    Layer(scenario, "simulate_sweep", "world.simulate_sweep", counts=_sweep_counts),
    Layer(scenario, "online_step", "fusion.online_step"),
    Layer(fusion, "recenter", "fusion.recenter", _recenter_probe, _recenter_counts),
    Layer(fusion, "offline_window", "fusion.offline_window"),
    Layer(fusion, "apply_decay", "grid.apply_decay", _decay_probe,
          lambda args, result, state: state),
    Layer(fusion, "build_instant_map", "instant.build_instant_map",
          counts=_instant_counts),
    Layer(fusion, "apply_instant", "instant.apply_instant"),
    Layer(scenario, "offline_window", "scenario.offline_window"),
    Layer(scenario, "occupancy_iou", "scenario.occupancy_iou"),
    Layer(scenario, "render_frame", "scenario.render_frame"),
    Layer(scenario, "write_map", "grid.write_map", counts=_write_counts),
    Layer(grid, "read_map", "grid.read_map"),
    Layer(scenario, "clean_offline", "fusion.clean_offline"),
    Layer(scenario, "compute_trace_region", "scenario.compute_trace_region"),
]

#: Spans called directly by the tick loop of ``run_scenario``.
TICK_SPANS = ("world.simulate_sweep", "fusion.online_step", "scenario.offline_window",
              "scenario.occupancy_iou", "scenario.render_frame")


@dataclass
class Tracer:
    phase: str = "online"     # "setup" prefixes span names with "setup."
    stack: list = field(default_factory=list)
    calls: dict = field(default_factory=lambda: defaultdict(int))
    seconds: dict = field(default_factory=lambda: defaultdict(float))
    wrapper_seconds: dict = field(default_factory=lambda: defaultdict(float))
    covered: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(float))
    bookkeeping: dict = field(default_factory=lambda: defaultdict(float))
    _saved: list = field(default_factory=list)

    def _wrap(self, layer: Layer):
        original = getattr(layer.module, layer.attr)
        tracer = self

        def traced(*args, **kwargs):
            enter = time.perf_counter()
            name = layer.name if tracer.phase != "setup" else f"setup.{layer.name}"
            parent = tracer.stack[-1] if tracer.stack else None
            state = layer.probe(args) if layer.probe else None
            tracer.stack.append(name)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.stack.pop()
            key = (name, parent)
            tracer.calls[key] += 1
            tracer.seconds[key] += t1 - t0
            if layer.counts:
                for counter, value in layer.counts(args, result, state).items():
                    tracer.counts[(name, counter)] += value
            leave = time.perf_counter()
            tracer.wrapper_seconds[key] += leave - enter
            tracer.bookkeeping[tracer.phase] += (leave - enter) - (t1 - t0)
            if parent is not None:
                tracer.covered[parent] += leave - enter
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        for layer in LAYERS:
            self._saved.append((layer.module, layer.attr, getattr(layer.module, layer.attr)))
            setattr(layer.module, layer.attr, self._wrap(layer))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- aggregation ------------------------------------------------------

    def total(self, name: str, parent: Optional[str] = None) -> float:
        return self.seconds.get((name, parent), 0.0)

    def count(self, name: str, counter: str) -> float:
        return self.counts.get((name, counter), 0.0)

    def n_calls(self, name: str, parent: Optional[str] = None) -> int:
        return self.calls.get((name, parent), 0)


def layer_metrics(tr: Tracer, tick_seconds: np.ndarray, run_seconds: float) -> dict:
    """Per-layer metrics of one traced setup plus one traced run.

    ``tick_seconds`` is the run's ``RunMetrics.wall_time`` and
    ``run_seconds`` the wall time of the whole ``run_scenario`` call.
    Times named ``*_ms`` are milliseconds per online tick, amortised where a
    layer runs less than once a tick; ``*_s`` are seconds per setup or run.
    """
    ticks = max(len(tick_seconds), 1)
    step = "fusion.online_step"

    def ms(name, parent=None):
        return 1e3 * tr.total(name, parent) / ticks

    def per_call(name, counter):
        calls = sum(n for (layer, _), n in tr.calls.items() if layer == name)
        return tr.count(name, counter) / calls if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    tick_spans = sum(tr.wrapper_seconds.get((name, None), 0.0) for name in TICK_SPANS)
    step_self = tr.total(step) - tr.covered.get(step, 0.0)
    return {
        "scenario.tick_ms": (1e3 * float(np.sum(tick_seconds)) / ticks, "ms"),
        "world.simulate_sweep_ms": (ms("world.simulate_sweep"), "ms"),
        "world.rays": (per_call("world.simulate_sweep", "rays"), "rays/sweep"),
        "world.box_tests": (per_call("world.simulate_sweep", "box_tests"), "tests/sweep"),
        "fusion.recenter_ms": (ms("fusion.recenter", step), "ms"),
        "fusion.recenter_shift_cells": (
            tr.count("fusion.recenter", "shift_cells") / ticks, "cells/tick"),
        "fusion.offline_window_ms": (ms("fusion.offline_window", step), "ms"),
        "fusion.offline_window_calls": (
            tr.n_calls("fusion.offline_window", step) / ticks, "calls/tick"),
        "scenario.offline_window_ms": (ms("scenario.offline_window"), "ms"),
        "scenario.offline_window_calls": (
            tr.n_calls("scenario.offline_window") / ticks, "calls/tick"),
        "grid.apply_decay_ms": (ms("grid.apply_decay", step), "ms"),
        "grid.decay_cells": (per_call("grid.apply_decay", "decay_cells"), "cells/call"),
        "grid.deviating_cells": (
            per_call("grid.apply_decay", "deviating_cells"), "cells/call"),
        "grid.deviating_cells_1e-6": (
            per_call("grid.apply_decay", "deviating_cells_1e-6"), "cells/call"),
        "grid.decay_useful_ratio": (
            ratio(tr.count("grid.apply_decay", "deviating_cells"),
                  tr.count("grid.apply_decay", "decay_cells")), "ratio"),
        "instant.build_instant_map_ms": (ms("instant.build_instant_map", step), "ms"),
        "instant.touched_cells": (
            per_call("instant.build_instant_map", "touched_cells"), "cells/sweep"),
        "instant.occupied_cells": (
            per_call("instant.build_instant_map", "occupied_cells"), "cells/sweep"),
        "instant.touched_ratio": (
            ratio(tr.count("instant.build_instant_map", "touched_cells"),
                  tr.count("instant.build_instant_map", "window_cells")), "ratio"),
        "instant.apply_instant_ms": (ms("instant.apply_instant", step), "ms"),
        "scenario.occupancy_iou_ms": (ms("scenario.occupancy_iou"), "ms"),
        "fusion.online_step_self_ms": (1e3 * step_self / ticks, "ms"),
        "scenario.tick_other_ms": (
            1e3 * (float(np.sum(tick_seconds)) - tick_spans) / ticks, "ms"),
        "scenario.render_frame_ms": (ms("scenario.render_frame"), "ms"),
        "scenario.frames": (tr.n_calls("scenario.render_frame"), "frames/run"),
        "grid.write_map_ms": (ms("grid.write_map"), "ms"),
        "grid.write_map_bytes": (tr.count("grid.write_map", "bytes"), "bytes/run"),
        "grid.read_map_ms": (ms("grid.read_map"), "ms"),
        "setup.world.simulate_sweep_s": (tr.total("setup.world.simulate_sweep"), "s"),
        "setup.instant.build_instant_map_s": (
            tr.total("setup.instant.build_instant_map"), "s"),
        "setup.instant.apply_instant_s": (tr.total("setup.instant.apply_instant"), "s"),
        "fusion.clean_offline_s": (tr.total("setup.fusion.clean_offline"), "s"),
        "scenario.compute_trace_region_s": (tr.total("scenario.compute_trace_region"), "s"),
        "trace.bookkeeping_ms": (1e3 * tr.bookkeeping.get("online", 0.0) / ticks, "ms"),
        "trace.overhead_frac": (ratio(tr.bookkeeping.get("online", 0.0), run_seconds),
                                "ratio"),
    }
