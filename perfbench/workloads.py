"""Scenario configs for the benchmark workloads, each a pure function of a seed.

``overtake`` is the shipped reference scenario at every seed.  ``drive`` and
``crowd`` start from it and change what the seed draws: the ego path for
``drive``, the box layout for ``crowd``.  The program under test only ever
sees the returned config dict.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OVERTAKE_PATH = ROOT / "configs" / "overtake.json"

#: Seed at which the reference outputs under ``reference/`` were recorded.
REFERENCE_SEED = 0

#: Corridor between the two overtake walls (inner faces at y = -10 and 14).
CORRIDOR_Y = (-10.0, 14.0)


def _overtake_dict() -> dict:
    with open(OVERTAKE_PATH, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw.pop("output_dir", None)  # the benchmark chooses where runs write
    return raw


def _rng(workload: str, seed: int) -> random.Random:
    # string seeds are hashed with SHA-512, so draws are stable across runs
    # and interpreter versions (unlike tuple seeds under hash randomisation)
    return random.Random(f"{workload}:{seed}")


def overtake(seed: int) -> dict:
    """The shipped reference scenario; the seed does not change it."""
    return _overtake_dict()


def drive(seed: int) -> dict:
    """The overtake world with the ego driving the corridor from about
    x = -100 m to x = +100 m in 30 s (~1.7 cells per 20 Hz tick), so the
    window recenters every tick and its origin never repeats."""
    raw = _overtake_dict()
    rng = _rng("drive", seed)
    y = round(rng.uniform(-2.0, 0.0), 3)
    x0 = round(-100.0 + rng.uniform(-5.0, 5.0), 3)
    x1 = round(100.0 + rng.uniform(-5.0, 5.0), 3)
    raw["ego_trajectory"] = [[0.0, x0, y, 0.0], [raw["duration"], x1, y, 0.0]]
    return raw


def crowd(seed: int) -> dict:
    """The overtake sensor and grid with 12 boxes crossing the corridor and
    8 parked boxes, around a stationary ego; 10 s (200 ticks).

    The corridor x range is cut into 20 slots of 5 m, ten on each side of
    the ego, and each slot gets one box, so boxes never overlap one another
    or the ego.  Crossing boxes sit at their start pose, cross in 3-6 s and
    park at the far side; parked boxes are static and so part of the prior.
    All boxes are taller than the sensor mount, so the sensor sees them.
    Box sizes are fixed and only placement and timing are drawn, so the
    work per tick, and the trace region, barely change with the seed.
    """
    raw = _overtake_dict()
    rng = _rng("crowd", seed)
    duration = 10.0
    slots = [s * side for side in (-1.0, 1.0) for s in (7.5 + 5.0 * i for i in range(10))]
    rng.shuffle(slots)
    crossing_x, parked_x = slots[:12], slots[12:]

    objects = []
    for i, x in enumerate(sorted(crossing_x)):
        x = round(x + rng.uniform(-0.5, 0.5), 3)
        y_a, y_b = CORRIDOR_Y[0] + 4.0, CORRIDOR_Y[1] - 4.0
        if rng.random() < 0.5:
            y_a, y_b = y_b, y_a
        yaw = math.copysign(math.pi / 2.0, y_b - y_a)
        t0 = round(rng.uniform(0.5, 3.0), 3)
        t1 = round(t0 + abs(y_b - y_a) / rng.uniform(3.5, 6.0), 3)
        objects.append({
            "name": f"crosser{i:02d}", "length": 4.5, "width": 2.0, "height": 2.6,
            "trajectory": [[t0, x, y_a, round(yaw, 12)], [t1, x, y_b, round(yaw, 12)]],
        })

    # parked boxes have their faces on cell edges, like the walls: a face
    # inside a cell leaves that cell part free, part occupied, and its prior
    # near p = 0.5 (see README, "Output check")
    boxes = list(raw["world"]["static_boxes"])
    cell = raw["resolution"]
    for x in sorted(parked_x):
        x = round(x + rng.uniform(-0.25, 0.25), 3)
        x = round(round(x / cell) * cell, 6)
        y_lo = CORRIDOR_Y[0] + 0.4 if rng.random() < 0.5 else CORRIDOR_Y[1] - 2.4
        boxes.append({"x_min": x - 2.0, "x_max": x + 2.0,
                      "y_min": y_lo, "y_max": y_lo + 2.0, "z_top": 2.75})

    raw["world"]["static_boxes"] = boxes
    raw["world"]["dynamic_objects"] = objects
    raw["duration"] = duration
    return raw


WORKLOADS = {"overtake": overtake, "drive": drive, "crowd": crowd}


def make_config(workload: str, seed: int) -> dict:
    if workload not in WORKLOADS:
        raise KeyError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](seed)


def config_digest(raw: dict) -> str:
    """SHA-256 of the canonical JSON form of a config dict."""
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
