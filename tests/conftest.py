from __future__ import annotations

import copy
import math

import pytest

from mapdecay import DecayParams, DomainError, ParameterError, config_from_dict


# Oracles of the log-odds and decay rules in mapdecay.grid; no library code calls them.
def prob_from_logodds(l: float) -> float:
    """Inverse of :func:`logodds_from_prob`; returns a value in (0, 1)."""
    if not math.isfinite(l):
        raise DomainError(f"log-odds must be finite, got {l!r}")
    return 1.0 / (1.0 + math.exp(-l))


def decay_cell_pow(on: float, off: float, params: DecayParams, k: int) -> float:
    """Closed form of ``k`` iterated :func:`decay_cell` steps, their test
    oracle: bit for bit at ``k = 1``, only to rounding for larger ``k``."""
    if k < 0:
        raise ParameterError(f"step count must be nonnegative, got {k}")
    if k == 0:
        return on
    return off + (on - off) * params.retention ** k


# A desk-size scenario that runs in a couple of seconds: a stationary ego, a
# short wall to the north, and a tall cart that drives east through the
# sensor's close-range blind zone and parks there.
MINI_CONFIG = {
    "world": {
        "ground_z": 0.0,
        "bounds": [-30.0, -30.0, 30.0, 30.0],
        "static_boxes": [
            {"x_min": -8.0, "x_max": 8.0, "y_min": 6.0, "y_max": 6.4, "z_top": 3.0},
        ],
        "dynamic_objects": [
            {
                "name": "cart",
                "length": 1.2,
                "width": 0.8,
                "height": 2.4,
                "trajectory": [[0.5, -4.0, 2.5, 0.0], [4.0, 3.0, 2.5, 0.0]],
            },
        ],
    },
    "ego_trajectory": [[0.0, 0.0, 0.0, 0.0]],
    "offline_trajectory": [[0.0, -6.0, 0.0, 0.0], [3.0, 6.0, 0.0, 0.0]],
    "sensor": {
        "beam_count": 8,
        "vertical_min_deg": -20.0,
        "vertical_max_deg": 5.0,
        "azimuth_steps": 720,
        "max_range": 25.0,
        "mount_height": 2.0,
        "sweep_rate": 20.0,
        "noise_sigma": 0.0,
    },
    "decay": {"w_on": 10.0, "w_off": 1.0, "enabled": True},
    "clean": {"occ_threshold": 0.5, "min_component_cells": 6},
    "obstacle": {"min_height": 0.3, "max_height": 4.0},
    "extent": [-24.0, -24.0, 24.0, 24.0],
    "resolution": 0.2,
    "window_size": 20.0,
    "duration": 7.0,
    "tick_rate": 20.0,
    "offline_tick_rate": 10.0,
    "render_stride": 50,
    "epsilon_trace": 0.1,
    "seed": 3,
}


@pytest.fixture
def mini_dict():
    return copy.deepcopy(MINI_CONFIG)


@pytest.fixture
def mini_cfg(mini_dict):
    return config_from_dict(mini_dict)
