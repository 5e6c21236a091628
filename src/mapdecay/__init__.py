"""Occupancy grid mapping with an offline/online map pair and map decay.

The online map is pulled toward the offline map by a weighted average each
tick, so evidence left behind by moving objects fades instead of lingering.
Everything not named here is imported from its submodule.
"""

from .errors import (AlignmentError, ConfigError, DomainError, LogError, MapDecayError,
                     MapFormatError, ParameterError, ScenarioError)
from .fusion import build_offline, clean_offline, online_init, online_step, recenter
from .grid import DecayParams, GridMap, apply_decay, read_map, write_map
from .instant import apply_instant, build_instant_map
from .scenario import config_from_dict, load_config, run_scenario
from .world import SensorConfig, ego_pose_at, simulate_sweep

__version__ = "0.1.0"

__all__ = [
    "load_config", "config_from_dict", "run_scenario",
    "build_instant_map", "apply_instant",
    "build_offline", "clean_offline",
    "online_init", "online_step", "recenter",
    "DecayParams", "apply_decay",
    "GridMap", "read_map", "write_map",
    "simulate_sweep", "SensorConfig",
    "AlignmentError", "ConfigError", "DomainError", "LogError",
    "MapDecayError", "MapFormatError", "ParameterError", "ScenarioError",
    "ego_pose_at",  # imported from the root by perfbench/tests
    "__version__",
]
