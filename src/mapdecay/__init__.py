"""Occupancy grid mapping with an offline/online map pair and map decay.

The online map is pulled toward the offline map by a weighted average each
tick, so evidence left behind by moving objects fades instead of lingering.
"""

from .errors import (
    AlignmentError,
    ConfigError,
    DomainError,
    LogError,
    MapDecayError,
    MapFormatError,
    ParameterError,
    ScenarioError,
)
from .grid import (
    L_MAX,
    L_MIN,
    DecayParams,
    GridMap,
    apply_decay,
    decay_cell,
    decay_cell_pow,
    logodds_from_prob,
    prob_from_logodds,
    read_map,
    update_cell,
    write_map,
)
from .world import (
    Box,
    DynamicObject,
    Pose,
    Rect,
    SensorConfig,
    World,
    ego_pose_at,
    interpolate_pose,
    simulate_sweep,
)
from .instant import (
    L_FREE_SET,
    L_OCC,
    ObstacleThresholds,
    apply_instant,
    build_instant_map,
    raycast_cells,
)
from .fusion import (
    CleanParams,
    build_offline,
    clean_offline,
    offline_window,
    online_init,
    online_step,
    recenter,
)
from .scenario import (
    RunMetrics,
    ScenarioConfig,
    compute_trace_region,
    config_from_dict,
    load_config,
    occupancy_iou,
    persistence_from_stream,
    render_frame,
    run_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "AlignmentError", "ConfigError", "DomainError", "LogError",
    "MapDecayError", "MapFormatError", "ParameterError", "ScenarioError",
    "L_MAX", "L_MIN", "DecayParams", "GridMap", "apply_decay", "decay_cell",
    "decay_cell_pow", "logodds_from_prob", "prob_from_logodds", "read_map",
    "update_cell", "write_map",
    "Box", "DynamicObject", "Pose", "Rect", "SensorConfig", "World",
    "ego_pose_at", "interpolate_pose", "simulate_sweep",
    "L_FREE_SET", "L_OCC", "ObstacleThresholds", "apply_instant",
    "build_instant_map", "raycast_cells",
    "CleanParams", "build_offline", "clean_offline",
    "offline_window", "online_init", "online_step", "recenter",
    "RunMetrics", "ScenarioConfig", "compute_trace_region", "config_from_dict",
    "load_config", "occupancy_iou", "persistence_from_stream", "render_frame",
    "run_scenario",
    "__version__",
]
