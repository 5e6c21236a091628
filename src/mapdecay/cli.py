"""Command line entry points for the scenario simulator.

Subcommands:
    build-offline  build and clean the offline map for a scenario config
    run            run a full scenario and write frames, maps and metrics
    render         convert a saved map to a PPM image
    diff           compare two saved maps cell by cell
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import AlignmentError, MapDecayError
from .grid import check_values, read_map, write_map
from .scenario import build_offline_phase, load_config, render_frame, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapdecay",
        description="occupancy grid scenario simulator with online map decay")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-offline", help="build the cleaned offline map")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("output", help="output map path (.ogm)")
    p.set_defaults(func=_cmd_build_offline)

    p = sub.add_parser("run", help="run a scenario")
    p.add_argument("config", help="scenario config JSON")
    p.add_argument("--offline", help="reuse a prebuilt offline map", default=None)
    p.add_argument("--output", help="output directory", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("render", help="render a saved map to PPM")
    p.add_argument("map", help="input map (.ogm)")
    p.add_argument("output", help="output image (.ppm)")
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("diff", help="compare two saved maps")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_diff)
    return parser


def _cmd_build_offline(args) -> int:
    cfg = load_config(args.config)
    offline = build_offline_phase(cfg)
    write_map(offline, args.output)
    print(f"wrote {args.output}: {offline.width}x{offline.height} cells, "
          f"{int(offline.observed.sum())} observed")
    return 0


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    offline = read_map(args.offline) if args.offline else build_offline_phase(cfg)
    metrics = run_scenario(cfg, offline, args.output or cfg.output_dir or "out")
    persistence = metrics.trace_persistence
    print(f"ticks={cfg.n_ticks} trace_region_cells={metrics.trace_offline.size} "
          f"trace_persistence={'none' if persistence is None else persistence} "
          f"final_iou={metrics.final_iou:.6f} total_wall_s={metrics.wall_time.sum():.3f}")
    return 0


def _cmd_render(args) -> int:
    render_frame(check_values(read_map(args.map), args.map), args.output)
    print(f"wrote {args.output}")
    return 0


def _cmd_diff(args) -> int:
    a = read_map(args.a)
    b = read_map(args.b)
    try:
        if a.shape != b.shape or a.offset_in(b) != (0, 0):
            raise AlignmentError("not the same cells")
    except AlignmentError:
        print(f"extent mismatch: {a.width}x{a.height} cells of {a.resolution} m at "
              f"({a.origin_x}, {a.origin_y}) vs {b.width}x{b.height} cells of "
              f"{b.resolution} m at ({b.origin_x}, {b.origin_y})")
        return 1
    flags = a.observed != b.observed
    n_diff = int(((a.values != b.values) | flags).sum())
    print(f"max_abs_diff={np.abs(a.values - b.values).max(initial=0.0):.12g} "
          f"differing_cells={n_diff} flag_mismatches={int(flags.sum())}")
    return 0 if n_diff == 0 else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MapDecayError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
