"""Command-line entry point.

Subcommands:
  run              execute a scenario file, write metrics/snapshot/rasters
  demo-resample    render the merge-operator comparison on a small scene
  validate-config  check a scenario file and print diagnostics

Exit codes: 0 ok, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .config import load_scenario, validate_file
from .errors import ConfigError
from .grid import GridConfig, GridMap
from .raster import compare_resampling_demo, export_raster, write_pgm
from .requirements import RequirementProfile, TypeRequirement
from .scenario import LidarConfig, run_scenario, simulate_lidar, summarize, write_metrics
from .sensors import measurement_grid_occupancy
from .snapshot import save_grid
from .world import Rect, WorldModel


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apgm",
        description="Adaptive patched grid mapping scenario tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write metrics")
    run_p.add_argument("--config", required=True, help="scenario file (INI)")
    run_p.add_argument("--out", required=True, help="output directory")
    run_p.add_argument("--seed", type=int, default=None, help="override RNG seed")
    run_p.add_argument(
        "--temporal-alpha",
        type=float,
        default=None,
        help="override temporal discount (0 disables accumulation)",
    )
    run_p.add_argument(
        "--dump-rasters",
        action="store_true",
        help="also export PGM rasters of the final map",
    )

    demo_p = sub.add_parser(
        "demo-resample", help="compare merge operators on a sample layer"
    )
    demo_p.add_argument("--out", required=True, help="output directory")

    val_p = sub.add_parser("validate-config", help="check a scenario file")
    val_p.add_argument("config", help="scenario file (INI)")
    return parser


def _cmd_run(args) -> int:
    script, world, config = load_scenario(args.config)
    if args.seed is not None:
        config.seed = args.seed
    if args.temporal_alpha is not None:
        config.temporal_alpha = args.temporal_alpha

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run_scenario(script, world, config)
    metrics_path = write_metrics(result.records, out / "metrics.csv")
    snap_path = save_grid(result.grid, out / "final.apgm")
    print(f"wrote {metrics_path}")
    print(f"wrote {snap_path}")
    if result.conflicts.cells:
        print(f"total-conflict fallbacks: {result.conflicts.cells} cells")
    print(summarize(result.records))

    if args.dump_rasters:
        raster_dir = out / "rasters"
        raster_dir.mkdir(exist_ok=True)
        pose = script.pose_at(script.duration_s)
        mode = script.mode_at(script.duration_s)
        for type_name in config.modes[mode].active_types():
            demand = config.modes[mode].demands[type_name]
            h = demand.horizon_m
            region = (pose[0] - h, pose[1] - h, pose[0] + h, pose[1] + h)
            path = export_raster(
                result.grid, type_name, region, raster_dir / f"{type_name}.pgm"
            )
            print(f"wrote {path}")
    return 0


def demo_scene_grid() -> GridMap:
    """Small occupancy grid for the merge comparison: one scan of a room."""
    world = WorldModel(
        obstacles=[Rect(4.0, -1.5, 5.0, 1.5), Rect(-2.0, 3.0, 2.0, 4.0)],
        walls=list(Rect(-6.0, -6.0, 6.0, 6.0).segments()),
    )
    lidar = LidarConfig(mu_hit=0.8, mu_free=0.4, max_range=30.0, noise_sigma=0.0)
    cloud = simulate_lidar(world, (0.0, 0.0, 0.0), lidar, np.random.default_rng(0))
    profile = RequirementProfile({"occupancy": TypeRequirement(True, 30.0, 0.1)})
    config = GridConfig(datum=(-6.4, -6.4))
    return measurement_grid_occupancy(cloud, lidar, profile, config)


def _cmd_demo(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = demo_scene_grid()
    images = compare_resampling_demo(grid, region=(-6.4, -6.4, 6.4, 6.4))
    for name, image in images.items():
        path = write_pgm(image, out / f"{name}.pgm")
        print(f"wrote {path}")
    return 0


def _cmd_validate(args) -> int:
    problems = validate_file(args.config)
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2
    print(f"{args.config}: ok")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "demo-resample":
            return _cmd_demo(args)
        if args.command == "validate-config":
            return _cmd_validate(args)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures map to a stable exit code
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
