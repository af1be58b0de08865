"""Synthetic evaluation scenario: sensors, timeline, runner, metrics.

The default script drives a vehicle out of a parking lot, down a walled
road corridor, and into a second lot. Mode switches swap the requirement
profile exactly at the scripted times; each 100 ms cycle simulates the
sensor suite, builds per-sensor measurement grids, fuses them into the
live map, realizes the active requirements, and records cell/byte counts
next to two reference layouts.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .evidence import ConflictCounter
from .fusion import FusionPolicy, discount_grid, fuse_grids
from .grid import GridConfig, GridMap
from .requirements import (
    RequirementProfile,
    TypeRequirement,
    apply_requirements,
    required_step,
    validate_profile,
)
from .sensors import (
    PointCloud,
    SemanticObservation,
    SensorModelParams,
    measurement_grid_occupancy,
    measurement_grid_semantic,
)
from .world import WorldModel, default_world

# Constant cell budget of the static non-uniform comparison layout
# (three range rings, finest cells 10 cm). Nominal round figure for the
# baseline; it is a layout property, not something this library computes.
REFERENCE_STATIC_CELLS = 640_000
# Both references are costed at an occupancy payload of two float32 masses
# per cell, the same as ours; real implementations of the baselines store
# more per cell, so factors reported against this are conservative.
REFERENCE_BYTES_PER_CELL = 8

FUSED_SRC = "fused"
REF_STATIC_SRC = "ref_static"
REF_UNIFORM_SRC = "ref_uniform"

CSV_HEADER = "time_s,mode,horizon_m,src,type,cells,bytes,fuse_ms"


# -- sensor suite -------------------------------------------------------------


@dataclass
class LidarConfig:
    name: str = "lidar"
    beams: int = 720
    max_range: float = 100.0
    noise_sigma: float = 0.02
    mount: tuple[float, float] = (0.0, 0.0)
    mu_hit: float = 0.6
    mu_free: float = 0.3

    def sensor_params(self) -> SensorModelParams:
        return SensorModelParams(self.mu_hit, self.mu_free, self.max_range)


@dataclass
class CameraConfig:
    name: str = "camera"
    fov_half_angle_rad: float = math.radians(30.0)
    max_range: float = 40.0
    range_step: float = 0.4
    angle_step_rad: float = math.radians(1.0)
    confidence_near: float = 0.9
    confidence_far: float = 0.4


def _mounted(pose, mount) -> np.ndarray:
    x, y, heading = pose
    c, s = math.cos(heading), math.sin(heading)
    return np.array(
        [x + c * mount[0] - s * mount[1], y + s * mount[0] + c * mount[1]]
    )


def simulate_lidar(
    world: WorldModel, pose, config: LidarConfig, rng: np.random.Generator
) -> PointCloud:
    """Cast beams against the world geometry; noisy ranges, fixed order."""
    origin = _mounted(pose, config.mount)
    angles = pose[2] + np.arange(config.beams) * (2.0 * np.pi / config.beams)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    noise = rng.normal(0.0, config.noise_sigma, size=config.beams)

    segs = world.segments()
    if len(segs) == 0:
        return PointCloud(origin, np.empty((0, 2)))
    rel = segs[:, :2] - origin  # A - o, (M, 2)
    vec = segs[:, 2:] - segs[:, :2]  # B - A, (M, 2)
    denom = dirs[:, 0, None] * vec[None, :, 1] - dirs[:, 1, None] * vec[None, :, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[None, :, 0] * vec[None, :, 1] - rel[None, :, 1] * vec[None, :, 0]) / denom
        s = (rel[None, :, 0] * dirs[:, 1, None] - rel[None, :, 1] * dirs[:, 0, None]) / denom
    valid = (np.abs(denom) > 1e-12) & (t > 1e-9) & (s >= 0.0) & (s <= 1.0)
    t = np.where(valid, t, np.inf)
    ranges = t.min(axis=1)
    hit = ranges <= config.max_range
    ranges = np.maximum(ranges[hit] + noise[hit], 1e-3)
    points = origin + dirs[hit] * ranges[:, None]
    return PointCloud(origin, points)


def simulate_camera(
    world: WorldModel, pose, config: CameraConfig
) -> SemanticObservation:
    """Sample labeled ground points on a polar grid inside the frustum."""
    half = config.fov_half_angle_rad
    n_ang = max(1, int(round(2.0 * half / config.angle_step_rad)) + 1)
    angles = pose[2] + np.linspace(-half, half, n_ang)
    n_rng = max(1, int(math.floor(config.max_range / config.range_step)))
    ranges = (np.arange(n_rng) + 1) * config.range_step
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    pts = (
        np.array(pose[:2])[None, None, :]
        + dirs[:, None, :] * ranges[None, :, None]
    ).reshape(-1, 2)
    rr = np.broadcast_to(ranges[None, :], (n_ang, n_rng)).reshape(-1)
    conf = config.confidence_near - (rr / config.max_range) * (
        config.confidence_near - config.confidence_far
    )
    labels = world.label_points(pts)
    return SemanticObservation(pts, labels, conf)


# -- timeline -----------------------------------------------------------------


@dataclass
class ScenarioScript:
    """Pose keyframes plus a mode step function covering the whole run."""

    keyframes: list[tuple[float, float, float, float]]  # t, x, y, heading
    mode_times: list[tuple[float, str]]  # switch time, mode label
    duration_s: float = 60.0
    cycle_s: float = 0.1

    def validate(self) -> list[str]:
        problems = []
        times = [k[0] for k in self.keyframes]
        if not times:
            problems.append("script has no keyframes")
        elif any(b <= a for a, b in zip(times, times[1:])):
            problems.append("keyframe times must be strictly increasing")
        mtimes = [m[0] for m in self.mode_times]
        if not mtimes:
            problems.append("script has no modes")
        else:
            if mtimes[0] > 0.0:
                problems.append("first mode must start at or before t=0")
            if any(b <= a for a, b in zip(mtimes, mtimes[1:])):
                problems.append("mode times must be strictly increasing")
        if self.cycle_s <= 0.0:
            problems.append("cycle period must be positive")
        if self.duration_s < 0.0:
            problems.append("duration must be nonnegative")
        return problems

    def pose_at(self, t: float) -> tuple[float, float, float]:
        ks = self.keyframes
        if t <= ks[0][0]:
            return ks[0][1:]
        if t >= ks[-1][0]:
            return ks[-1][1:]
        for (t0, x0, y0, h0), (t1, x1, y1, h1) in zip(ks, ks[1:]):
            if t0 <= t <= t1:
                u = (t - t0) / (t1 - t0)
                return (
                    x0 + u * (x1 - x0),
                    y0 + u * (y1 - y0),
                    h0 + u * (h1 - h0),
                )
        return ks[-1][1:]

    def mode_at(self, t: float) -> str:
        label = self.mode_times[0][1]
        for mt, ml in self.mode_times:
            if mt <= t:
                label = ml
        return label

    def n_cycles(self) -> int:
        return int(round(self.duration_s / self.cycle_s))


def parking_profile() -> RequirementProfile:
    return RequirementProfile(
        {
            "occupancy": TypeRequirement(True, 20.0, 0.1),
            "semantic": TypeRequirement(False, 40.0, 0.2, math.radians(30.0)),
        }
    )


def road_profile() -> RequirementProfile:
    return RequirementProfile(
        {
            "occupancy": TypeRequirement(True, 100.0, 0.2),
            "semantic": TypeRequirement(True, 40.0, 0.2, math.radians(30.0)),
        }
    )


def default_script() -> ScenarioScript:
    return ScenarioScript(
        keyframes=[
            (0.0, 0.0, 0.0, 0.0),
            (15.0, 30.0, 0.0, 0.0),
            (45.0, 430.0, 0.0, 0.0),
            (60.0, 460.0, 0.0, 0.0),
        ],
        mode_times=[(0.0, "parking"), (15.0, "road"), (45.0, "parking")],
        duration_s=60.0,
        cycle_s=0.1,
    )


@dataclass
class ScenarioConfig:
    grid: GridConfig = field(default_factory=GridConfig)
    lidars: list[LidarConfig] = field(
        default_factory=lambda: [
            LidarConfig("lidar_front", mount=(1.0, 0.0)),
            LidarConfig("lidar_rear", mount=(-1.0, 0.0)),
        ]
    )
    camera: CameraConfig | None = field(default_factory=CameraConfig)
    modes: dict[str, RequirementProfile] = field(
        default_factory=lambda: {"parking": parking_profile(), "road": road_profile()}
    )
    seed: int = 7
    temporal_alpha: float = 0.95
    measure_timing: bool = True


def default_scenario() -> tuple[ScenarioScript, WorldModel, ScenarioConfig]:
    return default_script(), default_world(), ScenarioConfig()


def validate_scenario(
    script: ScenarioScript, config: ScenarioConfig
) -> list[str]:
    problems = script.validate()
    for _, label in script.mode_times:
        if label not in config.modes:
            problems.append(f"script uses undefined mode {label!r}")
    for label, profile in config.modes.items():
        for issue in validate_profile(profile, config.grid.edge_length):
            problems.append(f"mode {label!r}: {issue}")
    for lidar in config.lidars:
        if lidar.beams < 1:
            problems.append(f"lidar {lidar.name!r}: beam count must be positive")
    if not 0.0 <= config.temporal_alpha <= 1.0:
        problems.append("temporal alpha must be in [0, 1]")
    return problems


# -- metrics ------------------------------------------------------------------


@dataclass
class SourceStat:
    src: str
    type_name: str
    cells: int
    bytes: int


@dataclass
class MetricsRecord:
    time_s: float
    mode: str
    horizon_m: float
    stats: list[SourceStat]
    fuse_ms: float

    def fused_cells(self, type_name: str) -> int:
        for st in self.stats:
            if st.src == FUSED_SRC and st.type_name == type_name:
                return st.cells
        return 0


@dataclass(frozen=True)
class ReferenceLayout:
    label: str
    cells: int
    bytes_per_cell: int = REFERENCE_BYTES_PER_CELL

    @property
    def bytes(self) -> int:
        return self.cells * self.bytes_per_cell


def uniform_patched_cell_count(
    center, horizon_m: float, edge_length: float, step: int
) -> int:
    """Cells of a uniform-resolution patched layout covering the horizon disc."""
    cx, cy = float(center[0]), float(center[1])
    reach = int(math.ceil(horizon_m / edge_length)) + 1
    base_x = math.floor(cx / edge_length)
    base_y = math.floor(cy / edge_length)
    patches = 0
    for ix in range(base_x - reach, base_x + reach + 1):
        for iy in range(base_y - reach, base_y + reach + 1):
            x0 = ix * edge_length
            y0 = iy * edge_length
            dx = max(x0 - cx, 0.0, cx - (x0 + edge_length))
            dy = max(y0 - cy, 0.0, cy - (y0 + edge_length))
            if math.hypot(dx, dy) <= horizon_m:
                patches += 1
    return patches * (1 << (2 * step))


def reference_cell_counts(config: ScenarioConfig) -> list[ReferenceLayout]:
    """Reference layouts the scenario is compared against.

    The uniform-patched layouts are evaluated with the vehicle at a patch
    center, one per mode at that mode's finest active resolution step.
    """
    out = [ReferenceLayout("static_nonuniform", REFERENCE_STATIC_CELLS)]
    e = config.grid.edge_length
    center = (e / 2.0, e / 2.0)
    for label, profile in sorted(config.modes.items()):
        active = profile.active_types()
        if not active:
            continue
        step = max(required_step(profile, t, e) for t in active)
        occ = profile.demands.get("occupancy")
        horizon = occ.horizon_m if occ is not None else 0.0
        out.append(
            ReferenceLayout(
                f"uniform_{label}",
                uniform_patched_cell_count(center, horizon, e, step),
            )
        )
    return out


# -- runner -------------------------------------------------------------------


@dataclass
class RunResult:
    records: list[MetricsRecord]
    grid: GridMap
    conflicts: ConflictCounter


def run_scenario(
    script: ScenarioScript,
    world: WorldModel,
    config: ScenarioConfig,
    on_cycle=None,
) -> RunResult:
    """Execute the scripted scenario cycle by cycle.

    ``on_cycle(record, grid, profile)`` is invoked after every cycle with
    the live map, letting callers check per-cycle invariants.
    """
    problems = validate_scenario(script, config)
    if problems:
        raise ConfigError("; ".join(problems))

    gc = config.grid
    counter = ConflictCounter()
    records: list[MetricsRecord] = []
    live: GridMap | None = None

    for i in range(script.n_cycles()):
        t = round(i * script.cycle_s, 9)
        pose = script.pose_at(t)
        mode = script.mode_at(t)
        profile = config.modes[mode].with_pose(pose)
        policy = FusionPolicy.from_profile(
            profile, gc.edge_length, config.temporal_alpha
        )

        stats: list[SourceStat] = []
        grids: list[GridMap] = []
        for si, lidar in enumerate(config.lidars):
            rng = np.random.default_rng((config.seed, i, si))
            cloud = simulate_lidar(world, pose, lidar, rng)
            g = measurement_grid_occupancy(
                cloud, lidar.sensor_params(), profile, gc
            )
            grids.append(g)
            stats.append(
                SourceStat(lidar.name, "occupancy", g.cell_count(), g.memory_bytes())
            )
        sem = profile.demands.get("semantic")
        if config.camera is not None and sem is not None and sem.active:
            obs = simulate_camera(world, pose, config.camera)
            g = measurement_grid_semantic(obs, profile, gc, counter)
            grids.append(g)
            stats.append(
                SourceStat(
                    config.camera.name, "semantic", g.cell_count(), g.memory_bytes()
                )
            )

        # Temporal accumulation folds the aged map into the same grid-level
        # fusion pass as the sensor grids (the combination is associative).
        t0 = time.perf_counter()
        if live is not None and config.temporal_alpha > 0.0:
            grids.insert(0, discount_grid(live, config.temporal_alpha))
        live = fuse_grids(grids, policy, counter) if grids else GridMap(gc)
        fuse_ms = (time.perf_counter() - t0) * 1e3 if config.measure_timing else 0.0
        apply_requirements(live, profile)

        for type_name in profile.active_types():
            stats.append(
                SourceStat(
                    FUSED_SRC,
                    type_name,
                    live.cell_count(type_name),
                    sum(
                        l.payload_bytes
                        for _, l in live.iter_layers()
                        if l.type_name == type_name
                    ),
                )
            )
        occ = profile.demands.get("occupancy")
        horizon = occ.horizon_m if occ is not None and occ.active else 0.0
        stats.append(
            SourceStat(
                REF_STATIC_SRC,
                "occupancy",
                REFERENCE_STATIC_CELLS,
                REFERENCE_STATIC_CELLS * REFERENCE_BYTES_PER_CELL,
            )
        )
        finest = max(
            (
                required_step(profile, tname, gc.edge_length)
                for tname in profile.active_types()
            ),
            default=0,
        )
        uni = uniform_patched_cell_count(pose[:2], horizon, gc.edge_length, finest)
        stats.append(
            SourceStat(
                REF_UNIFORM_SRC,
                "occupancy",
                uni,
                uni * REFERENCE_BYTES_PER_CELL,
            )
        )

        record = MetricsRecord(t, mode, horizon, stats, fuse_ms)
        records.append(record)
        if on_cycle is not None:
            on_cycle(record, live, profile)

    if live is None:
        live = GridMap(gc)
    return RunResult(records, live, counter)


def write_metrics(records: list[MetricsRecord], path) -> Path:
    """Deterministic CSV dump, one row per (cycle, source, type)."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for rec in records:
            for st in rec.stats:
                fuse_ms = rec.fuse_ms if st.src == FUSED_SRC else 0.0
                fh.write(
                    f"{rec.time_s:.3f},{rec.mode},{rec.horizon_m:.1f},"
                    f"{st.src},{st.type_name},{st.cells},{st.bytes},"
                    f"{fuse_ms:.3f}\n"
                )
    return path


def summarize(records: list[MetricsRecord]) -> str:
    """Human-readable run summary with memory-efficiency factors."""
    if not records:
        return "no cycles recorded"
    fused = np.array([r.fused_cells("occupancy") for r in records], dtype=float)
    uniform = np.array(
        [
            next(
                st.cells
                for st in r.stats
                if st.src == REF_UNIFORM_SRC
            )
            for r in records
        ],
        dtype=float,
    )
    fuse_ms = np.array([r.fuse_ms for r in records])
    mean_fused = fused.mean()
    factor_static = REFERENCE_STATIC_CELLS / max(mean_fused, 1.0)
    factor_uniform = uniform.mean() / max(mean_fused, 1.0)
    lines = [
        f"cycles: {len(records)}",
        f"fused occupancy cells: mean {mean_fused:.0f}, max {fused.max():.0f}",
        f"memory-efficiency factor vs static reference ({REFERENCE_STATIC_CELLS}): "
        f"{factor_static:.2f}x",
        f"memory-efficiency factor vs uniform-patched reference: {factor_uniform:.2f}x",
        f"fusion time per cycle: mean {fuse_ms.mean():.2f} ms, max {fuse_ms.max():.2f} ms",
    ]
    return "\n".join(lines)
