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

from .errors import ConfigError, InputShapeError, require
from .evidence import ConflictCounter
from .fusion import discount_grid, fuse_grids
from .grid import BYTES_PER_MASS, OCCUPANCY_FRAME, GridConfig, GridMap
from .kernels import CELL_RANGE
from .requirements import (
    STEP_TOL,
    MutationReport,
    RequirementProfile,
    TypeRequirement,
    apply_requirements,
    required_step,
    required_steps,
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
# Both references are costed at our occupancy payload, one float32 mass per
# hypothesis; real implementations of the baselines store more per cell,
# so factors reported against this are conservative.
REFERENCE_BYTES_PER_CELL = len(OCCUPANCY_FRAME) * BYTES_PER_MASS

FUSED_SRC = "fused"
REF_STATIC_SRC = "ref_static"
REF_UNIFORM_SRC = "ref_uniform"

CSV_HEADER = "time_s,mode,horizon_m,src,type,cells,bytes,fuse_ms"


# -- sensor suite -------------------------------------------------------------

# Work bounds per sensor frame (peaks traced with tracemalloc).
# simulate_lidar holds a few arrays over its (segment, beam) pairs, about
# 65 bytes a pair: 4,096 beams with every one of the default world's 90
# segments given all beams peak at 24 MB, so the bound comes near 96 MB.
# Segments out of range are dropped first (a scan of the default drive
# keeps 20-51) and each kept segment gets only its window of beams, so
# 4,096 beams from the start pose (47 segments) peak at 1.7 MB.
# simulate_camera holds about 85 bytes per polar sample (2^18 samples peak
# at 22 MB), so its bound comes near 90 MB. The defaults are 720 beams and
# 6,100 samples.
MAX_LIDAR_BEAMS = 1 << 14
MAX_CAMERA_SAMPLES = 1 << 20
# Work bounds per demand: the patches its horizon disc may reach, and those
# patches' cells at the demanded step. The default 100 m road horizon on
# 12.8 m patches reaches at most 267 patches, 1.1M cells at step 6. Any
# disc reaches over 2 pi patches, so 2^24 cells caps the step at 10.
MAX_DEMAND_CELLS = 1 << 24
MAX_HORIZON_PATCHES = 1 << 16
# A beam meets a segment only where |dir x (B - A)| exceeds this.
_PARALLEL = 1e-12


@dataclass(frozen=True, kw_only=True)
class LidarConfig(SensorModelParams):
    """A lidar and its sensor model, which the occupancy builder reads."""

    name: str = "lidar"
    beams: int = 720
    noise_sigma: float = 0.02
    mount: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        super().__post_init__(
            (self.beams >= 1, "beam count must be positive"),
            (self.beams <= MAX_LIDAR_BEAMS, f"beams must be at most {MAX_LIDAR_BEAMS}"),
            (0.0 <= self.noise_sigma < math.inf, "noise_sigma must be finite and nonnegative"),
            (len(self.mount) == 2, "mount must hold two values (x, y)"),
            (all(math.isfinite(v) for v in self.mount), "mount must be finite"),
        )
        # -0.0 is a nonnegative sigma, but numpy refuses any scale whose sign bit is set.
        object.__setattr__(self, "noise_sigma", self.noise_sigma + 0.0)


@dataclass(frozen=True)
class CameraConfig:
    name: str = "camera"
    fov_half_angle_rad: float = math.radians(30.0)
    max_range: float = 40.0
    range_step: float = 0.4
    angle_step_rad: float = math.radians(1.0)
    confidence_near: float = 0.9
    confidence_far: float = 0.4

    def __post_init__(self):
        fov = self.fov_half_angle_rad
        shape = [
            (0.0 <= fov <= math.pi, "fov half angle must be in [0, 180] degrees"),
            *((0.0 < getattr(self, k) < math.inf, f"{k} must be finite and positive")
              for k in ("max_range", "range_step", "angle_step_rad")),
        ]
        if all(ok for ok, _ in shape):
            samples = math.prod(self.polar_shape())
            shape.append((
                samples <= MAX_CAMERA_SAMPLES,
                f"range_step and angle_step_rad ask for {samples:.3g} samples per "
                f"frame, above {MAX_CAMERA_SAMPLES}",
            ))
        require(
            *shape,
            *((0.0 <= getattr(self, k) <= 1.0, f"{k} must be in [0, 1]")
              for k in ("confidence_near", "confidence_far")),
        )

    def polar_shape(self) -> tuple[float, float]:
        """(angles, ranges) of the polar grid :func:`simulate_camera` samples,
        as floats, so that a tiny step reads inf instead of overflowing. No
        range lies beyond ``max_range``, so one below ``range_step`` gives
        none."""
        angles = np.rint(2.0 * self.fov_half_angle_rad / self.angle_step_rad)
        ranges = np.floor(self.max_range / self.range_step)
        return float(angles) + 1.0, float(ranges)


def _mounted(pose, mount) -> np.ndarray:
    x, y, heading = pose
    c, s = math.cos(heading), math.sin(heading)
    return np.array(
        [x + c * mount[0] - s * mount[1], y + s * mount[0] + c * mount[1]]
    )


def simulate_lidar(
    world: WorldModel, pose, config: LidarConfig, rng: np.random.Generator
) -> PointCloud:
    """Cast beams against the world geometry; noisy ranges, fixed order.

    Only the segments :func:`_segments_in_range` keeps are cast against,
    each only with the beams in its window (:func:`_beam_windows`), and
    each (segment, beam) pair with the full cast's arithmetic. A beam's
    range is the least t over its accepted pairs, taken with
    ``np.minimum.at`` (a minimum is exact in any order), so the cloud is
    the one every beam against the whole world gives, bit for bit. A
    return whose noisy range is not positive, or that noise carries to a
    non-finite point, is dropped.

    A window holds every beam the cast accepts for its segment. With
    u = 2**-53, a = 4 u |vec| / 1e-12 (the a' of :func:`_segments_in_range`)
    and w = (u + a (|rel| / |vec| + 1)) / (1 - a), that proof (its bound
    grows with a) puts the exact line crossing of an accepted beam on E,
    the segment stretched by w lengths at both ends. The float t = N / D exceeds 1e-9, and D keeps
    its sign (|D| > 1e-12, above its rounding 2.02 u |vec|), so N keeps
    the sign of its float unless |N| is at most its rounding,
    2.01 u |rel| |vec|. Where the float |N| exceeds 2**-50 |rel| |vec| the
    exact t is then positive, and the beam points at a point of E. Where E
    keeps a gap g > 2**-30 L from o (L = |rel| + (1 + 2 w) |vec|), the
    angles of E's points fill the arc between the angles of its ends,
    shorter than pi. The ends are computed within 8 u L and g within
    2**-40 L, so the ends' ``arctan2`` lies within 4 pi u L / g plus a few
    ulps of their exact angles, and each beam's ``arctan2`` of its own
    ``dirs`` row within a few ulps of its angle. The window is the arc
    widened by 2**-40 (1 + L / g) at both ends, a run of the beams sorted
    by that angle, so no heading can misplace a beam. A segment with
    a > 1/8, with |N| or g not above its bound, or whose widened arc
    reaches pi gets all beams, as in the full cast; one no longer than
    2**-42 gets none, since there |D| <= (1 + 5 u) |vec| < 1e-12.
    """
    origin = _mounted(pose, config.mount)
    angles = pose[2] + np.arange(config.beams) * (2.0 * np.pi / config.beams)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    noise = rng.normal(0.0, config.noise_sigma, size=config.beams)

    segs = world.segments()
    rel = segs[:, :2] - origin  # A - o, (M, 2)
    vec = segs[:, 2:] - segs[:, :2]  # B - A, (M, 2)
    keep = _segments_in_range(rel, vec, config.max_range)
    rel, vec = rel[keep], vec[keep]
    # The beams sorted by the angle of their own direction: a window is a
    # run of that order from its first beam, which may wrap past the end.
    phi = np.arctan2(dirs[:, 1], dirs[:, 0])
    order = np.argsort(phi, kind="stable")
    first, count = _beam_windows(rel, vec, phi[order])
    seg = np.repeat(np.arange(len(rel)), count)
    beam = np.arange(len(seg)) - np.repeat(np.cumsum(count) - count - first, count)
    beam = order[beam % config.beams]
    dx, dy = dirs[beam, 0], dirs[beam, 1]
    denom = dx * vec[seg, 1]
    denom -= dy * vec[seg, 0]
    # A near-parallel beam's quotients may overflow; the mask drops them.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = (rel[:, 0] * vec[:, 1] - rel[:, 1] * vec[:, 0])[seg] / denom
        s = rel[seg, 0] * dy
        s -= rel[seg, 1] * dx
        s /= denom
    valid = np.abs(denom) > _PARALLEL
    valid &= t > 1e-9
    valid &= s >= 0.0
    valid &= s <= 1.0
    ranges = np.full(config.beams, np.inf)
    np.minimum.at(ranges, beam[valid], t[valid])
    hit = ranges <= config.max_range
    with np.errstate(over="ignore", invalid="ignore"):
        ranges = ranges[hit] + noise[hit]
        points = origin + dirs[hit] * ranges[:, None]
    keep = (ranges > 0.0) & np.isfinite(points).all(axis=1)
    return PointCloud(origin, points[keep])


def _segments_in_range(rel, vec, max_range) -> np.ndarray:
    """Mask of the segments (``rel`` = A - o, ``vec`` = B - A) that could
    return a range up to ``max_range`` to some beam of :func:`simulate_lidar`.

    A beam returns t = N / D (N = rel x vec, D = dir x vec) only where
    |D| > 1e-12. With u = 2**-53, rounding moves N by at most
    2.01 u |rel| |vec| and D by 2.02 u |vec| (|dir| <= 1 + 2u). So with
    a = 2.02 u |vec| / 1e-12, N / D lies within a (|rel| + |tau|) of the
    exact line crossing tau, and the cast's s within a (|rel| / |vec| + |s|)
    + u of its exact value. A beam the cast accepts then meets the
    segment's line within (u + a (|rel| / |vec| + 1)) / (1 - a) segment
    lengths of the segment, at a distance of at least d - 3.01 a (d +
    |vec|) (d the segment's distance from o; |rel| <= d + |vec|), and its
    float t exceeds ``max_range`` where that distance does by a relative
    3.01 u. Each segment is kept unless d passes ``max_range`` by
    3 a' (d + |vec|), a' = 4 u |vec| / 1e-12 >= 1.98 a, plus 2**-40 of the
    lengths for the rounding of d and of this test. A segment with
    a' > 1/8 (over 280 units long) is always kept. A zero-length one never
    meets a beam (D = 0).
    """
    length = np.hypot(vec[:, 0], vec[:, 1])
    square = (vec * vec).sum(axis=1)
    along = np.divide(
        -(rel * vec).sum(axis=1), square, out=np.zeros(len(vec)), where=square > 0.0
    )
    near = rel + np.clip(along, 0.0, 1.0)[:, None] * vec
    dist = np.hypot(near[:, 0], near[:, 1])
    a = (4.0 * 2.0**-53 / _PARALLEL) * length
    # Near the float limit the margin overflows to inf: every segment is kept.
    with np.errstate(over="ignore"):
        reach = max_range + 3.0 * a * (dist + length) + 2.0**-40 * (max_range + dist + length)
    return (a > 0.125) | (dist <= reach)


def _beam_windows(rel, vec, phi) -> tuple[np.ndarray, np.ndarray]:
    """First beam and beam count of each segment's window (``rel`` = A - o,
    ``vec`` = B - A), as positions in ``phi``, the beams' angles sorted;
    a window may wrap past the last beam. See :func:`simulate_lidar` for
    why a window holds every beam the cast accepts for its segment."""
    beams = len(phi)
    length = np.hypot(vec[:, 0], vec[:, 1])
    reach = np.hypot(rel[:, 0], rel[:, 1])
    a = (4.0 * 2.0**-53 / _PARALLEL) * length
    # Overflow and 0/0 give inf or NaN, and the test below then gives all beams.
    with np.errstate(all="ignore"):
        w = (2.0**-53 + a * (reach / length + 1.0)) / (1.0 - a)
        along = np.clip(-(rel * vec).sum(axis=1) / (vec * vec).sum(axis=1), -w, 1.0 + w)
        near = rel + along[:, None] * vec
        gap = np.hypot(near[:, 0], near[:, 1])
        span = reach + (1.0 + 2.0 * w) * length
        start = rel - w[:, None] * vec
        stop = rel + (1.0 + w)[:, None] * vec
        lo = np.arctan2(start[:, 1], start[:, 0])
        hi = np.arctan2(stop[:, 1], stop[:, 0])
        turn = np.remainder(hi - lo + np.pi, 2.0 * np.pi) - np.pi
        margin = 2.0**-40 * (1.0 + span / gap)
        lo = np.where(turn < 0.0, hi, lo) - margin
        lo = np.where(lo < -np.pi, lo + 2.0 * np.pi, lo)
        width = np.abs(turn) + 2.0 * margin
        hi = lo + width
        end = np.where(
            hi > np.pi,
            beams + np.searchsorted(phi, hi - 2.0 * np.pi, "right"),
            np.searchsorted(phi, hi, "right"),
        )
        first = np.searchsorted(phi, lo)
        side = np.abs(rel[:, 0] * vec[:, 1] - rel[:, 1] * vec[:, 0]) > 2.0**-50 * reach * length
        every = ~((a <= 0.125) & side & (gap > 2.0**-30 * span) & (width < np.pi))
    first = np.where(every, 0, first)
    count = np.where(every, beams, end - first)
    count[length <= 2.0**-42] = 0
    return first, count


def simulate_camera(
    world: WorldModel, pose, config: CameraConfig
) -> SemanticObservation:
    """Sample labeled ground points on a polar grid inside the frustum."""
    half = config.fov_half_angle_rad
    n_ang, n_rng = (int(n) for n in config.polar_shape())
    angles = pose[2] + np.linspace(-half, half, n_ang)
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


@dataclass(frozen=True)
class ScenarioScript:
    """Pose keyframes plus a mode step function covering the whole run.

    Its problems name the config section that holds the field:
    ``[timeline]`` the keyframes and modes, ``[run]`` the cycle and the
    duration."""

    keyframes: tuple[tuple[float, float, float, float], ...]  # t, x, y, heading
    mode_times: tuple[tuple[float, str], ...]  # switch time, mode label
    duration_s: float = 60.0
    cycle_s: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "keyframes", tuple(self.keyframes))
        object.__setattr__(self, "mode_times", tuple(self.mode_times))
        problems = []
        times = [k[0] for k in self.keyframes]
        if not times:
            problems.append("[timeline] script has no keyframes")
        elif not all(math.isfinite(v) for k in self.keyframes for v in k):
            problems.append("[timeline] keyframe values must be finite")
        elif any(b <= a for a, b in zip(times, times[1:])):
            problems.append("[timeline] keyframe times must be strictly increasing")
        mtimes = [m[0] for m in self.mode_times]
        if not mtimes:
            problems.append("[timeline] script has no modes")
        else:
            if not mtimes[0] <= 0.0:
                problems.append("[timeline] first mode must start at or before t=0")
            if not all(a < b for a, b in zip(mtimes, mtimes[1:])):
                problems.append("[timeline] mode times must be strictly increasing, not NaN")
        if not 0.0 < self.cycle_s < math.inf:
            problems.append("[run] cycle_s must be finite and positive")
        elif not 0.0 <= self.duration_s / self.cycle_s < 2**53:  # exact float indices
            problems.append("[run] duration_s must be finite, >= 0 and < 2**53 cycles")
        if problems:
            raise ConfigError(*problems)

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

    def cycle_time(self, i: int) -> float:
        return round(i * self.cycle_s, 9)


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
            LidarConfig(name="lidar_front", mount=(1.0, 0.0)),
            LidarConfig(name="lidar_rear", mount=(-1.0, 0.0)),
        ]
    )
    camera: CameraConfig = field(default_factory=CameraConfig)
    modes: dict[str, RequirementProfile] = field(
        default_factory=lambda: {"parking": parking_profile(), "road": road_profile()}
    )
    seed: int = 7
    temporal_alpha: float = 0.95  # per-cycle discount of the live map
    measure_timing: bool = True


def default_scenario() -> tuple[ScenarioScript, WorldModel, ScenarioConfig]:
    return default_script(), default_world(), ScenarioConfig()


def validate_scenario(
    script: ScenarioScript, config: ScenarioConfig
) -> list[str]:
    """Diagnostics for the rules that span parts or read the mutable
    ``ScenarioConfig``; each part checked its own fields when built. A cell
    size is the edge over a power of two, 2^-k included (met at step 0)."""
    problems = [
        f"script uses undefined mode {label!r}"
        for _, label in script.mode_times
        if label not in config.modes
    ]
    edge, datum = config.grid.edge_length, config.grid.datum
    # The drive stays in the keyframes' box; a lidar origin lies within its
    # mount offset of the pose, every other cell within the horizon.
    xs, ys = zip(*(k[1:3] for k in script.keyframes))
    low = min(min(xs) - datum[0], min(ys) - datum[1])
    high = max(max(xs) - datum[0], max(ys) - datum[1])
    mount = max((math.hypot(*lidar.mount) for lidar in config.lidars), default=0.0)
    for label, profile in config.modes.items():
        for name, demand in profile.demands.items():
            where = f"mode {label!r}: type {name!r}:"
            try:
                step = required_step(profile, name, edge)
            except ConfigError as exc:
                problems.append(f"{where} {exc}")
                continue
            cell = demand.max_cell_size_m
            # cell * 2^step / edge is 1, or 2^k for a coarser demand, within STEP_TOL
            mantissa = math.frexp(math.ldexp(cell, step) / edge)[0]
            if min(abs(2.0 * mantissa - 1.0), abs(1.0 - mantissa)) > STEP_TOL:
                problems.append(
                    f"{where} edge {edge} / cell size {cell} is not a power of two"
                )
                continue
            # Every patch the horizon disc reaches lies within edge * sqrt(2)
            # of the disc, so the disc reaches at most this many patches.
            # Sizes are floats: an overflow reads inf and is refused.
            reach = demand.horizon_m / edge + math.sqrt(2.0)
            patches = math.pi * reach * reach
            cells = patches * 4.0**step
            width = config.grid.cell_width(step)
            margin = demand.horizon_m + mount
            lo, hi = (low - margin) / width, (high + margin) / width
            if patches > MAX_HORIZON_PATCHES:
                problems.append(
                    f"{where} horizon {demand.horizon_m} m may reach {patches:.3g} "
                    f"patches of edge {edge} m, above {MAX_HORIZON_PATCHES}"
                )
            elif cells > MAX_DEMAND_CELLS:
                problems.append(
                    f"{where} cell size {cell} m needs step {step}: its "
                    f"{demand.horizon_m} m horizon may hold {cells:.3g} cells, "
                    f"above {MAX_DEMAND_CELLS}"
                )
            elif not (-CELL_RANGE <= lo and hi < CELL_RANGE):  # NaN is refused
                problems.append(
                    f"{where} the drive reaches cells {lo:.3g} to {hi:.3g} of "
                    f"{width} m from datum {datum}, outside the +-2^31 cell range"
                )
    if not 0.0 <= config.temporal_alpha <= 1.0:
        problems.append("[run] temporal_alpha must be in [0, 1]")
    if not (isinstance(config.seed, int) and config.seed >= 0):
        problems.append(f"[run] seed must be a nonnegative integer, not {config.seed!r}")
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

    def cells(self, src: str, type_name: str) -> int:
        """Cells ``src`` reported for ``type_name`` this cycle; 0 if none."""
        for st in self.stats:
            if st.src == src and st.type_name == type_name:
                return st.cells
        return 0

    def fused_cells(self, type_name: str) -> int:
        return self.cells(FUSED_SRC, type_name)


def uniform_patched_cell_count(
    center, datum, horizon_m: float, edge_length: float, step: int
) -> int:
    """Cells of a uniform-resolution patched layout covering the horizon disc.

    A patch of the lattice at ``datum`` counts where its gap to ``center``,
    computed as :func:`~apgm.requirements.patch_in_horizon` does, is within
    the horizon. With the gaps to the patch rows sorted, a column holds a
    prefix of the rows that shrinks as its own gap grows: O(reach) tests.
    """
    reach = int(math.ceil(horizon_m / edge_length)) + 1

    def gaps(c: float, d: float) -> list[float]:
        index = np.arange(-reach, reach + 1) + math.floor((c - d) / edge_length)
        lo = d + edge_length * index
        return np.sort(np.maximum(np.maximum(lo - c, 0.0), c - (lo + edge_length))).tolist()

    rows = gaps(float(center[1]), float(datum[1]))
    patches, n = 0, len(rows)
    for dx in gaps(float(center[0]), float(datum[0])):
        while n and math.hypot(dx, rows[n - 1]) > horizon_m:
            n -= 1
        patches += n
    return patches * (1 << (2 * step))


def occupancy_horizon(profile: RequirementProfile) -> float:
    """Occupancy horizon of a profile; 0 when occupancy is not demanded."""
    occ = profile.demands.get("occupancy")
    return occ.horizon_m if occ is not None and occ.active else 0.0


def uniform_reference_cells(
    profile: RequirementProfile, center, grid: GridConfig
) -> int:
    """Cells of the uniform-patched layout a profile is compared against.

    The layout covers the occupancy horizon disc around ``center`` at the
    profile's finest active resolution step, on the map's own patches.
    """
    edge = grid.edge_length
    finest = max(required_steps(profile, edge).values(), default=0)
    return uniform_patched_cell_count(
        center, grid.datum, occupancy_horizon(profile), edge, finest
    )


# -- runner -------------------------------------------------------------------


def map_step(
    live: GridMap,
    clouds,
    observation: SemanticObservation | None,
    profile: RequirementProfile,
    config: ScenarioConfig,
    counter: ConflictCounter | None = None,
) -> tuple[GridMap, list[SourceStat], float, MutationReport]:
    """One mapping cycle: build a grid per cloud (paired with
    ``config.lidars`` by position) and, given ``observation``, a semantic
    grid; age ``live`` in place by ``config.temporal_alpha`` (0 drops it);
    fold it first and the sensor grids after it, each type capped at its
    demanded step; realize ``profile``. Returns the new live map, each
    sensor grid's cells and bytes, the fold's ms (0 without
    ``config.measure_timing``) and the :class:`MutationReport`.
    """
    gc = config.grid
    if len(clouds) != len(config.lidars):
        raise InputShapeError(f"{len(clouds)} clouds for {len(config.lidars)} lidars")
    grids = [
        measurement_grid_occupancy(cloud, lidar, profile, gc)
        for cloud, lidar in zip(clouds, config.lidars)
    ]
    sources = [(lidar.name, "occupancy") for lidar in config.lidars]
    if observation is not None:
        grids.append(measurement_grid_semantic(observation, profile, gc, counter))
        sources.append((config.camera.name, "semantic"))
    stats = [
        SourceStat(name, type_name, g.cell_count(), g.memory_bytes())
        for (name, type_name), g in zip(sources, grids)
    ]

    # An empty map stands in when there is nothing to fold.
    steps = required_steps(profile, gc.edge_length)
    t0 = time.perf_counter()
    if config.temporal_alpha != 0.0:
        discount_grid(live, config.temporal_alpha)
        grids.insert(0, live)
    live = fuse_grids(grids or [GridMap(gc)], steps, counter)  # perfbench reads arg 3
    fuse_ms = (time.perf_counter() - t0) * 1e3 if config.measure_timing else 0.0
    return live, stats, fuse_ms, apply_requirements(live, profile)


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
    """Execute the scripted scenario cycle by cycle: simulate the sensors,
    run :func:`map_step` and record.

    ``on_cycle(record, grid, profile)`` is invoked after every cycle with
    the live map, letting callers check per-cycle invariants. The next
    cycle ages that map in place, so a caller that keeps it across cycles
    must copy it.
    """
    problems = validate_scenario(script, config)
    if problems:
        raise ConfigError(*problems)

    gc = config.grid
    counter = ConflictCounter()
    records: list[MetricsRecord] = []
    live = GridMap(gc)

    for i in range(script.n_cycles()):
        t = script.cycle_time(i)
        pose = script.pose_at(t)
        mode = script.mode_at(t)
        profile = config.modes[mode].with_pose(pose)
        clouds = [
            simulate_lidar(world, pose, lidar, np.random.default_rng((config.seed, i, si)))
            for si, lidar in enumerate(config.lidars)
        ]
        obs = None
        if "semantic" in profile.active_types():
            obs = simulate_camera(world, pose, config.camera)
        live, stats, fuse_ms, _ = map_step(live, clouds, obs, profile, config, counter)

        for name in profile.active_types():
            cells, nbytes = live.cell_count(name), live.memory_bytes(name)
            stats.append(SourceStat(FUSED_SRC, name, cells, nbytes))
        uniform = uniform_reference_cells(profile, pose, gc)
        for src, cells in (
            (REF_STATIC_SRC, REFERENCE_STATIC_CELLS),
            (REF_UNIFORM_SRC, uniform),
        ):
            stats.append(
                SourceStat(src, "occupancy", cells, cells * REFERENCE_BYTES_PER_CELL)
            )

        record = MetricsRecord(
            t, mode, occupancy_horizon(profile), stats, fuse_ms
        )
        records.append(record)
        if on_cycle is not None:
            on_cycle(record, live, profile)

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
    uniform = np.array([r.cells(REF_UNIFORM_SRC, "occupancy") for r in records], dtype=float)
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
