"""Situational requirements and their realization on a live grid map.

A requirement profile states, per information type, whether the type is
needed at all, out to which distance (horizon), at what worst-case cell
size, and optionally within which frontal field of view. Applying a
profile culls patches and layers that are no longer demanded and resamples
surviving layers to the demanded resolution step. Allocation itself stays
lazy: layers appear only where measurements arrive.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require
from .grid import MAX_STEP, GridConfig, GridMap
from .resample import resample_layer

STEP_TOL = 1e-9  # relative tolerance for cell size / edge length ratios


@dataclass(frozen=True)
class TypeRequirement:
    """Demand for one information type."""

    active: bool = True
    horizon_m: float = 20.0
    max_cell_size_m: float = 0.1
    fov_half_angle_rad: float | None = None

    def __post_init__(self):
        fov = self.fov_half_angle_rad
        require(
            (0.0 < self.horizon_m < math.inf, "horizon_m must be finite and positive"),
            (
                0.0 < self.max_cell_size_m < math.inf,
                "max_cell_size_m must be finite and positive",
            ),
            (
                fov is None or 0.0 <= fov <= math.pi,
                "fov_half_angle_rad must be None or in [0, pi]",
            ),
        )


@dataclass(frozen=True)
class RequirementProfile:
    """Per-type demands plus the vehicle pose they are anchored to."""

    demands: dict[str, TypeRequirement]
    vehicle_pose: tuple[float, float, float] = (0.0, 0.0, 0.0)  # x, y, heading

    def with_pose(self, pose) -> "RequirementProfile":
        return dataclasses.replace(
            self, vehicle_pose=(float(pose[0]), float(pose[1]), float(pose[2]))
        )

    def active_types(self) -> list[str]:
        return [t for t, d in self.demands.items() if d.active]


def required_step(
    profile: RequirementProfile, type_name: str, edge_length: float
) -> int:
    """Smallest resolution step, at most ``grid.MAX_STEP``, whose cell size
    meets the demand."""
    demand = profile.demands[type_name]
    target = demand.max_cell_size_m
    for r in range(MAX_STEP + 1):
        if edge_length / (1 << r) <= target * (1.0 + STEP_TOL):
            return r
    raise ConfigError(
        f"cell size {target} m unreachable from edge length {edge_length} m "
        f"within step {MAX_STEP} (grid.MAX_STEP)"
    )


def required_steps(profile: RequirementProfile, edge_length: float) -> dict[str, int]:
    """The demanded step of every active type: what fusion caps each type
    at and what :func:`apply_requirements` resamples it to."""
    return {t: required_step(profile, t, edge_length) for t in profile.active_types()}


# -- horizon / frustum geometry ---------------------------------------------


def _rect_min_distance(px: float, py: float, x0, y0, x1, y1) -> float:
    dx = max(x0 - px, 0.0, px - x1)
    dy = max(y0 - py, 0.0, py - y1)
    return math.hypot(dx, dy)


def wrap_angle(a):
    """Angle (float or array) wrapped to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


def in_view(demand: TypeRequirement, vehicle_pose, points) -> np.ndarray:
    """Mask of the (N, 2) ``points`` inside the demand's field of view: at
    most ``fov_half_angle_rad`` off the heading, seen from the vehicle.
    Every point is inside when the demand gives no view."""
    if demand.fov_half_angle_rad is None:
        return np.ones(len(points), dtype=bool)
    px, py, heading = vehicle_pose
    rel = points - np.array([px, py])
    ang = wrap_angle(np.arctan2(rel[:, 1], rel[:, 0]) - heading)
    return np.abs(ang) <= demand.fov_half_angle_rad


def _ray_hits_rect(px, py, angle, x0, y0, x1, y1) -> bool:
    """Slab test: does the ray from (px, py) along ``angle`` meet the box?"""
    dx = math.cos(angle)
    dy = math.sin(angle)
    tmin, tmax = 0.0, math.inf
    for d, p, lo, hi in ((dx, px, x0, x1), (dy, py, y0, y1)):
        if abs(d) < 1e-15:
            if p < lo or p > hi:
                return False
            continue
        t1 = (lo - p) / d
        t2 = (hi - p) / d
        if t1 > t2:
            t1, t2 = t2, t1
        tmin = max(tmin, t1)
        tmax = min(tmax, t2)
        if tmin > tmax:
            return False
    return True


def _wedge_intersects_rect(px, py, heading, half_angle, x0, y0, x1, y1) -> bool:
    if x0 <= px <= x1 and y0 <= py <= y1:
        return True
    for cx, cy in ((x0, y0), (x0, y1), (x1, y0), (x1, y1)):
        if abs(wrap_angle(math.atan2(cy - py, cx - px) - heading)) <= half_angle:
            return True
    for boundary in (heading - half_angle, heading + half_angle):
        if _ray_hits_rect(px, py, boundary, x0, y0, x1, y1):
            return True
    return False


def patch_in_horizon(
    index: tuple[int, int],
    config: GridConfig,
    profile: RequirementProfile,
    type_name: str,
) -> bool:
    """Whether the patch square is still demanded for this type."""
    demand = profile.demands.get(type_name)
    if demand is None or not demand.active:
        return False
    e = config.edge_length
    x0 = config.datum[0] + e * index[0]
    y0 = config.datum[1] + e * index[1]
    px, py, heading = profile.vehicle_pose
    if _rect_min_distance(px, py, x0, y0, x0 + e, y0 + e) > demand.horizon_m:
        return False
    if demand.fov_half_angle_rad is not None:
        return _wedge_intersects_rect(
            px,
            py,
            heading,
            demand.fov_half_angle_rad,
            x0,
            y0,
            x0 + e,
            y0 + e,
        )
    return True


# -- realization ---------------------------------------------------------------


@dataclass
class MutationReport:
    patches_deleted: int = 0
    layers_deleted: int = 0
    layers_resampled: int = 0

    @property
    def empty(self) -> bool:
        return (
            self.patches_deleted == 0
            and self.layers_deleted == 0
            and self.layers_resampled == 0
        )


def apply_requirements(grid: GridMap, profile: RequirementProfile) -> MutationReport:
    """Realize a profile on the grid in one pass: drop each layer no longer
    demanded (:func:`patch_in_horizon`) and each patch left empty, and
    resample every other layer to its type's demanded step."""
    report = MutationReport()
    steps = required_steps(profile, grid.config.edge_length)
    for index in list(grid.patches):
        patch = grid.patches[index]
        for type_name, layer in list(patch.layers.items()):
            if not patch_in_horizon(index, grid.config, profile, type_name):
                del patch.layers[type_name]
                report.layers_deleted += 1
            elif layer.step != steps[type_name]:
                patch.layers[type_name] = resample_layer(layer, steps[type_name])
                report.layers_resampled += 1
        if not patch.layers:
            grid.delete_patch(index)
            report.patches_deleted += 1
    return report
