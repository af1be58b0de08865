"""Per-sensor measurement grid maps.

Occupancy evidence follows the grid measurement model: a cell holding k
returns gets m(occupied) = 1 - (1 - mu_hit)^k, and every ray marks the
cells it crosses with free evidence, but never cells that hold a return
(free space is only considered in non-occupied cells). Rays are clipped at
the requirement horizon so nothing is allocated beyond it.

Semantic evidence rasterizes labeled ground points into the camera
frustum; each point is a simple support assignment (its confidence on the
label, the rest on the frame) and points in one cell are folded with
Dempster's rule.

Builders are pure producers: every call returns a private grid map, so
multiple sensor grids can be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CellOutOfBoundsError
from .evidence import ALGEBRA_TOL, ConflictCounter, combine_mass_arrays
from .grid import (
    GridConfig,
    GridMap,
    global_cells_of,
    split_global_cells,
)
from .kernels import ray_cell_cap, traverse_rays
from .requirements import RequirementProfile, required_step

# Cell keys pack biased x and y into the high and low 32 bits of a uint64,
# so key order is (x, y) lexicographic order.
_KEY_BIAS = 1 << 31
_LOW_BITS = np.uint64(0xFFFFFFFF)
_SHIFT = np.uint64(32)


@dataclass
class SensorModelParams:
    """Cell-invariant sensor model for point returns and ray free space."""

    mu_hit: float = 0.6
    mu_free: float = 0.3
    max_range: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.mu_hit <= 1.0:
            raise ValueError("mu_hit must be in (0, 1]")
        if not 0.0 < self.mu_free < 1.0:
            raise ValueError("mu_free must be in (0, 1)")
        if self.max_range <= 0.0:
            raise ValueError("max_range must be positive")


@dataclass
class PointCloud:
    """Ground-projected returns of one scan."""

    origin: np.ndarray
    points: np.ndarray  # (N, 2)
    timestamp: float = 0.0

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=np.float64).reshape(2)
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)


@dataclass
class SemanticObservation:
    """Labeled ground points within the camera frustum."""

    points: np.ndarray  # (N, 2)
    labels: list[str]
    confidences: np.ndarray  # (N,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 2)
        self.confidences = np.asarray(self.confidences, dtype=np.float64).reshape(-1)
        self.labels = list(self.labels)
        if not (len(self.points) == len(self.labels) == len(self.confidences)):
            raise ValueError("points, labels and confidences must align")


def occupancy_evidence(k, params: SensorModelParams):
    """Occupied mass of a cell holding k returns (scalar or array k)."""
    return 1.0 - (1.0 - params.mu_hit) ** np.asarray(k, dtype=np.float64)


def _encode_cells(cells: np.ndarray) -> np.ndarray:
    """One uint64 key per (x, y) row; raises beyond +-2^31 cells per axis."""
    if len(cells) and (cells.min() < -_KEY_BIAS or cells.max() >= _KEY_BIAS):
        raise CellOutOfBoundsError(
            f"cell coordinates span [{cells.min()}, {cells.max()}], "
            f"outside the +-2^31 key range"
        )
    biased = (cells + _KEY_BIAS).astype(np.uint64)
    return (biased[:, 0] << _SHIFT) | biased[:, 1]


def _decode_cells(keys: np.ndarray) -> np.ndarray:
    x = (keys >> _SHIFT).astype(np.int64) - _KEY_BIAS
    y = (keys & _LOW_BITS).astype(np.int64) - _KEY_BIAS
    return np.stack([x, y], axis=1)


def _scatter_channel(grid, step, type_name, cells, values, channel) -> None:
    """Write per-cell masses into lazily allocated layers, grouped by patch."""
    if len(cells) == 0:
        return
    patch_idx, local = split_global_cells(cells, step)
    keys = _encode_cells(patch_idx)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    patch_idx = patch_idx[order]
    local = local[order]
    values = np.asarray(values)[order]
    starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]])
    bounds = np.append(starts, len(keys))
    for i in range(len(starts)):
        s, e = bounds[i], bounds[i + 1]
        index = (int(patch_idx[s, 0]), int(patch_idx[s, 1]))
        layer = grid.get_or_create_layer(index, type_name, step)
        layer.masses[local[s:e, 0], local[s:e, 1], channel] = values[s:e].astype(
            np.float32
        )


def _clip_to_horizon(origin, points, vehicle, horizon):
    """Clip ray endpoints to the horizon disc around the vehicle.

    Returns (hit_mask, endpoints): endpoints equal the points where they
    lie inside the disc, otherwise the ray/disc boundary intersection.
    Rays that never enter the disc are dropped from both outputs.
    """
    rel = points - vehicle
    dist = np.hypot(rel[:, 0], rel[:, 1])
    hit = dist <= horizon
    ends = points.copy()
    far = ~hit
    if np.any(far):
        d = points[far] - origin
        o_rel = origin - vehicle
        a = (d * d).sum(axis=1)
        b = d @ o_rel
        c = float(o_rel @ o_rel) - horizon * horizon
        disc = b * b - a * c
        ok = (disc >= 0.0) & (a > 0.0) & (c <= 0.0)
        t = np.zeros(len(d))
        t[ok] = (-b[ok] + np.sqrt(disc[ok])) / a[ok]
        ends[far] = origin + t[:, None] * d
        keep = np.ones(len(points), dtype=bool)
        keep_far = ok & (t > 0.0)
        keep[far] = keep_far
        return hit[keep], ends[keep]
    return hit, ends


def measurement_grid_occupancy(
    cloud: PointCloud,
    params: SensorModelParams,
    profile: RequirementProfile,
    config: GridConfig,
) -> GridMap:
    """Rasterize one point cloud into a fresh occupancy measurement grid."""
    grid = GridMap(config)
    demand = profile.demands.get("occupancy")
    if demand is None or not demand.active or len(cloud.points) == 0:
        return grid
    step = required_step(profile, "occupancy", config.edge_length)
    width = config.cell_width(step)
    origin = cloud.origin
    vehicle = np.asarray(profile.vehicle_pose[:2], dtype=np.float64)

    pts = cloud.points
    rng = np.hypot(pts[:, 0] - origin[0], pts[:, 1] - origin[1])
    pts = pts[rng <= params.max_range + 1e-9]
    if len(pts) == 0:
        return grid
    hit_mask, ends = _clip_to_horizon(origin, pts, vehicle, demand.horizon_m)
    if len(ends) == 0:
        return grid

    # Returns inside the horizon carry occupancy evidence.
    hit_cells = global_cells_of(ends[hit_mask], config.datum, width)
    if len(hit_cells):
        hit_keys, counts = np.unique(_encode_cells(hit_cells), return_counts=True)
        occ_mass = occupancy_evidence(counts, params)
    else:
        hit_keys = np.empty(0, dtype=np.uint64)
        occ_mass = np.empty(0)

    # Every ray marks the cells between its origin cell and endpoint cell.
    su = np.full(len(ends), (origin[0] - config.datum[0]) / width)
    sv = np.full(len(ends), (origin[1] - config.datum[1]) / width)
    eu = (ends[:, 0] - config.datum[0]) / width
    ev = (ends[:, 1] - config.datum[1]) / width
    cap = ray_cell_cap(su, sv, eu, ev)
    fx, fy = traverse_rays(su, sv, eu, ev, cap)
    free_keys = np.empty(0, dtype=np.uint64)
    free_mass = np.empty(0)
    if len(fx):
        crossed = _encode_cells(np.stack([fx, fy], axis=1))
        free_keys, crossings = np.unique(crossed, return_counts=True)
        clear = ~np.isin(free_keys, hit_keys)
        free_keys = free_keys[clear]
        free_mass = 1.0 - (1.0 - params.mu_free) ** crossings[clear]

    _scatter_channel(grid, step, "occupancy", _decode_cells(hit_keys), occ_mass, 0)
    _scatter_channel(grid, step, "occupancy", _decode_cells(free_keys), free_mass, 1)
    return grid


def measurement_grid_semantic(
    obs: SemanticObservation,
    profile: RequirementProfile,
    config: GridConfig,
    counter: ConflictCounter | None = None,
) -> GridMap:
    """Rasterize labeled ground points into a fresh semantic grid."""
    grid = GridMap(config)
    demand = profile.demands.get("semantic")
    if demand is None or not demand.active or len(obs.points) == 0:
        return grid
    frame = config.frame_of("semantic")
    step = required_step(profile, "semantic", config.edge_length)
    width = config.cell_width(step)

    px, py, heading = profile.vehicle_pose
    rel = obs.points - np.array([px, py])
    keep = np.hypot(rel[:, 0], rel[:, 1]) <= demand.horizon_m
    if demand.fov_half_angle_rad is not None:
        ang = np.arctan2(rel[:, 1], rel[:, 0]) - heading
        ang = (ang + np.pi) % (2.0 * np.pi) - np.pi
        keep &= np.abs(ang) <= demand.fov_half_angle_rad
    pts = obs.points[keep]
    if len(pts) == 0:
        return grid
    names, label_of_point = np.unique(np.asarray(obs.labels)[keep], return_inverse=True)
    frame_idx = np.array([frame.index(str(name)) for name in names], dtype=np.int64)
    label_idx = frame_idx[label_of_point]
    conf = np.clip(obs.confidences[keep], 0.0, 1.0)

    cells = global_cells_of(pts, config.datum, width)
    keys = _encode_cells(cells)
    uniq, inverse = np.unique(keys, return_inverse=True)

    # Same-label evidence in a cell folds to 1 - prod(1 - c); accumulate in
    # log space, then combine the per-label aggregates with Dempster's rule.
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-conf)
    agg = np.zeros((len(uniq), len(frame)))
    np.add.at(agg, (inverse, label_idx), log_miss)
    label_mass = 1.0 - np.exp(agg)

    acc = np.zeros_like(label_mass)
    for j in range(len(frame)):
        single = np.zeros_like(label_mass)
        single[:, j] = label_mass[:, j]
        acc, conflict = combine_mass_arrays(acc, single)
        dead = conflict >= 1.0 - ALGEBRA_TOL
        if counter is not None and np.any(dead):
            counter.add(int(dead.sum()))

    decoded = _decode_cells(uniq)
    for j in range(len(frame)):
        _scatter_channel(grid, step, "semantic", decoded, acc[:, j], j)
    return grid


def ray_traverse(origin, endpoint, config: GridConfig, step: int):
    """Cells strictly between the origin cell and the endpoint cell.

    Returns an ordered list of ((patch index), (cell index)) pairs; both
    end cells are excluded, and exact corner crossings step diagonally.
    """
    width = config.cell_width(step)
    su = np.array([(origin[0] - config.datum[0]) / width])
    sv = np.array([(origin[1] - config.datum[1]) / width])
    eu = np.array([(endpoint[0] - config.datum[0]) / width])
    ev = np.array([(endpoint[1] - config.datum[1]) / width])
    xs, ys = traverse_rays(su, sv, eu, ev, ray_cell_cap(su, sv, eu, ev))
    cells = np.stack([xs, ys], axis=1)
    patch_idx, local = split_global_cells(cells, step)
    return [
        ((int(patch_idx[i, 0]), int(patch_idx[i, 1])), (int(local[i, 0]), int(local[i, 1])))
        for i in range(len(cells))
    ]


def load_point_file(path, origin=(0.0, 0.0), timestamp: float = 0.0):
    """Read the fixture text format: one `x y [label confidence]` per line.

    Lines with two fields load as a :class:`PointCloud`; lines with four
    fields load as a :class:`SemanticObservation`. Blank lines and lines
    starting with '#' are skipped.
    """
    pts: list[tuple[float, float]] = []
    labels: list[str] = []
    confs: list[float] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) == 2:
            pts.append((float(fields[0]), float(fields[1])))
        elif len(fields) == 4:
            pts.append((float(fields[0]), float(fields[1])))
            labels.append(fields[2])
            confs.append(float(fields[3]))
        else:
            raise ValueError(f"malformed point line: {raw!r}")
    if labels and len(labels) != len(pts):
        raise ValueError("mixed labeled and unlabeled point lines")
    if labels:
        return SemanticObservation(np.array(pts), labels, np.array(confs))
    return PointCloud(np.asarray(origin, dtype=np.float64), np.array(pts), timestamp)
