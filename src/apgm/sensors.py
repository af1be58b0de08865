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

Both builders write masses into one patch-aligned window bounding the scan
and cut it into one layer per touched patch. Occupancy counts ray
crossings with ``np.bincount`` over the cell box in which
``kernels.traverse_rays`` numbers them, reads each cell's free mass from a
table indexed by crossing count and writes the box into the window with
one slice; the few cells holding returns take their occupied mass from a
table indexed by hit count. Semantics encodes the kept points' labels to
frame indices with a dict and groups points with ``np.unique`` over
window numbers.

Builders are pure producers: every call returns a private grid map, so
multiple sensor grids can be built concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import (
    CellOutOfBoundsError,
    InputShapeError,
    NonFiniteInputError,
    UnknownHypothesisError,
    require,
)
from .evidence import ConflictCounter, combine_mass_arrays
from .grid import (
    GridConfig,
    GridMap,
    Layer,
    cell_units,
    global_cells_of,
    split_global_cells,
)
from .kernels import CELL_RANGE, box_cells, ray_cell_cap, total_conflict, traverse_rays
from .requirements import RequirementProfile, required_step, wrap_angle


@dataclass(frozen=True)
class SensorModelParams:
    """Cell-invariant sensor model for point returns and ray free space."""

    mu_hit: float = 0.6
    mu_free: float = 0.3
    max_range: float = 100.0

    def __post_init__(self, *checks: tuple[bool, str]):
        """Refuse bad model fields, and a subclass's own ``checks``, in one
        :class:`ConfigError`."""
        require(
            (0.0 < self.mu_hit <= 1.0, "mu_hit must be in (0, 1]"),
            (0.0 < self.mu_free < 1.0, "mu_free must be in (0, 1)"),
            (self.max_range > 0.0, "max_range must be positive"),
            *checks,
        )


def _as_shape(values, shape: tuple[int, ...], what: str) -> np.ndarray:
    """``values`` as a float64 array of ``shape``, in which -1 is any length
    N and an empty input has N = 0. Any other shape raises
    :class:`InputShapeError`: a flat reshape would pair values silently."""
    want = str(tuple("N" if n < 0 else str(n) for n in shape)).replace("'", "")
    try:
        a = np.asarray(values, dtype=np.float64)
    except ValueError:  # ragged nesting, or a value that is not a number
        raise InputShapeError(f"{what} must be numbers of shape {want}") from None
    if a.size == 0 and -1 in shape:
        a = a.reshape([max(n, 0) for n in shape])
    if a.ndim != len(shape) or any(n not in (-1, m) for m, n in zip(a.shape, shape)):
        raise InputShapeError(f"{what} must have shape {want}, not {a.shape}")
    return a


@dataclass
class PointCloud:
    """Ground-projected returns of one scan."""

    origin: np.ndarray  # (2,)
    points: np.ndarray  # (N, 2)

    def __post_init__(self):
        self.origin = _as_shape(self.origin, (2,), "cloud origin")
        self.points = _as_shape(self.points, (-1, 2), "cloud points")
        if not (np.isfinite(self.origin).all() and np.isfinite(self.points).all()):
            raise NonFiniteInputError("cloud origin or points hold a NaN or inf")


@dataclass
class SemanticObservation:
    """Labeled ground points within the camera frustum."""

    points: np.ndarray  # (N, 2)
    labels: list[str]
    confidences: np.ndarray  # (N,)

    def __post_init__(self):
        self.points = _as_shape(self.points, (-1, 2), "observation points")
        self.confidences = _as_shape(self.confidences, (-1,), "confidences")
        if isinstance(self.labels, (str, bytes)):
            # list() would split one label into its characters.
            raise InputShapeError(
                f"labels must be one label per point, not a single "
                f"{type(self.labels).__name__} {self.labels!r}"
            )
        self.labels = list(self.labels)
        if not (len(self.points) == len(self.labels) == len(self.confidences)):
            raise InputShapeError(
                f"{len(self.points)} points, {len(self.labels)} labels and "
                f"{len(self.confidences)} confidences must align"
            )
        if not (np.isfinite(self.points).all() and np.isfinite(self.confidences).all()):
            raise NonFiniteInputError("points or confidences hold a NaN or inf")


def occupancy_evidence(k, params: SensorModelParams):
    """Occupied mass of a cell holding k returns (scalar or array k)."""
    return 1.0 - (1.0 - params.mu_hit) ** np.asarray(k, dtype=np.float64)


class _Window:
    """Patch-aligned block of cells, numbered x-major, covering the
    inclusive cell bounds ``lo`` to ``hi``."""

    def __init__(self, lo, hi, step: int):
        lo, hi = [int(v) for v in lo], [int(v) for v in hi]
        if min(lo) < -CELL_RANGE or max(hi) >= CELL_RANGE:
            raise CellOutOfBoundsError(
                f"cells span {lo} to {hi}, outside the +-2^31 cell range"
            )
        self.step = step
        self.m = 1 << step
        self.px, self.py = (v >> step for v in lo)
        self.nx, self.ny = ((h >> step) - (v >> step) + 1 for v, h in zip(lo, hi))
        self.size = self.nx * self.ny * self.m * self.m

    def flat(self, xs, ys):
        return (xs - self.px * self.m) * (self.ny * self.m) + (ys - self.py * self.m)

    def over_box(self, values, box):
        """The (nx, ny, ...) view of window-flat ``values`` over a
        traversal box (see :func:`~apgm.kernels.traverse_rays`)."""
        x0, y0, nx, ny = (int(v) for v in box)
        i, j = x0 - self.px * self.m, y0 - self.py * self.m
        grid = values.reshape(self.nx * self.m, self.ny * self.m, *values.shape[1:])
        return grid[i : i + nx, j : j + ny]

    def to_layers(self, grid, type_name, touched, masses) -> None:
        """One layer per patch holding a touched cell; masses per flat cell."""
        m = self.m
        blocks = masses.reshape(self.nx, m, self.ny, m, -1)
        frame = grid.config.frame_of(type_name)
        hit = touched.reshape(self.nx, m, self.ny, m).any(axis=(1, 3))
        for i, j in zip(*np.nonzero(hit)):
            layer = Layer(type_name, frame, self.step, blocks[i, :, j].copy())
            grid.set_layer((self.px + int(i), self.py + int(j)), layer)


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
    hit_mask, ends = _clip_to_horizon(origin, pts, vehicle, demand.horizon_m)
    if len(ends) == 0:
        return grid

    # Returns inside the horizon carry occupancy evidence; every ray marks
    # the cells between its origin cell and endpoint cell.
    hit_cells = global_cells_of(ends[hit_mask], config.datum, width)
    su, sv = (np.full(len(ends), c) for c in cell_units(origin, config.datum, width))
    eu, ev = cell_units(ends, config.datum, width)
    crossed, box = traverse_rays(su, sv, eu, ev, ray_cell_cap(su, sv, eu, ev))

    # A cell's mass depends only on its counts, so it is read from tables
    # indexed by count. Crossings are counted over the traversal box and
    # their free masses written into the window with one slice; the few
    # cells holding returns then get their occupied mass and no free mass.
    # The box holds every ray's end cell (eu, ev), so every hit cell too.
    # Spent arrays are freed early: this builder's peak sets the process peak.
    window = _Window(box[:2], box[:2] + box[2:] - 1, step)
    crossings = np.bincount(crossed, minlength=box[2] * box[3]).reshape(box[2:])
    del crossed
    free_mass = 1.0 - (1.0 - params.mu_free) ** np.arange(len(ends) + 1)
    masses = np.zeros((window.size, 2), dtype=np.float32)
    window.over_box(masses, box)[..., 1] = free_mass.astype(np.float32)[crossings]
    touched = np.zeros(window.size, dtype=bool)
    window.over_box(touched, box)[...] = crossings > 0
    del crossings
    occupied, hits = np.unique(window.flat(*hit_cells.T), return_counts=True)
    occ_mass = occupancy_evidence(np.arange(len(hit_cells) + 1), params)
    masses[occupied, 0] = occ_mass.astype(np.float32)[hits]
    masses[occupied, 1] = 0.0
    touched[occupied] = True
    window.to_layers(grid, "occupancy", touched, masses)
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
        ang = wrap_angle(np.arctan2(rel[:, 1], rel[:, 0]) - heading)
        keep &= np.abs(ang) <= demand.fov_half_angle_rad
    pts = obs.points[keep]
    if len(pts) == 0:
        return grid
    code = {name: j for j, name in enumerate(frame.hypotheses)}
    try:
        label_idx = np.array(
            [code[name] for name in compress(obs.labels, keep.tolist())],
            dtype=np.int64,
        )
    except KeyError as exc:
        raise UnknownHypothesisError(
            f"{exc.args[0]!r} is not in frame {frame.hypotheses}"
        ) from None
    conf = np.clip(obs.confidences[keep], 0.0, 1.0)

    cells = global_cells_of(pts, config.datum, width)
    # Per column: numpy reduces (N, 2) along axis 0 as N two-element loops.
    window = _Window([c.min() for c in cells.T], [c.max() for c in cells.T], step)
    uniq, inverse = np.unique(window.flat(*cells.T), return_inverse=True)

    # Same-label evidence in a cell folds to 1 - prod(1 - c); accumulate in
    # log space, then combine the per-label aggregates with Dempster's rule.
    # The fold starts from the first label's masses: combining them with a
    # vacuous start returns them bit for bit and meets no conflict.
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-conf)
    agg = np.zeros((len(uniq), len(frame)))
    np.add.at(agg, (inverse, label_idx), log_miss)
    label_mass = 1.0 - np.exp(agg)

    acc = np.zeros_like(label_mass)
    acc[:, 0] = label_mass[:, 0]
    for j in range(1, len(frame)):
        single = np.zeros_like(label_mass)
        single[:, j] = label_mass[:, j]
        acc, conflict = combine_mass_arrays(acc, single)
        dead = total_conflict(conflict)
        if counter is not None and np.any(dead):
            counter.add(int(dead.sum()))

    masses = np.zeros((window.size, len(frame)), dtype=np.float32)
    masses[uniq] = acc
    touched = np.zeros(window.size, dtype=bool)
    touched[uniq] = True
    window.to_layers(grid, "semantic", touched, masses)
    return grid


def ray_traverse(origin, endpoint, config: GridConfig, step: int):
    """Cells strictly between the origin cell and the endpoint cell.

    Returns an ordered list of ((patch index), (cell index)) pairs; both
    end cells are excluded, and exact corner crossings step diagonally.
    """
    width = config.cell_width(step)
    su, sv = cell_units(np.reshape(origin, (1, 2)), config.datum, width)
    eu, ev = cell_units(np.reshape(endpoint, (1, 2)), config.datum, width)
    crossed, box = traverse_rays(su, sv, eu, ev, ray_cell_cap(su, sv, eu, ev))
    cells = np.stack(box_cells(crossed, box), axis=1)
    patch_idx, local = split_global_cells(cells, step)
    return [
        ((int(patch_idx[i, 0]), int(patch_idx[i, 1])), (int(local[i, 0]), int(local[i, 1])))
        for i in range(len(cells))
    ]


def load_point_file(path, origin=(0.0, 0.0)):
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
    return PointCloud(np.asarray(origin, dtype=np.float64), np.array(pts))
