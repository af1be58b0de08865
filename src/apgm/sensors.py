"""Per-sensor measurement grid maps.

Occupancy evidence follows the grid measurement model: a cell holding k
returns gets m(occupied) = 1 - (1 - mu_hit)^k, and every ray marks the
cells it crosses with free evidence, but never cells that hold a return
(free space is only considered in non-occupied cells). Rays are clipped at
the requirement horizon so nothing is allocated beyond it; a ray counts
only if its clipped end lies in the demand's view (``in_view``).

Semantic evidence rasterizes labeled ground points into the camera
frustum; each point is a simple support assignment (its confidence on the
label, the rest on the frame) and points in one cell are folded with
Dempster's rule.

Both builders number the scan's cells patch by patch in a patch-aligned
window bounding the scan and give each touched patch a fresh layer, so
memory follows the touched patches, not the window. Occupancy counts ray
crossings with ``np.bincount`` over the cell box in which
``kernels.traverse_rays`` numbers them, reads each cell's free mass from a
table indexed by crossing count and copies each touched patch's part of
the box with one slice; the few cells holding returns take their
occupied mass from a table indexed by hit count. Semantics encodes the
kept points' labels to frame indices with a dict, groups points with
``np.unique`` over cell numbers and folds with Dempster's rule only the
cells where two or more labels hold mass.

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
from .evidence import ConflictCounter
from .grid import (
    GridConfig,
    GridMap,
    Layer,
    cell_units,
    global_cells_of,
    split_global_cells,
)
from .kernels import CELL_RANGE, box_cells, fold_masses, ray_cell_cap, traverse_rays
from .requirements import RequirementProfile, in_view, required_step


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
    """Patch-aligned block of patches covering the inclusive cell bounds
    ``lo`` to ``hi``; patches are numbered x-major."""

    def __init__(self, lo, hi, step: int):
        lo, hi = [int(v) for v in lo], [int(v) for v in hi]
        self.step = step
        self.m = 1 << step
        self.px, self.py = (v >> step for v in lo)
        self.nx, self.ny = ((h >> step) - (v >> step) + 1 for v, h in zip(lo, hi))
        # Cell numbers are int64; a larger window would wrap them.
        cells = self.nx * self.ny << 2 * step
        if min(lo) < -CELL_RANGE or max(hi) >= CELL_RANGE or cells >> 62:
            raise CellOutOfBoundsError(
                f"cells span {lo} to {hi}, outside the +-2^31 cell range "
                f"or over 2^62 cells"
            )

    def number(self, xs, ys):
        """Patch-major cell numbers: the patch number times m * m plus the
        x-major cell index inside the patch, so sorting groups by patch."""
        s, low = self.step, self.m - 1
        patch = ((xs >> s) - self.px) * self.ny + ((ys >> s) - self.py)
        return (((patch << s) + (xs & low)) << s) + (ys & low)

    def to_patches(self, grid, type_name, patches, cells, rows) -> list:
        """Set a fresh layer into ``grid`` at each patch number in
        ``patches`` (ascending), holding ``rows`` at its ``cells``
        (ascending :meth:`number`); returns the layers' masses."""
        frame = grid.config.frame_of(type_name)
        area = self.m * self.m
        lo = np.searchsorted(cells, patches * area).tolist()
        hi = np.searchsorted(cells, (patches + 1) * area).tolist()
        local = cells & (area - 1)
        out = []
        for p, a, b in zip(patches.tolist(), lo, hi):
            layer = Layer(type_name, frame, self.step)
            layer.masses.reshape(area, -1)[local[a:b]] = rows[a:b]
            grid.set_layer((self.px + p // self.ny, self.py + p % self.ny), layer)
            out.append(layer.masses)
        return out


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
    keep[far] = ok & (t > 0.0)
    return hit[keep], ends[keep]


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
    view = in_view(demand, profile.vehicle_pose, ends)
    hit_mask, ends = hit_mask[view], ends[view]
    if len(ends) == 0:
        return grid

    # Returns inside the horizon carry occupancy evidence; every ray marks
    # the cells between its origin cell and endpoint cell.
    su, sv = (np.full(len(ends), c) for c in cell_units(*origin, config.datum, width))
    eu, ev = cell_units(ends[:, 0], ends[:, 1], config.datum, width)
    crossed, box = traverse_rays(su, sv, eu, ev, ray_cell_cap(su, sv, eu, ev))

    # A cell's mass depends only on its counts, so it is read from tables
    # indexed by count. Crossings are counted over the traversal box and
    # their free masses read for the whole box at once; cells holding
    # returns get their occupied mass and no free mass, in the box too, so
    # each patch's part of the box may be copied after its returns. Hit
    # cells are binned from the ray-end units (eu, ev) the walk took, so
    # the box holds every one of them by construction. Spent arrays are
    # freed early: this builder's peak sets the process peak.
    hx, hy = (np.floor(w[hit_mask]).astype(np.int64) for w in (eu, ev))
    x0, y0, nx, ny = (int(v) for v in box)
    window = _Window((x0, y0), (x0 + nx - 1, y0 + ny - 1), step)
    m = window.m
    crossings = np.bincount(crossed, minlength=nx * ny).reshape(nx, ny)
    del crossed
    free_mass = 1.0 - (1.0 - params.mu_free) ** np.arange(len(ends) + 1)
    free = free_mass.astype(np.float32)[crossings]
    free[hx - x0, hy - y0] = 0.0
    # A patch is touched where a box cell holds a crossing or a return.
    bx, by = x0 - window.px * m, y0 - window.py * m
    touched = np.zeros((window.nx * m, window.ny * m), dtype=bool)
    touched[bx : bx + nx, by : by + ny] = crossings > 0
    del crossings
    touched[hx - window.px * m, hy - window.py * m] = True
    patches = np.flatnonzero(touched.reshape(window.nx, m, window.ny, m).any(axis=(1, 3)))
    occupied, hits = np.unique(window.number(hx, hy), return_counts=True)
    rows = np.zeros((len(occupied), 2), dtype=np.float32)
    rows[:, 0] = occupancy_evidence(np.arange(len(hx) + 1), params)[hits]
    layers = window.to_patches(grid, "occupancy", patches, occupied, rows)
    for p, masses in zip(patches.tolist(), layers):
        x, y = p // window.ny * m - bx, p % window.ny * m - by
        part = free[max(x, 0) : x + m, max(y, 0) : y + m]
        masses[max(-x, 0) :, max(-y, 0) :][: part.shape[0], : part.shape[1], 1] = part
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

    rel = obs.points - np.array(profile.vehicle_pose[:2])
    keep = np.hypot(rel[:, 0], rel[:, 1]) <= demand.horizon_m
    keep &= in_view(demand, profile.vehicle_pose, obs.points)
    pts = obs.points[keep]
    if len(pts) == 0:
        return grid
    code = {name: j for j, name in enumerate(frame.hypotheses)}
    try:
        label_idx = np.fromiter(
            map(code.__getitem__, compress(obs.labels, keep.tolist())),
            dtype=np.int64,
            count=len(pts),
        )
    except KeyError as exc:
        raise UnknownHypothesisError(
            f"{exc.args[0]!r} is not in frame {frame.hypotheses}"
        ) from None
    conf = np.clip(obs.confidences[keep], 0.0, 1.0)

    cells = global_cells_of(pts, config.datum, width)
    # Per column: numpy reduces (N, 2) along axis 0 as N two-element loops.
    window = _Window([c.min() for c in cells.T], [c.max() for c in cells.T], step)
    uniq, inverse = np.unique(window.number(*cells.T), return_inverse=True)

    # Same-label evidence in a cell folds to 1 - prod(1 - c); accumulate in
    # log space (np.bincount adds in input order from +0.0, as a loop would).
    k = len(frame)
    with np.errstate(divide="ignore"):
        log_miss = np.log1p(-conf)
    agg = np.bincount(inverse * k + label_idx, weights=log_miss, minlength=len(uniq) * k)
    label_mass = 1.0 - np.exp(agg.reshape(-1, k))

    # Only cells where two or more labels hold mass are folded with
    # Dempster's rule (block j holds label j in column j). Any other row
    # sums to at most 1 and holds no -0.0, so the fold would return it bit
    # for bit at conflict 0 (see kernels.combine_masses).
    mixed = np.flatnonzero(np.count_nonzero(label_mass, axis=1) > 1)
    singles = np.zeros((k, len(mixed), k))
    for j in range(k):
        singles[j, :, j] = label_mass[mixed, j]
    dead = fold_masses(singles)
    label_mass[mixed] = singles[0]
    if counter is not None:
        counter.add(dead)

    patches = np.unique(uniq >> (2 * step))
    window.to_patches(grid, "semantic", patches, uniq, label_mass.astype(np.float32))
    return grid


def ray_traverse(origin, endpoint, config: GridConfig, step: int):
    """Cells strictly between the origin cell and the endpoint cell.

    Returns an ordered list of ((patch index), (cell index)) pairs; both
    end cells are excluded, and exact corner crossings step diagonally.
    """
    width = config.cell_width(step)
    su, sv = cell_units(*np.reshape(origin, (2, 1)), config.datum, width)
    eu, ev = cell_units(*np.reshape(endpoint, (2, 1)), config.datum, width)
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
    starting with '#' are skipped. A line of another field count, a field
    that is not a number where one is due, or labeled and unlabeled lines
    in one file raise :class:`InputShapeError`.
    """
    pts: list[tuple[float, float]] = []
    labels: list[str] = []
    confs: list[float] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (2, 4):
            raise InputShapeError(f"malformed point line: {raw!r}")
        try:
            values = [float(v) for v in fields[:2] + fields[3:]]
        except ValueError:
            raise InputShapeError(f"unparseable point line: {raw!r}") from None
        pts.append((values[0], values[1]))
        if len(fields) == 4:
            labels.append(fields[2])
            confs.append(values[2])
    if labels and len(labels) != len(pts):
        raise InputShapeError("mixed labeled and unlabeled point lines")
    if labels:
        return SemanticObservation(np.array(pts), labels, np.array(confs))
    return PointCloud(np.asarray(origin, dtype=np.float64), np.array(pts))
