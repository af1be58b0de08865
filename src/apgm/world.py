"""Synthetic static world for the evaluation scenario.

Obstacles are axis-aligned rectangles and bare wall segments; semantic
ground truth is a list of labeled polygons checked in order (first match
wins). Labelling tests each region only against the points no earlier
region claimed that lie within the region's bounds, so the work follows
the points a region can hold rather than regions times points. The
default world is a parking lot joined by a walled road corridor to a
second lot, sized so a full run finishes in seconds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonFiniteInputError
from .grid import BLOCKED, MARKING, ROAD, UNKNOWN


@dataclass(frozen=True)
class Rect:
    x0: float
    y0: float
    x1: float
    y1: float

    def segments(self) -> list[tuple[float, float, float, float]]:
        return [
            (self.x0, self.y0, self.x1, self.y0),
            (self.x1, self.y0, self.x1, self.y1),
            (self.x1, self.y1, self.x0, self.y1),
            (self.x0, self.y1, self.x0, self.y0),
        ]

    def as_polygon(self) -> np.ndarray:
        return np.array(
            [
                (self.x0, self.y0),
                (self.x1, self.y0),
                (self.x1, self.y1),
                (self.x0, self.y1),
            ]
        )


@dataclass(frozen=True)
class SemanticRegion:
    """A labelled polygon. ``polygon`` is a read-only copy, so its
    bounding cut (:func:`_bounding_cut`), computed once, cannot go stale."""

    polygon: np.ndarray  # (P, 2) vertices
    label: str
    cut: tuple[float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        polygon = np.array(self.polygon, dtype=np.float64)
        if polygon.ndim != 2 or polygon.shape[1] != 2 or len(polygon) < 3:
            raise ValueError("a region polygon is a (P, 2) array, P >= 3")
        if not np.isfinite(polygon).all():
            raise NonFiniteInputError("a region polygon holds a NaN or inf vertex")
        polygon.flags.writeable = False
        object.__setattr__(self, "polygon", polygon)
        object.__setattr__(self, "cut", _bounding_cut(polygon))


@dataclass
class WorldModel:
    obstacles: list[Rect] = field(default_factory=list)
    walls: list[tuple[float, float, float, float]] = field(default_factory=list)
    regions: list[SemanticRegion] = field(default_factory=list)

    def segments(self) -> np.ndarray:
        """All obstacle edges as an (M, 4) array of x0 y0 x1 y1 rows."""
        segs = list(self.walls)
        for rect in self.obstacles:
            segs.extend(rect.segments())
        if not segs:
            return np.empty((0, 4))
        return np.asarray(segs, dtype=np.float64)

    def label_points(self, points: np.ndarray) -> list[str]:
        """Semantic label per point; first matching region wins.

        Each region is tested only against the still undecided points in
        its half-open bounding box (``region.cut``), outside which
        :func:`points_in_polygon` finds no point inside it. The labels are
        gathered from one array of region codes.
        """
        points = np.asarray(points, dtype=np.float64).reshape(-1, 2)
        if len(points) == 0:
            return []
        px, py = points[:, 0], points[:, 1]
        code = np.full(len(points), len(self.regions))
        undecided = np.arange(len(points))
        for r, region in enumerate(self.regions):
            x0, y0, x1, y1 = region.cut
            x, y = px[undecided], py[undecided]
            near = (y >= y0) & (y < y1) & (x >= x0) & (x < x1)
            candidates = undecided[near]
            inside = points_in_polygon(points[candidates], region.polygon)
            code[candidates[inside]] = r
            near[near] = inside
            undecided = undecided[~near]
        names = [region.label for region in self.regions] + [UNKNOWN]
        return np.array(names, dtype=object)[code].tolist()


def _bounding_cut(polygon: np.ndarray) -> tuple[float, float, float, float]:
    """Half-open box ``[x0, x1) x [y0, y1)`` holding every point that
    :func:`points_in_polygon` finds inside ``polygon``.

    - The y range is the vertices' for any polygon: outside it no edge
      crosses the point's row.
    - The x range is the vertices' where every edge is axis-parallel and
      the y extent is finite, so that no ``py - y0`` overflows. Only
      vertical edges cross a row, and their crossing x is their vertex x
      exactly. A point at or past ``x1`` then counts no crossing, and one
      left of ``x0`` counts all of them, an even number on a closed
      polygon.
    - Slanted edges round their crossing x, so there x is left unbounded.
    """
    vertices = polygon.tolist()
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    y0, y1 = min(ys), max(ys)
    edges = zip(vertices, vertices[1:] + vertices[:1])
    if math.isfinite(y1 - y0) and all(a[0] == b[0] or a[1] == b[1] for a, b in edges):
        return min(xs), y0, max(xs), y1
    return -math.inf, y0, math.inf, y1


def points_in_polygon(points: np.ndarray, polygon: np.ndarray) -> np.ndarray:
    """Even-odd rule point-in-polygon test, vectorized over points.

    A horizontal edge crosses no point's row, so it is skipped. An edge of
    subnormal height can overflow the crossing x to an infinity; that is
    not reported as a warning.
    """
    px = points[:, 0]
    py = points[:, 1]
    inside = np.zeros(len(points), dtype=bool)
    n = len(polygon)
    with np.errstate(all="ignore"):
        for i in range(n):
            x0, y0 = polygon[i]
            x1, y1 = polygon[(i + 1) % n]
            if y0 == y1:
                continue
            crosses = (y0 > py) != (y1 > py)
            xint = x0 + (py - y0) * (x1 - x0) / (y1 - y0)
            inside ^= crosses & (px < xint)
    return inside


def _lot_walls(rect: Rect, gate_side: str, gate_lo: float, gate_hi: float):
    """Perimeter wall segments with one opening on the given side."""
    segs = []
    for side, (ax, ay, bx, by) in zip(
        ("south", "east", "north", "west"), rect.segments()
    ):
        if side != gate_side:
            segs.append((ax, ay, bx, by))
            continue
        if side in ("east", "west"):
            ys = sorted((ay, by))
            segs.append((ax, ys[0], ax, gate_lo))
            segs.append((ax, gate_hi, ax, ys[1]))
        else:
            xs = sorted((ax, bx))
            segs.append((xs[0], ay, gate_lo, ay))
            segs.append((gate_hi, ay, xs[1], ay))
    return segs


def default_world() -> WorldModel:
    """Parking lot, 400 m road corridor with buildings, second parking lot."""
    world = WorldModel()

    # First lot: 60 x 60 m centered on the start pose, gate toward the road.
    lot_a = Rect(-30.0, -30.0, 30.0, 30.0)
    world.walls += _lot_walls(lot_a, "east", -4.0, 4.0)
    for cx in (-18.0, -10.0, 12.0, 20.0):
        for cy in (-14.0, 10.0):
            world.obstacles.append(Rect(cx, cy, cx + 4.5, cy + 2.0))

    # Road corridor x in [30, 430]: building rows with a few narrow gaps.
    spans = [(30.0, 120.0), (126.0, 220.0), (226.0, 320.0), (326.0, 430.0)]
    for x0, x1 in spans:
        world.obstacles.append(Rect(x0, 6.0, x1, 26.0))
        world.obstacles.append(Rect(x0, -26.0, x1, -6.0))

    # Second lot with the gate facing back toward the corridor.
    lot_b = Rect(430.0, -30.0, 490.0, 30.0)
    world.walls += _lot_walls(lot_b, "west", -4.0, 4.0)
    for cx in (445.0, 470.0):
        world.obstacles.append(Rect(cx, 12.0, cx + 4.5, 14.0))
        world.obstacles.append(Rect(cx, -14.0, cx + 4.5, -12.0))

    # Semantic ground truth: markings on top of the road surface.
    world.regions.append(
        SemanticRegion(Rect(28.0, -0.15, 432.0, 0.15).as_polygon(), MARKING)
    )
    world.regions.append(
        SemanticRegion(Rect(28.0, 3.1, 432.0, 3.4).as_polygon(), MARKING)
    )
    world.regions.append(
        SemanticRegion(Rect(28.0, -3.4, 432.0, -3.1).as_polygon(), MARKING)
    )
    world.regions.append(
        SemanticRegion(Rect(28.0, -3.5, 432.0, 3.5).as_polygon(), ROAD)
    )
    for rect in world.obstacles:
        world.regions.append(SemanticRegion(rect.as_polygon(), BLOCKED))
    return world
