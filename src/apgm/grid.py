"""Patched grid map container with typed, power-of-two layers.

A grid map is a sparse set of square patches anchored to a global datum.
Each patch holds at most one layer per information type; a layer is a
2^r x 2^r lattice of evidence cells, so layers of different resolution
steps nest exactly on shared boundaries.

One rule turns a world point into a patch and a cell. Cells are half-open
and binned from the grid datum: the absolute cell at step r is
floor((p - datum) / (edge / 2^r)) per axis (:func:`global_cells_of`), so
an edge belongs to the upper patch and cell. Its bits above the low r are
the patch index and the low r bits the cell index
(:func:`split_global_cells`). Dividing by a power of two is exact, so a
point keeps its patch at every step and its step-(r + 1) cell lies inside
its step-r cell. :meth:`GridMap.cell_index_of`, the measurement builders
and the raster export all bin this way.

Concurrency: a GridMap is single-writer. Distinct patches are independent
units, so a fusion driver may fill different output patches from different
threads as long as no patch is touched by more than one writer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping

import numpy as np

from .errors import (
    CellOutOfBoundsError,
    InputShapeError,
    InvariantError,
    ResolutionConflictError,
    require,
)
from .evidence import Frame

OCCUPIED = "occupied"
FREE = "free"
OCCUPANCY_FRAME = Frame((OCCUPIED, FREE))

ROAD = "road"
MARKING = "marking"
BLOCKED = "blocked"
UNKNOWN = "unknown"
SEMANTIC_FRAME = Frame((ROAD, MARKING, BLOCKED, UNKNOWN))

BYTES_PER_MASS = 4  # cells store one float32 per hypothesis
# Stored singleton sums may exceed 1 by float32 rounding, never by more.
MASS_SUM_TOL = 1e-5
# Largest resolution step: a layer of step 32 would hold 2^64 cells.
MAX_STEP = 31


@dataclass(frozen=True)
class GridConfig:
    """Immutable geometry and type table shared by compatible grid maps."""

    datum: tuple[float, float] = (0.0, 0.0)
    edge_length: float = 12.8
    types: Mapping[str, Frame] = field(
        default_factory=lambda: {
            "occupancy": OCCUPANCY_FRAME,
            "semantic": SEMANTIC_FRAME,
        }
    )

    def __post_init__(self):
        require(
            (0.0 < self.edge_length < math.inf, "edge_length must be finite and positive"),
            (len(self.datum) == 2, "datum must hold two values (x, y)"),
            (all(math.isfinite(v) for v in self.datum), "datum must be finite"),
            (bool(self.types), "type table must not be empty"),
        )

    def cell_width(self, step: int) -> float:
        return self.edge_length / (1 << step)

    def frame_of(self, type_name: str) -> Frame:
        try:
            return self.types[type_name]
        except KeyError:
            raise ValueError(
                f"unknown information type {type_name!r}; "
                f"this map knows {sorted(self.types)}"
            ) from None


class Layer:
    """One information type rasterized at resolution step r inside a patch.

    ``masses`` has shape (m, m, k) with m = 2^r and k = len(frame); the
    first axis is the x cell index, the second the y cell index. Cells
    store singleton masses as float32; the frame mass is the remainder.
    A step that is not an int in [0, ``MAX_STEP``], or masses of another
    shape, raise :class:`InputShapeError`. Read-only masses are copied, so
    the layer can be aged in place.
    """

    __slots__ = ("type_name", "frame", "step", "masses")

    def __init__(self, type_name: str, frame: Frame, step: int, masses=None):
        if not (isinstance(step, (int, np.integer)) and 0 <= step <= MAX_STEP):
            raise InputShapeError(f"step {step!r} outside [0, {MAX_STEP}] or not an int")
        m = 1 << step
        if masses is None:
            masses = np.zeros((m, m, len(frame)), dtype=np.float32)
        else:
            masses = np.asarray(masses, dtype=np.float32)
            if not masses.flags.writeable:
                masses = masses.copy()
            if masses.shape != (m, m, len(frame)):
                raise InputShapeError(
                    f"mass array shape {masses.shape} does not match "
                    f"step {step} over a {len(frame)}-hypothesis frame"
                )
        self.type_name = type_name
        self.frame = frame
        self.step = step
        self.masses = masses

    @property
    def cells(self) -> int:
        return 1 << (2 * self.step)

    @property
    def payload_bytes(self) -> int:
        return self.cells * len(self.frame) * BYTES_PER_MASS

    def omega(self) -> np.ndarray:
        """Frame mass per cell, computed from the stored singletons."""
        return 1.0 - self.masses.astype(np.float64).sum(axis=-1)

    def __repr__(self) -> str:
        return f"Layer({self.type_name!r}, r={self.step})"


@dataclass
class Patch:
    """Square sub-map at a lattice index, holding at most one layer per type."""

    index: tuple[int, int]
    layers: dict[str, Layer] = field(default_factory=dict)


class GridMap:
    """Sparse collection of patches over a fixed datum and edge length."""

    def __init__(self, config: GridConfig):
        self.config = config
        self.patches: dict[tuple[int, int], Patch] = {}

    # -- datum arithmetic -------------------------------------------------

    def patch_datum(self, index: tuple[int, int]) -> np.ndarray:
        """World reference of the patch square's low corner."""
        e = self.config.edge_length
        return np.array(
            [
                self.config.datum[0] + e * index[0],
                self.config.datum[1] + e * index[1],
            ]
        )

    def cell_datum(
        self, index: tuple[int, int], step: int, cell: tuple[int, int]
    ) -> np.ndarray:
        """World reference of a cell's low corner within a patch."""
        m = 1 << step
        a, b = cell
        if not (0 <= a < m and 0 <= b < m):
            raise CellOutOfBoundsError(f"cell {cell} outside 2^{step} lattice")
        width = self.config.cell_width(step)
        return self.patch_datum(index) + width * np.array([a, b])

    def cell_index_of(
        self, point, step: int
    ) -> tuple[tuple[int, int], tuple[int, int]]:
        """(patch index, cell index) of the step-``step`` cell holding a
        world point, binned as the measurement builders bin their points."""
        width = self.config.cell_width(step)
        units = cell_units(point[0], point[1], self.config.datum, width)
        (px, cx), (py, cy) = (split_global_cells(math.floor(u), step) for u in units)
        return (px, py), (cx, cy)

    def patch_index_of(self, point) -> tuple[int, int]:
        """Patch containing a world point; edges belong to the upper patch."""
        return self.cell_index_of(point, 0)[0]

    # -- structure --------------------------------------------------------

    def get_or_create_layer(
        self, index: tuple[int, int], type_name: str, step: int
    ) -> Layer:
        """Lazily allocate the patch/layer; fresh cells are vacuous.

        An existing layer's step is never changed implicitly; request a
        resample instead (raises :class:`ResolutionConflictError`).
        """
        frame = self.config.frame_of(type_name)
        layer = self.layer_at(index, type_name)
        if layer is None:
            layer = Layer(type_name, frame, step)
            self.set_layer(index, layer)
        elif layer.step != step:
            raise ResolutionConflictError(
                f"{type_name} layer at {index} has step {layer.step}, "
                f"requested {step}"
            )
        return layer

    def layer_at(self, index: tuple[int, int], type_name: str) -> Layer | None:
        patch = self.patches.get(index)
        if patch is None:
            return None
        return patch.layers.get(type_name)

    def set_layer(self, index: tuple[int, int], layer: Layer) -> None:
        patch = self.patches.get(index)
        if patch is None:
            patch = Patch(index)
            self.patches[index] = patch
        patch.layers[layer.type_name] = layer

    def delete_patch(self, index: tuple[int, int]) -> None:
        self.patches.pop(index, None)

    def iter_layers(self) -> Iterator[tuple[tuple[int, int], Layer]]:
        for index, patch in self.patches.items():
            for layer in patch.layers.values():
                yield index, layer

    # -- invariants -------------------------------------------------------

    def check(self) -> None:
        """Raise :class:`InvariantError` unless every layer is well formed.

        Each layer's type is in the map's type table and its frame is the
        table's frame for that type, its step lies in [0, ``MAX_STEP``], its
        masses have shape (2^step, 2^step, len(frame)), are finite and in
        [0, 1], and each cell's singleton masses sum to at most 1 + 1e-5.
        """
        for index, layer in self.iter_layers():
            where = f"{layer.type_name} layer at {index}"
            frame = self.config.types.get(layer.type_name)
            if frame is None:
                raise InvariantError(
                    f"{where} has a type the map's table does not list "
                    f"({sorted(self.config.types)})"
                )
            if layer.frame != frame:
                raise InvariantError(
                    f"{where} is over frame {layer.frame.hypotheses}, "
                    f"not the table's {frame.hypotheses}"
                )
            if not 0 <= layer.step <= MAX_STEP:
                raise InvariantError(f"{where} has step {layer.step} outside [0, {MAX_STEP}]")
            m = 1 << layer.step
            masses = layer.masses
            if masses.shape != (m, m, len(layer.frame)):
                raise InvariantError(
                    f"{where} holds masses of shape {masses.shape}, "
                    f"not {(m, m, len(layer.frame))}"
                )
            # NaN fails both comparisons.
            if not (masses.min() >= 0.0 and masses.max() <= 1.0):
                raise InvariantError(
                    f"{where} holds a mass that is NaN, inf or outside [0, 1]"
                )
            total = masses[..., 0].astype(np.float64)
            for j in range(1, masses.shape[-1]):
                total += masses[..., j]
            if total.max() > 1.0 + MASS_SUM_TOL:
                raise InvariantError(
                    f"{where} has singleton masses summing to {total.max()!r} > 1"
                )

    # -- accounting -------------------------------------------------------

    def cell_count(self, type_name: str | None = None) -> int:
        """Total allocated cells, optionally restricted to one type."""
        return sum(
            layer.cells
            for _, layer in self.iter_layers()
            if type_name is None or layer.type_name == type_name
        )

    def memory_bytes(self, type_name: str | None = None) -> int:
        """Cell payload bytes, optionally of one type; container bookkeeping
        is not included."""
        return sum(
            layer.payload_bytes
            for _, layer in self.iter_layers()
            if type_name is None or layer.type_name == type_name
        )

    def layer_count(self) -> int:
        return sum(len(p.layers) for p in self.patches.values())

    def __repr__(self) -> str:
        return (
            f"GridMap({len(self.patches)} patches, "
            f"{self.layer_count()} layers, {self.cell_count()} cells)"
        )


def cell_units(xs, ys, datum, width: float) -> tuple[np.ndarray, np.ndarray]:
    """World x and y coordinates in cells of ``width`` from ``datum``.

    A negative offset whose quotient underflows to zero comes back as the
    negative float nearest zero, so its floor is -1 at every step."""
    units = []
    for p, d in zip((xs, ys), datum):
        offset = np.asarray(p, dtype=np.float64) - d
        u = offset / width
        units.append(np.where((u == 0.0) & (offset < 0.0), -math.ulp(0.0), u))
    return units[0], units[1]


def global_cells_of(points, datum, width: float) -> np.ndarray:
    """Absolute cells of world points (..., 2): the floor of their cell units."""
    pts = np.asarray(points, dtype=np.float64)
    units = cell_units(pts[..., 0], pts[..., 1], datum, width)
    return np.floor(np.stack(units, axis=-1)).astype(np.int64)


def split_global_cells(cells, step: int):
    """(patch index, cell index) of absolute cells at ``step``: the bits
    above the low ``step`` and the low ``step`` bits, for ints or arrays."""
    return cells >> step, cells & ((1 << step) - 1)
