"""Binary snapshot format for grid maps.

Self-describing little-endian container:

    magic  "APGM\\x01"
    header datum (2 x f64), edge length (f64), max step (u32, ``MAX_STEP``)
    types  count (u32); per type: name, then label count + labels
           (strings are u32 length + utf-8 bytes)
    body   patch count (u32); per patch (sorted by index for determinism):
           index (2 x i64), layer count (u32); per layer: type id (u32),
           step (u32), raw float32 mass lattice

Payload masses are written exactly as stored, so save/load round-trips
bit-for-bit.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import InvariantError, SnapshotError
from .evidence import Frame
from .grid import MAX_STEP, GridConfig, GridMap, Layer, Patch

MAGIC = b"APGM\x01"


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    """Bounds-checked cursor over a snapshot's bytes."""

    def __init__(self, data: bytes):
        self.data = memoryview(data)
        self.pos = 0

    def remaining(self) -> int:
        return len(self.data) - self.pos

    def take(self, n: int) -> memoryview:
        if n > self.remaining():
            raise SnapshotError("truncated snapshot")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def string(self) -> str:
        (n,) = self.unpack("<I")
        try:
            return str(self.take(n), "utf-8")
        except UnicodeDecodeError as exc:
            raise SnapshotError(f"name is not utf-8: {exc}") from None


def save_grid(grid: GridMap, path) -> Path:
    """Write ``grid`` to ``path`` in the format above.

    Raises :class:`SnapshotError`, before the file is opened, for a map
    that :meth:`GridMap.check` refuses, so a saved map always loads."""
    path = Path(path)
    try:
        grid.check()
    except InvariantError as exc:
        raise SnapshotError(f"cannot save this map: {exc}") from None
    cfg = grid.config
    type_names = list(cfg.types)
    type_ids = {name: i for i, name in enumerate(type_names)}
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<dddI", *cfg.datum, cfg.edge_length, MAX_STEP))
        fh.write(struct.pack("<I", len(type_names)))
        for name in type_names:
            fh.write(_pack_str(name))
            labels = cfg.types[name].hypotheses
            fh.write(struct.pack("<I", len(labels)))
            for label in labels:
                fh.write(_pack_str(label))
        indices = sorted(grid.patches)
        fh.write(struct.pack("<I", len(indices)))
        for index in indices:
            patch = grid.patches[index]
            fh.write(struct.pack("<qqI", index[0], index[1], len(patch.layers)))
            for name in sorted(patch.layers):
                layer = patch.layers[name]
                fh.write(struct.pack("<II", type_ids[name], layer.step))
                fh.write(
                    np.ascontiguousarray(layer.masses, dtype="<f4").tobytes()
                )
    return path


def load_grid(path) -> GridMap:
    """Read a snapshot written by :func:`save_grid`.

    Raises :class:`SnapshotError` (a ``ValueError``) for a file that is
    not a snapshot, is truncated, has bytes after the last patch, or holds
    non-finite geometry or masses, a max step above ``grid.MAX_STEP``, an
    invalid type table, an unknown type id, a layer step above the
    header's max step, a repeated patch or layer, or a map that
    :meth:`GridMap.check` refuses (a mass outside [0, 1], or a cell's
    singleton masses summing above 1).
    """
    path = Path(path)
    data = path.read_bytes()
    if data[: len(MAGIC)] != MAGIC:
        raise SnapshotError(f"{path} is not a grid snapshot")
    rd = _Reader(data)
    rd.take(len(MAGIC))
    dx, dy, edge, max_step = rd.unpack("<dddI")
    if not all(math.isfinite(v) for v in (dx, dy, edge)):
        raise SnapshotError(f"non-finite geometry: datum {(dx, dy)}, edge {edge}")
    if max_step > MAX_STEP:
        raise SnapshotError(f"invalid snapshot header: max_step must be in [0, {MAX_STEP}]")
    (n_types,) = rd.unpack("<I")
    table = []
    for _ in range(n_types):
        name = rd.string()
        (n_labels,) = rd.unpack("<I")
        table.append((name, tuple(rd.string() for _ in range(n_labels))))
    try:
        types = {name: Frame(labels) for name, labels in table}
        if len(types) != len(table):
            raise ValueError("a type is listed twice")
        grid = GridMap(GridConfig((dx, dy), edge, types))
    except ValueError as exc:
        raise SnapshotError(f"invalid snapshot header: {exc}") from None
    type_names = list(types)
    (n_patches,) = rd.unpack("<I")
    for _ in range(n_patches):
        ix, iy, n_layers = rd.unpack("<qqI")
        if (ix, iy) in grid.patches:
            raise SnapshotError(f"patch {(ix, iy)} stored twice")
        grid.patches[(ix, iy)] = Patch((ix, iy))
        for _ in range(n_layers):
            type_id, step = rd.unpack("<II")
            if type_id >= len(type_names):
                raise SnapshotError(
                    f"type id {type_id} at patch {(ix, iy)}; "
                    f"the snapshot lists {len(type_names)} types"
                )
            name = type_names[type_id]
            if step > max_step:
                raise SnapshotError(
                    f"{name} layer at {(ix, iy)} has step {step} > max step {max_step}"
                )
            if grid.layer_at((ix, iy), name) is not None:
                raise SnapshotError(f"{name} layer at {(ix, iy)} stored twice")
            frame = types[name]
            m = 1 << step
            raw = rd.take(4 * len(frame) * m * m)
            masses = np.frombuffer(raw, dtype="<f4").reshape(m, m, len(frame))
            if not np.isfinite(masses).all():
                raise SnapshotError(f"{name} layer at {(ix, iy)} holds a NaN or inf mass")
            grid.set_layer((ix, iy), Layer(name, frame, step, masses.copy()))
    if rd.remaining():
        raise SnapshotError(f"{rd.remaining()} bytes after the last patch")
    try:
        grid.check()
    except InvariantError as exc:
        raise SnapshotError(f"invalid snapshot map: {exc}") from None
    return grid
