"""Spatial cell merge/split operators and layer resampling.

Occupancy cells are merged and split in the measurement space by inverting
the grid measurement model: merged occupancy is the complement of the
product of the children's miss probabilities, and a split distributes the
miss probability evenly over the children. That keeps resampled layers
consistent with the evidence a sensor would have produced at the target
resolution, which plain Dempster combination does not (free neighbours
erode occupied cells there).

Free-space mass is merged by median and split by value copy, clipped
against the occupancy mass so cells stay normalized; occupancy wins the
clip because it is the safety-critical quantity.

A 2x2 block (every one-step merge) is merged without ``np.prod`` or
``np.median`` and reproduces both bit for bit. The product of misses is
the left-to-right chain ``((m0 * m1) * m2) * m3``, the order ``np.prod``
multiplies in. The two middle values of four are
``max(min(a, b), min(c, d))`` and ``min(max(a, b), max(c, d))``, and
their sum starts from ``0.0`` as ``np.mean``'s does inside ``np.median``,
so two zero middles give +0.0 and never -0.0; NaN propagates through
``np.minimum``/``np.maximum`` as ``np.median`` returns it. Larger blocks,
which only multi-step merges make, use ``np.prod`` and ``np.median``.

Semantic layers use a pragmatic mean/copy pair; a principled operator for
arbitrary hypothesis counts is an open problem.

A layer resamples to any step in [0, ``grid.MAX_STEP``] in one call, however
far that lies from its own step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import UnsupportedTypeError
from .evidence import BBA, make_bba
from .grid import MAX_STEP, Layer


# -- occupancy, block level ------------------------------------------------
# Arrays have shape (..., B, 2) for merge (B children per block) and
# (..., 2) for split; channel 0 is occupied, channel 1 free.


def occ_block_merge(children: np.ndarray) -> np.ndarray:
    children = np.asarray(children, dtype=np.float64)
    if children.shape[-2] == 4:
        return _occ_merge_2x2(*(children[..., j, :] for j in range(4)))
    occ = 1.0 - np.prod(1.0 - children[..., 0], axis=-1)
    free = np.median(children[..., 1], axis=-1)
    free = np.minimum(free, 1.0 - occ)
    return np.stack([occ, free], axis=-1)


def _occ_merge_2x2(c0, c1, c2, c3) -> np.ndarray:
    """``occ_block_merge`` of four (..., 2) float64 children given in
    row-major order, without ``np.prod``, ``np.median`` or a stacked copy."""
    out = np.empty(c0.shape, dtype=np.float64)
    occ, free = out[..., 0], out[..., 1]
    miss = 1.0 - c0[..., 0]
    for c in (c1, c2, c3):
        miss *= 1.0 - c[..., 0]
    np.subtract(1.0, miss, out=occ)
    a, b, c, d = c0[..., 1], c1[..., 1], c2[..., 1], c3[..., 1]
    np.maximum(np.minimum(a, b), np.minimum(c, d), out=free)
    free += 0.0  # np.mean sums from +0.0, so two zero middles give +0.0
    free += np.minimum(np.maximum(a, b), np.maximum(c, d))
    free /= 2
    np.minimum(free, 1.0 - occ, out=free)
    return out


def occ_cell_split(parent: np.ndarray, n: int) -> np.ndarray:
    """Per-child masses; identical for all n children of a cell."""
    parent = np.asarray(parent, dtype=np.float64)
    occ = 1.0 - (1.0 - parent[..., 0]) ** (1.0 / n)
    free = np.minimum(parent[..., 1], 1.0 - occ)
    return np.stack([occ, free], axis=-1)


def sem_block_merge(children: np.ndarray) -> np.ndarray:
    children = np.asarray(children, dtype=np.float64)
    mean = children.mean(axis=-2)
    total = mean.sum(axis=-1)
    over = total > 1.0
    if np.any(over):
        # Only over-full blocks are divided: a vacuous block's total is 0.
        np.divide(mean, total[..., None], out=mean, where=over[..., None])
    return mean


def sem_cell_split(parent: np.ndarray, n: int) -> np.ndarray:
    return np.asarray(parent, dtype=np.float64).copy()


_OPERATORS = {
    "occupancy": (occ_block_merge, occ_cell_split),
    "semantic": (sem_block_merge, sem_cell_split),
}


def block_view(masses: np.ndarray, factor: int) -> np.ndarray:
    """Aligned ``factor x factor`` blocks of an (m, m, k) lattice as
    (m / factor, m / factor, factor**2, k), children in row-major order."""
    m_out = masses.shape[0] // factor
    k = masses.shape[-1]
    return (
        masses.reshape(m_out, factor, m_out, factor, k)
        .transpose(0, 2, 1, 3, 4)
        .reshape(m_out, m_out, factor * factor, k)
    )


# -- cell-level interface ----------------------------------------------------


def merge_occ(cells: Sequence[BBA]) -> BBA:
    """Merge occupancy evidence of any number of co-located cells."""
    if not cells:
        raise ValueError("need at least one cell to merge")
    frame = cells[0].frame
    stack = np.stack([c.masses for c in cells])  # (B, 2)
    merged = occ_block_merge(stack[None, :, :])[0]
    return make_bba(frame, merged)


def split_occ(cell: BBA, n: int) -> list[BBA]:
    """Distribute occupancy evidence evenly over n child cells."""
    if n < 1:
        raise ValueError("child count must be positive")
    child = occ_cell_split(cell.masses, n)
    return [make_bba(cell.frame, child) for _ in range(n)]


def merge_sem(cells: Sequence[BBA]) -> BBA:
    if not cells:
        raise ValueError("need at least one cell to merge")
    stack = np.stack([c.masses for c in cells])
    return make_bba(cells[0].frame, sem_block_merge(stack[None, :, :])[0])


def split_sem(cell: BBA, n: int) -> list[BBA]:
    child = sem_cell_split(cell.masses, n)
    return [make_bba(cell.frame, child) for _ in range(n)]


# -- layer-level resampling ---------------------------------------------------


def resample_layer(layer: Layer, r_target: int) -> Layer:
    """Resample a layer to any resolution step in [0, ``grid.MAX_STEP``].

    Upsampling by d steps splits every cell into a 2^d x 2^d block;
    downsampling merges aligned blocks. The result holds 4^(r_target)
    cells whatever the distance from ``layer.step``; ``validate_scenario``
    bounds the steps a scenario demands. Equal steps return the same layer
    object (no copy), so callers that need a private result must copy.
    """
    if not 0 <= r_target <= MAX_STEP:
        raise ValueError(f"resolution step {r_target} outside [0, {MAX_STEP}]")
    delta = r_target - layer.step
    if delta == 0:
        return layer
    if layer.type_name not in _OPERATORS:
        raise UnsupportedTypeError(
            f"no merge/split operators for {layer.type_name!r}"
        )
    merge, split = _OPERATORS[layer.type_name]
    src = layer.masses.astype(np.float64)
    if delta > 0:
        factor = 1 << delta
        child = split(src, factor * factor)
        out = np.repeat(np.repeat(child, factor, axis=0), factor, axis=1)
    elif delta == -1 and layer.type_name == "occupancy":
        out = _occ_merge_2x2(*(src[a::2, b::2] for a in (0, 1) for b in (0, 1)))
    else:
        out = merge(block_view(src, 1 << (-delta)))
    return Layer(layer.type_name, layer.frame, r_target, out.astype(np.float32))
