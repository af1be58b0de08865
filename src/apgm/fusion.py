"""Multi-level fusion: cells, layers, patches, grid maps.

Cross-source fusion uses Dempster's rule on every level: when two sensors
disagree about the same spot, conflict renormalization is the intended
behaviour. This is deliberately distinct from spatial merging during
resampling, where neighbouring free and occupied cells do not contradict
each other and Dempster's rule would erode occupied regions; the resample
module owns that case.

Layer fusion first brings all inputs to a common step r_fused, the demanded
step capped by the best available one, then combines cell-wise. Only the
cells that two or more inputs hold (any stored bit set) go through
Dempster's rule: a cell with one holder takes that holder's masses and a
cell with none stays vacuous, which is what the rule returns for them, bit
for bit (:func:`fuse_layers` states the precondition). Patch and grid
fusion take unions over types and patch indices. One call fuses the layers
of every patch together: they are grouped by input count, hypothesis count
and fused step, and each group is cut into blocks of consecutive layers of
at most ``2 * kernels.FOLD_SLICE`` rows. Each pass over the rows (the OR,
the holder tests, the gather and the scatter) runs once per block, and the
held rows go through :func:`~apgm.kernels.fold_masses` in slices of at most
``FOLD_SLICE`` rows; the rule treats each cell on its own, so the result
does not depend on which cells share a block or a slice. A cell in total
conflict is reset to vacuous and counted; there is no other policy.
:func:`discount_grid` ages a map in place; the scenario's map step ages
the live map with it and then folds it with the cycle's grids in one grid
fusion.

Concurrency contract: fusion reads its inputs only, and the fused grid is a
fresh value. Its layers of one block are disjoint views of one array that
spans many output patches: writing one fused layer in place, or dropping
it, leaves every other layer as it was, but one call writes rows of many
patches. A driver that fuses in parallel splits the inputs into separate
calls (by patch index, say) and gives each call its own counter.
"""

from __future__ import annotations

import numpy as np

from .errors import DatumMismatchError, EdgeMismatchError, FrameMismatchError
from .evidence import BBA, ConflictCounter
from .grid import GridMap, Layer, Patch
from .kernels import FOLD_SLICE, fold_masses
from .resample import resample_layer


def fuse_cells(cells, counter: ConflictCounter | None = None) -> BBA:
    """Left fold of Dempster combination over co-located cells, through
    :func:`~apgm.kernels.fold_masses`; a total conflict resets the fold to
    vacuous and is counted. Cells over different frames raise
    :class:`FrameMismatchError`."""
    cells = list(cells)
    if not cells:
        raise ValueError("need at least one cell to fuse")
    frame = cells[0].frame
    for cell in cells:
        if cell.frame != frame:
            raise FrameMismatchError(f"{frame} vs {cell.frame}")
    if len(cells) == 1:
        return cells[0]
    stack = np.array([cell.masses for cell in cells], dtype=np.float64)[:, None, :]
    dead = fold_masses(stack)
    if counter is not None:
        counter.add(dead)
    masses = stack[0, 0]
    masses.flags.writeable = False
    return BBA(frame, masses, max(1.0 - float(masses.sum()), 0.0))


def fuse_layers(
    layers, r_req: int, counter: ConflictCounter | None = None
) -> Layer:
    """Fuse same-type layers of one patch footprint at step min(r_req, max r).

    Layers that differ in type or frame raise :class:`FrameMismatchError`.

    The result and the total-conflict count equal the left fold of
    Dempster's rule over every cell, bit for bit. This is :func:`fuse_grids`
    for one layer: only the rows that at least two inputs hold, or that
    carry a sign bit, go through the rule, folded in input order; every
    other row is the bitwise OR of the inputs' rows, which is its one
    holder's row or zero. Precondition: each single-holder row sums to at
    most 2, as in every layer that :meth:`GridMap.check` accepts (see
    :func:`~apgm.kernels.combine_masses`).
    """
    return _fuse([(list(layers), r_req)], counter)[0]


# A block holds at most two fold slices of rows: consecutive layers of one
# (inputs, k, step) group share its passes, and a block of 16,384 k = 2
# rows keeps each input's words at 128 KiB.
_BLOCK_ROWS = 2 * FOLD_SLICE


def _fuse(stacks, counter: ConflictCounter | None) -> list[Layer]:
    """The fused layer of each (layers, r_req) stack, in order: a stack of
    one input is copied, and every other layer is a view of its block's
    masses (a layer of ``_BLOCK_ROWS`` rows or more is a block of its own).
    """
    fused: list = [None] * len(stacks)
    groups: dict[tuple[int, int, int], list] = {}
    for i, (layers, r_req) in enumerate(stacks):
        if not layers:
            raise ValueError("need at least one layer to fuse")
        first = layers[0]
        for l in layers[1:]:
            # Identity first: the layers of one fusion share their frames.
            if l.type_name != first.type_name or (
                l.frame is not first.frame and l.frame != first.frame
            ):
                raise FrameMismatchError(
                    f"{l.type_name} over {l.frame.hypotheses} vs "
                    f"{first.type_name} over {first.frame.hypotheses}"
                )
        r_fused = min(r_req, max(l.step for l in layers))
        resampled = [resample_layer(l, r_fused) for l in layers]
        if len(resampled) == 1:
            fused[i] = Layer(
                first.type_name, first.frame, r_fused, resampled[0].masses.copy()
            )
            continue
        words = [_row_words(np.ascontiguousarray(l.masses)) for l in resampled]
        key = (len(words), len(first.frame), r_fused)
        groups.setdefault(key, []).append((i, words))
    for (_, k, step), members in groups.items():
        m = 1 << step
        size = max(1, _BLOCK_ROWS // (m * m))
        for lo in range(0, len(members), size):
            block = members[lo : lo + size]
            out = _fold_block([words for _, words in block], counter)
            masses = out.view(np.float32).reshape(len(block), m, m, k)
            for (i, _), layer_masses in zip(block, masses):
                first = stacks[i][0][0]
                fused[i] = Layer(first.type_name, first.frame, step, layer_masses)
    return fused


def _fold_block(block, counter: ConflictCounter | None):
    """The fused row words of a block of layers, one after the other.

    ``block`` holds each layer's input row words in fold order. Each row of
    the result is the OR of the inputs' rows; the rows that two inputs hold,
    or that carry a sign bit, are then gathered in slices of at most
    FOLD_SLICE rows, folded by :func:`~apgm.kernels.fold_masses` and
    scattered back. The rule treats each row on its own, so the rows a
    slice shares cannot change a bit of the result.
    """
    inputs = [np.concatenate(w) for w in zip(*block)]
    held = _row_any(inputs[0])
    both = np.zeros_like(held)  # held by two or more inputs so far
    out = inputs[0].copy()
    for w in inputs[1:]:
        h = _row_any(w)
        both |= held & h
        held |= h
        out |= w
    # A sign bit marks a -0.0 (or a negative mass): the rule would turn a
    # -0.0 into +0.0 where the row sums to at most 1, so such rows fold too.
    both |= _row_any(out & _SIGN_BITS[out.dtype.type])
    rows = np.flatnonzero(both)
    depth, width = len(inputs), out.shape[1]
    gathered = np.empty((depth, min(len(rows), FOLD_SLICE), width), out.dtype)
    # Scattered as one void element per row: a 2-D fancy assignment copies
    # a two-word row several times slower.
    row = np.dtype((np.void, out.itemsize * width))
    for lo in range(0, len(rows), FOLD_SLICE):
        part = rows[lo : lo + FOLD_SLICE]
        slab = gathered[:, : len(part)]
        for slot, w in zip(slab, inputs):
            # "raise" would buffer the output; the rows are in range by
            # construction, so "clip" changes nothing.
            np.take(w, part, axis=0, out=slot, mode="clip")
        dead = fold_masses(slab.view(np.float32))
        if counter is not None:
            counter.add(dead)
        out.view(row)[part, 0] = slab[0].view(row)[:, 0]
    return out


# Each float32 row is read as whole machine words: uint64 pairs of masses
# when k is even, single uint32 masses when k is odd.
_SIGN_BITS = {
    np.uint64: np.uint64(0x8000000080000000),
    np.uint32: np.uint32(0x80000000),
}


def _row_words(masses):
    """(n, w) unsigned-word view of a contiguous float32 (..., k) array."""
    k = masses.shape[-1]
    return masses.reshape(-1, k).view(np.uint64 if k % 2 == 0 else np.uint32)


def _row_any(words):
    """Per row of an (n, w) word array: whether any stored bit is set."""
    acc = words[:, 0]
    for j in range(1, words.shape[1]):
        acc = acc | words[:, j]
    return acc != 0


def fuse_patches(
    patches,
    r_req: dict[str, int],
    counter: ConflictCounter | None = None,
) -> Patch:
    """Fuse same-index patches; the type set is the union of the inputs'.
    ``r_req`` caps each type's step (as ``required_steps`` gives it); a
    type missing from it keeps its best available step."""
    patches = list(patches)
    if not patches:
        raise ValueError("need at least one patch to fuse")
    index = patches[0].index
    if any(p.index != index for p in patches):
        raise ValueError("patch indices differ")
    return _fuse_patches([patches], r_req, counter)[0]


def _fuse_patches(stacks, r_req: dict[str, int], counter) -> list[Patch]:
    """The fused patch of each stack of same-index patches, in order; the
    layers of every patch go through one :func:`_fuse` call."""
    out, slots, layer_stacks = [], [], []
    for patches in stacks:
        patch = Patch(patches[0].index)
        out.append(patch)
        for type_name in sorted({t for p in patches for t in p.layers}):
            layers = [p.layers[type_name] for p in patches if type_name in p.layers]
            step = r_req.get(type_name, max(l.step for l in layers))
            slots.append((patch, type_name))
            layer_stacks.append((layers, step))
    for (patch, type_name), layer in zip(slots, _fuse(layer_stacks, counter)):
        patch.layers[type_name] = layer
    return out


def fuse_grids(
    grids,
    r_req: dict[str, int],
    counter: ConflictCounter | None = None,
) -> GridMap:
    """Fuse grid maps sharing datum, edge length and type table; indices
    take the union.

    ``r_req`` caps each type's fused step as in :func:`fuse_patches`.

    Every patch's layers share the blocks of one fold, so the rule runs
    over slices of up to FOLD_SLICE rows, not once per layer.
    """
    grids = list(grids)
    if not grids:
        raise ValueError("need at least one grid to fuse")
    base = grids[0].config
    for g in grids[1:]:
        if tuple(g.config.datum) != tuple(base.datum):
            raise DatumMismatchError(
                f"{g.config.datum} vs {base.datum}"
            )
        if g.config.edge_length != base.edge_length:
            raise EdgeMismatchError(
                f"{g.config.edge_length} vs {base.edge_length}"
            )
        types = g.config.types
        if types is not base.types and dict(types) != dict(base.types):
            raise FrameMismatchError(f"type tables {dict(types)} vs {dict(base.types)}")
    out = GridMap(base)
    indices = sorted({i for g in grids for i in g.patches})
    stacks = [[g.patches[i] for g in grids if i in g.patches] for i in indices]
    for index, patch in zip(indices, _fuse_patches(stacks, r_req, counter)):
        out.patches[index] = patch
    return out


def discount_grid(grid: GridMap, alpha: float) -> None:
    """Cell-wise reliability discount of a whole map, in place.

    Each layer's masses are scaled by ``np.float32(alpha)``, the bits of
    ``masses * np.float32(alpha)``. ``alpha`` must lie in [0, 1], as for
    :func:`~apgm.evidence.discount`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"reliability factor must be in [0, 1], got {alpha}")
    scale = np.float32(alpha)
    for _, layer in grid.iter_layers():
        np.multiply(layer.masses, scale, out=layer.masses)
