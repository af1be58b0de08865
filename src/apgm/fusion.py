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
fusion take unions over types and patch indices. The held cells of every
patch in one call are gathered per input count and hypothesis count and
folded together by :func:`~apgm.kernels.fold_masses`, in slices of at
most ``kernels.FOLD_SLICE`` rows; the rule treats each cell on its own,
so the result does not depend on which cells share a slice. A cell in
total conflict is reset to vacuous and counted; there is no other policy.
:func:`temporal_update` folds the aged previous map and the cycle's grids
in one grid fusion; the scenario runner fuses through it.

Concurrency contract: all inputs are read-only; the fused grid is a fresh
value. One call's fold writes rows of many output patches, so a driver
that fuses in parallel splits the inputs into separate calls (by patch
index, say) and gives each call its own counter.
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
    fold = _HeldRowFold(counter)
    out = _or_layers(layers, r_req, fold)
    fold.flush()
    return out


def _or_layers(layers, r_req: int, fold: _HeldRowFold) -> Layer:
    """The fused layer with every row the OR of the inputs' rows; the rows
    two inputs hold (or that carry a sign bit) are queued on ``fold``,
    which writes their Dempster fold into the returned layer's masses."""
    layers = list(layers)
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
        return Layer(
            first.type_name, first.frame, r_fused, resampled[0].masses.copy()
        )
    masses = [np.ascontiguousarray(l.masses) for l in resampled]
    shape = masses[0].shape
    words = [_row_words(m) for m in masses]
    held = _row_any(words[0])
    both = np.zeros_like(held)  # held by two or more inputs so far
    fused = words[0].copy()
    for w in words[1:]:
        h = _row_any(w)
        both |= held & h
        held |= h
        fused |= w
    # A sign bit marks a -0.0 (or a negative mass): the rule would turn a
    # -0.0 into +0.0 where the row sums to at most 1, so such rows fold too.
    both |= _row_any(fused & _SIGN_BITS[fused.dtype.type])
    fold.add(words, fused, np.flatnonzero(both), shape[-1])
    return Layer(
        first.type_name, first.frame, r_fused, fused.view(np.float32).reshape(shape)
    )


class _HeldRowFold:
    """Held rows of many output layers, folded together in shared slices.

    A queued layer gives its inputs' row words in fold order, its output
    row words and the rows to fold. Layers are queued per (inputs, k), and
    a queue is folded once it holds FOLD_SLICE rows, or at :meth:`flush`.
    The rule treats each row on its own, so the slice a row shares with
    other layers' rows cannot change a bit of its result.
    """

    def __init__(self, counter: ConflictCounter | None):
        self.counter = counter
        self.queues: dict[tuple[int, int], tuple[list, int]] = {}

    def add(self, words, fused, rows, k: int) -> None:
        key = (len(words), k)
        queued, n = self.queues.pop(key, ([], 0))
        queued.append((words, fused, rows))
        n += len(rows)
        if n >= FOLD_SLICE:
            self._fold(queued, n, k)
        else:
            self.queues[key] = (queued, n)

    def flush(self) -> None:
        for (_, k), (queued, n) in self.queues.items():
            self._fold(queued, n, k)
        self.queues.clear()

    def _fold(self, queued, n: int, k: int) -> None:
        depth = len(queued[0][0])
        width = queued[0][1].shape[1]
        # Row words of every input's queued rows, one (n, width) block per
        # input; block 0 then takes the fold's result.
        gathered = np.empty((depth, n, width), queued[0][1].dtype)
        start = 0
        for words, _, rows in queued:
            stop = start + len(rows)
            for block, w in zip(gathered, words):
                # "raise" would buffer the output; the rows are in range
                # by construction, so "clip" changes nothing.
                np.take(w, rows, axis=0, out=block[start:stop], mode="clip")
            start = stop
        dead = fold_masses(gathered.view(np.float32).reshape(depth, n, k))
        if self.counter is not None:
            self.counter.add(dead)
        # Scattered as one void element per row: a 2-D fancy assignment
        # copies a two-word row several times slower.
        row = np.dtype((np.void, gathered.itemsize * width))
        result = gathered[0].view(row)[:, 0]
        start = 0
        for _, fused, rows in queued:
            stop = start + len(rows)
            fused.view(row)[rows, 0] = result[start:stop]
            start = stop


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
    fold = _HeldRowFold(counter)
    out = _or_patches(patches, r_req, fold)
    fold.flush()
    return out


def _or_patches(patches, r_req: dict[str, int], fold: _HeldRowFold) -> Patch:
    out = Patch(patches[0].index)
    type_names = sorted({t for p in patches for t in p.layers})
    for type_name in type_names:
        stack = [p.layers[type_name] for p in patches if type_name in p.layers]
        step = r_req.get(type_name, max(l.step for l in stack))
        out.layers[type_name] = _or_layers(stack, step, fold)
    return out


def fuse_grids(
    grids,
    r_req: dict[str, int],
    counter: ConflictCounter | None = None,
) -> GridMap:
    """Fuse grid maps sharing datum, edge length and type table; indices
    take the union.

    ``r_req`` caps each type's fused step as in :func:`fuse_patches`.

    Every patch's held rows share the folds of :class:`_HeldRowFold`, so
    the rule runs over slices of up to FOLD_SLICE rows, not once per patch.
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
    fold = _HeldRowFold(counter)
    indices = sorted({i for g in grids for i in g.patches})
    for index in indices:
        stack = [g.patches[index] for g in grids if index in g.patches]
        out.patches[index] = _or_patches(stack, r_req, fold)
    fold.flush()
    return out


def discount_grid(grid: GridMap, alpha: float) -> GridMap:
    """Cell-wise reliability discount of a whole map (fresh value).

    ``alpha`` must lie in [0, 1], as for :func:`~apgm.evidence.discount`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"reliability factor must be in [0, 1], got {alpha}")
    scale = np.float32(alpha)
    out = GridMap(grid.config)
    for index, patch in grid.patches.items():
        fresh = Patch(index)
        for type_name, layer in patch.layers.items():
            fresh.layers[type_name] = Layer(
                layer.type_name,
                layer.frame,
                layer.step,
                layer.masses * scale,
            )
        out.patches[index] = fresh
    return out


def temporal_update(
    previous: GridMap,
    current,
    r_req: dict[str, int],
    alpha_age: float,
    counter: ConflictCounter | None = None,
) -> GridMap:
    """Age the previous map and fuse in the cycle's grids.

    ``current`` lists the cycle's measurement grids. The previous map,
    discounted by ``alpha_age`` (the runner passes its ``temporal_alpha``),
    is folded first, then the grids in their order. With ``alpha_age`` 0
    the history is fully vacuous and is dropped entirely, so the result
    equals the current measurement fusion. At least one grid must remain
    to fold; the result is not culled. Any other ``alpha_age`` goes through
    :func:`discount_grid`, which refuses one outside [0, 1].
    """
    grids = list(current)
    if alpha_age != 0.0:
        grids.insert(0, discount_grid(previous, alpha_age))
    return fuse_grids(grids, r_req, counter)  # perfbench reads arg 3
