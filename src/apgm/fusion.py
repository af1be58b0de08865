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
fusion take unions over types and patch indices. A cell in total conflict
is reset to vacuous and counted; there is no other policy.
:func:`temporal_update` folds the aged previous map and the cycle's grids
in one grid fusion; the scenario runner fuses through it.

Concurrency contract: all inputs are read-only; the fused grid is a fresh
value. Each output patch index is produced by exactly one fold, so a driver
may process different indices in parallel with a single writer per patch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DatumMismatchError, EdgeMismatchError, TotalConflictError
from .evidence import BBA, ConflictCounter, combine_dst, vacuous
from .grid import GridMap, Layer, Patch
from .kernels import combine_masses, total_conflict
from .requirements import RequirementProfile, cull_outside_horizon, required_step
from .resample import resample_layer


@dataclass
class FusionPolicy:
    """Per-type fusion parameters.

    ``r_req`` caps the fused resolution step per type; types missing from
    it keep their best available resolution. ``alpha_age`` discounts the
    previous map per temporal update (1 = no aging, 0 = per-cycle mode);
    its default here is the one the scenario runner also uses.
    """

    r_req: dict[str, int] = field(default_factory=dict)
    alpha_age: float = 0.95

    @classmethod
    def from_profile(
        cls,
        profile: RequirementProfile,
        edge_length: float,
        alpha_age: float | None = None,
    ) -> "FusionPolicy":
        steps = {
            t: required_step(profile, t, edge_length)
            for t in profile.active_types()
        }
        if alpha_age is None:
            return cls(r_req=steps)
        return cls(r_req=steps, alpha_age=alpha_age)


def fuse_cells(cells, counter: ConflictCounter | None = None) -> BBA:
    """Left fold of Dempster combination over co-located cells."""
    cells = list(cells)
    if not cells:
        raise ValueError("need at least one cell to fuse")
    acc = cells[0]
    for nxt in cells[1:]:
        try:
            acc, _ = combine_dst(acc, nxt)
        except TotalConflictError:
            if counter is not None:
                counter.add(1)
            acc = vacuous(acc.frame)
    return acc


def fuse_layers(
    layers, r_req: int, counter: ConflictCounter | None = None
) -> Layer:
    """Fuse same-type layers of one patch footprint at step min(r_req, max r).

    The result and the total-conflict count equal the left fold of
    Dempster's rule over every cell, bit for bit. Only the rows that at
    least two inputs hold, or that carry a sign bit, are gathered and
    folded in input order; every other row is the bitwise OR of the inputs'
    rows, which is its one holder's row or zero. Precondition: each
    single-holder row sums to at most 2, as in every layer that
    :meth:`GridMap.check` accepts (see :func:`~apgm.kernels.combine_masses`).
    """
    layers = list(layers)
    if not layers:
        raise ValueError("need at least one layer to fuse")
    r_fused = min(r_req, max(l.step for l in layers))
    resampled = [resample_layer(l, r_fused) for l in layers]
    first = layers[0]
    if len(resampled) == 1:
        return Layer(
            first.type_name, first.frame, r_fused, resampled[0].masses.copy()
        )
    masses = [np.ascontiguousarray(l.masses) for l in resampled]
    shape = masses[0].shape
    k = shape[-1]
    words = [_row_words(m) for m in masses]
    held = _row_any(words[0])
    fold = np.zeros_like(held)  # held by two or more inputs so far
    fused = words[0].copy()
    for w in words[1:]:
        h = _row_any(w)
        fold |= held & h
        held |= h
        fused |= w
    # A sign bit marks a -0.0 (or a negative mass): the rule would turn a
    # -0.0 into +0.0 where the row sums to at most 1, so such rows fold too.
    fold |= _row_any(fused & _SIGN_BITS[fused.dtype.type])
    rows = np.flatnonzero(fold)
    if len(rows):
        row = np.dtype((np.void, masses[0].itemsize * k))

        def gather(m):
            return m.reshape(-1, k).view(row)[rows, 0].view(np.float32).reshape(-1, k)

        # Three buffers serve the whole fold; each step writes the spare
        # accumulator, which then becomes the current one.
        acc = gather(masses[0]).astype(np.float64)
        nxt, spare = np.empty_like(acc), np.empty_like(acc)
        conflict = np.empty(len(rows))
        for m in masses[1:]:
            nxt[...] = gather(m)
            combine_masses(acc, nxt, spare, conflict)
            acc, spare = spare, acc
            if counter is not None:
                counter.add(np.count_nonzero(total_conflict(conflict)))
        fused.view(row)[rows, 0] = acc.astype(np.float32).view(row)[:, 0]
    return Layer(
        first.type_name, first.frame, r_fused, fused.view(np.float32).reshape(shape)
    )


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
    policy: FusionPolicy,
    counter: ConflictCounter | None = None,
) -> Patch:
    """Fuse same-index patches; the type set is the union of the inputs'."""
    patches = list(patches)
    if not patches:
        raise ValueError("need at least one patch to fuse")
    index = patches[0].index
    if any(p.index != index for p in patches):
        raise ValueError("patch indices differ")
    out = Patch(index)
    type_names = sorted({t for p in patches for t in p.layers})
    for type_name in type_names:
        stack = [p.layers[type_name] for p in patches if type_name in p.layers]
        r_req = policy.r_req.get(type_name, max(l.step for l in stack))
        out.layers[type_name] = fuse_layers(stack, r_req, counter)
    return out


def fuse_grids(
    grids,
    policy: FusionPolicy,
    counter: ConflictCounter | None = None,
) -> GridMap:
    """Fuse grid maps sharing datum and edge length; indices take the union."""
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
    out = GridMap(base)
    indices = sorted({i for g in grids for i in g.patches})
    for index in indices:
        stack = [g.patches[index] for g in grids if index in g.patches]
        out.patches[index] = fuse_patches(stack, policy, counter)
    return out


def discount_grid(grid: GridMap, alpha: float) -> GridMap:
    """Cell-wise reliability discount of a whole map (fresh value)."""
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
    previous: GridMap | None,
    current,
    policy: FusionPolicy,
    profile: RequirementProfile | None = None,
    counter: ConflictCounter | None = None,
) -> GridMap:
    """Age the previous map, fuse in the cycle's grids, cull to the horizon.

    ``current`` lists the cycle's measurement grids. The previous map,
    discounted by ``policy.alpha_age``, is folded first, then the grids in
    their order. With ``alpha_age`` 0 the history is fully vacuous and is
    dropped entirely, so the result equals the current measurement fusion.
    At least one grid must remain to fold.
    """
    grids = list(current)
    if previous is not None and policy.alpha_age > 0.0:
        grids.insert(0, discount_grid(previous, policy.alpha_age))
    fused = fuse_grids(grids, policy, counter)  # perfbench reads arg 3
    if profile is not None:
        cull_outside_horizon(fused, profile)
    return fused
