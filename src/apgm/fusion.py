"""Multi-level fusion: cells, layers, patches, grid maps.

Cross-source fusion uses Dempster's rule on every level: when two sensors
disagree about the same spot, conflict renormalization is the intended
behaviour. This is deliberately distinct from spatial merging during
resampling, where neighbouring free and occupied cells do not contradict
each other and Dempster's rule would erode occupied regions; the resample
module owns that case.

Layer fusion first brings all inputs to a common step r_fused, the demanded
step capped by the best available one, then combines cell-wise. Patch and
grid fusion take unions over types and patch indices. A cell in total
conflict is reset to vacuous and counted; there is no other policy.
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
from .evidence import (
    BBA,
    ConflictCounter,
    combine_dst,
    combine_mass_arrays,
    vacuous,
)
from .grid import GridMap, Layer, Patch
from .kernels import total_conflict
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
    """Fuse same-type layers of one patch footprint at step min(r_req, max r)."""
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
    acc = resampled[0].masses.astype(np.float64)
    for nxt in resampled[1:]:
        acc, conflict = combine_mass_arrays(acc, nxt.masses.astype(np.float64))
        if counter is not None:
            counter.add(np.count_nonzero(total_conflict(conflict)))
    return Layer(first.type_name, first.frame, r_fused, acc.astype(np.float32))


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
