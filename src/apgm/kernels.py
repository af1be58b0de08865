"""Hot numeric kernels: ray-batch grid traversal and cell-wise combination.

These two kernels dominate a mapping cycle: hundreds of rays times hundreds
of cells, plus Dempster folds over whole layers. Both are plain numpy.
``traverse_rays`` walks the whole ray batch at once and returns exactly
what the per-ray reference walk ``_traverse_rays_impl`` returns, which it
keeps as the fallback for the few rays whose crossings are too close to
order safely. ``python3 perfbench/run.py --workload parking --seed 1
--seconds 36 --trace 1`` times both kernels per emitted cell
(``kernels.*.ns_per_cell``) on inputs captured from a real cycle.

Traversal coordinates are pre-scaled so cells are unit squares:
u = (x - datum) / w. Cell binning is floor(u), matching the half-open
cell convention used by the container module.
"""

from __future__ import annotations

import math

import numpy as np

# No kernel is compiled; kept so run records can state the kernel path.
USING_NUMBA = False

# Rays beyond this many cells from the datum (or non-finite) take the
# reference walk: the lattice arithmetic below relies on float64 holding
# cell indices plus crossing counts exactly.
_LATTICE_LIMIT = 2.0**50
_ULP = 2.0**-52


def _traverse_rays_impl(u0, v0, u1, v1, cap):
    """Reference grid walk for a batch of segments (Amanatides & Woo style).

    Emits, for every ray, the cells strictly between the origin cell and
    the endpoint cell, in traversal order. Exact corner crossings step
    diagonally, so only cells whose interior the segment passes through
    are emitted. Returns flat (x, y) cell-coordinate arrays of length n.
    """
    out_x = np.empty(cap, dtype=np.int64)
    out_y = np.empty(cap, dtype=np.int64)
    n = 0
    for i in range(u0.shape[0]):
        ax = u0[i]
        ay = v0[i]
        bx = u1[i]
        by = v1[i]
        cx = int(math.floor(ax))
        cy = int(math.floor(ay))
        ex = int(math.floor(bx))
        ey = int(math.floor(by))
        if cx == ex and cy == ey:
            continue
        dx = bx - ax
        dy = by - ay
        sx = 1 if dx > 0.0 else -1
        sy = 1 if dy > 0.0 else -1
        if dx != 0.0:
            tmax_x = ((cx + 1 if sx > 0 else cx) - ax) / dx
            tdelta_x = sx / dx
        else:
            tmax_x = math.inf
            tdelta_x = math.inf
        if dy != 0.0:
            tmax_y = ((cy + 1 if sy > 0 else cy) - ay) / dy
            tdelta_y = sy / dy
        else:
            tmax_y = math.inf
            tdelta_y = math.inf
        while True:
            if tmax_x < tmax_y:
                t = tmax_x
                cx += sx
                tmax_x += tdelta_x
            elif tmax_y < tmax_x:
                t = tmax_y
                cy += sy
                tmax_y += tdelta_y
            else:
                t = tmax_x
                cx += sx
                cy += sy
                tmax_x += tdelta_x
                tmax_y += tdelta_y
            if t >= 1.0:
                break
            if cx == ex and cy == ey:
                break
            if n >= cap:  # capacity guard; ray_cell_cap makes this unreachable
                break
            out_x[n] = cx
            out_y[n] = cy
            n += 1
    return out_x[:n], out_y[:n]


def traverse_rays(u0, v0, u1, v1, cap):
    """Batch form of :func:`_traverse_rays_impl`, with identical output.

    A ray's k-th crossing of an x boundary lies at t = (qx + k) / |dx|,
    where qx is the distance from u0 to the first boundary ahead; the
    same holds for y. The first crossing per axis uses the reference
    walk's own expression, so an exact corner tie there (an origin on a
    lattice corner) resolves bit for bit into one diagonal step. Each x
    crossing is placed in the ray's merged event order by counting the y
    crossings before it; y crossings fill the remaining slots, and a
    running sum of the steps gives the cells.

    The reference walk accumulates ``tmax += tdelta``, so for t <= 1 its
    k-th crossing parameter deviates from the direct one by at most
    (k + 6) * 2**-53 (k + 3 from the sums, 3 from the direct form); the
    first crossings agree exactly. A ray with an x and a y crossing (other
    than the two first ones) within twice the pair's bound of each other,
    or a crossing before its end cell within that of t = 1, could be
    ordered differently by the walk and is handed to
    ``_traverse_rays_impl``. The bound grows with the crossing count, so
    no fixed tolerance is safe for long rays at fine steps.
    """
    u0 = np.asarray(u0, dtype=np.float64)
    v0 = np.asarray(v0, dtype=np.float64)
    u1 = np.asarray(u1, dtype=np.float64)
    v1 = np.asarray(v1, dtype=np.float64)
    span = np.maximum.reduce([np.abs(u0), np.abs(v0), np.abs(u1), np.abs(v1)])
    flag = ~(span < _LATTICE_LIMIT)  # also catches NaN
    a0, b0, a1, b1 = (np.where(flag, 0.0, w) for w in (u0, v0, u1, v1))
    cx, cy, ex, ey = np.floor(a0), np.floor(b0), np.floor(a1), np.floor(b1)
    dx = a1 - a0
    dy = b1 - b0
    sx = np.where(dx > 0.0, 1, -1)
    sy = np.where(dy > 0.0, 1, -1)
    qx = np.where(dx > 0.0, (cx + 1.0) - a0, a0 - cx)
    qy = np.where(dy > 0.0, (cy + 1.0) - b0, b0 - cy)
    adx = np.abs(dx)
    ady = np.abs(dy)
    nx = np.abs(ex - cx).astype(np.int64)
    ny = np.abs(ey - cy).astype(np.int64)
    tol = (nx + ny + 16) * _ULP  # >= 2 * (i + 6 + j + 6) * 2**-53 per pair

    with np.errstate(all="ignore"):
        tie = (nx > 0) & (ny > 0) & (qx / adx == qy / ady)
        # Every crossing up to the end cell must lie safely below t = 1.
        # The next one lies at t >= 1 - ulp, so it then stays last too.
        for q, ad, n in ((qx, adx, nx), (qy, ady, ny)):
            flag |= (n > 0) & ((q + (n - 1)) / ad >= 1.0 - tol)

        # x crossings, flat over the batch: index k within its ray.
        k = np.arange(nx.sum()) - np.repeat(np.cumsum(nx) - nx, nx)
        t = (np.repeat(qx, nx) + k) / np.repeat(adx, nx)
        qyr, adyr, nyr, tolr = (np.repeat(w, nx) for w in (qy, ady, ny, tol))
        tier = np.repeat(tie, nx)
        # c = number of y crossings at or before t: a guess from the y
        # position, then checked against its two neighbouring crossings.
        c = np.floor(t * adyr - qyr).astype(np.int64) + 1
        np.clip(c, 0, nyr, out=c)
        first = k == 0
        c[first & tier] = 1
        below = (qyr + (c - 1)) / adyr
        above = (qyr + c) / adyr
        # Pairs of first crossings compare exactly as in the walk.
        bad = (c > 0) & ((below > t) | ((t - below <= tolr) & ~(first & (c == 1))))
        bad |= (c < nyr) & ((above <= t) | ((above - t <= tolr) & ~(first & (c == 0))))
    flag[np.repeat(np.arange(len(nx)), nx)[bad]] = True

    # Merged events per ray (a corner tie is one diagonal step); the last
    # one enters the end cell, which is not emitted.
    n_events = np.where(flag, 0, nx + ny - tie)
    start = np.cumsum(n_events) - n_events
    ok = ~np.repeat(flag, nx)
    at_x = (np.repeat(start, nx) + k + c - tier)[ok]
    step_x = np.zeros(int(n_events.sum()), dtype=np.int64)
    step_x[at_x] = np.repeat(sx, nx)[ok]
    step_y = np.repeat(sy, n_events)
    step_y[at_x] = 0
    live = np.flatnonzero(n_events)
    diag = live[tie[live]]
    step_y[start[diag]] = sy[diag]
    # Chain the rays into one running sum: each starts from its origin
    # cell, and the one before it ended in its end cell.
    first_at = start[live]
    step_x[first_at] += cx[live].astype(np.int64)
    step_x[first_at[1:]] -= ex[live[:-1]].astype(np.int64)
    step_y[first_at] += cy[live].astype(np.int64)
    step_y[first_at[1:]] -= ey[live[:-1]].astype(np.int64)
    emit = np.ones(len(step_x), dtype=bool)
    emit[first_at + n_events[live] - 1] = False
    xs = np.cumsum(step_x)[emit]
    ys = np.cumsum(step_y)[emit]

    fallback = np.flatnonzero(flag)
    if len(fallback):
        emitted = np.maximum(n_events - 1, 0)
        cuts = (np.cumsum(emitted) - emitted)[fallback]
        parts_x, parts_y = [], []
        prev = 0
        for r, cut in zip(fallback, cuts):
            one = slice(r, r + 1)
            fx, fy = _traverse_rays_impl(u0[one], v0[one], u1[one], v1[one], cap)
            parts_x += [xs[prev:cut], fx]
            parts_y += [ys[prev:cut], fy]
            prev = cut
        xs = np.concatenate(parts_x + [xs[prev:]])
        ys = np.concatenate(parts_y + [ys[prev:]])
    return xs[:cap], ys[:cap]


def combine_masses(a, b, out, conflict):
    """Dempster combination per row; singleton masses, frame mass implicit.

    Total-conflict rows (K >= 1 - 1e-12) come back vacuous; the caller
    reads the conflict array. Inputs are float64 rows of shape (n, k).
    """
    sa = a.sum(axis=-1)
    sb = b.sum(axis=-1)
    wa = 1.0 - sa
    wb = 1.0 - sb
    agree = a * b
    np.copyto(conflict, sa * sb - agree.sum(axis=-1))
    norm = 1.0 - conflict
    dead = norm <= 1e-12
    safe = np.where(dead, 1.0, norm)
    fused = (agree + a * wb[:, None] + b * wa[:, None]) / safe[:, None]
    omega = wa * wb / safe
    scale = fused.sum(axis=-1) + omega
    scale = np.where(scale <= 0.0, 1.0, scale)
    fused /= scale[:, None]
    fused[dead] = 0.0
    np.copyto(out, fused)
    return out, conflict



def ray_cell_cap(u0, v0, u1, v1) -> int:
    """Upper bound on the number of cells a ray batch can emit.

    A ray crosses at most |du| + 1 vertical and |dv| + 1 horizontal
    boundaries at parameters below one, so floor deltas plus three slots
    per ray cover every start/end alignment.
    """
    dx = np.abs(np.floor(u1) - np.floor(u0))
    dy = np.abs(np.floor(v1) - np.floor(v0))
    return int((dx + dy + 3.0).sum())
