"""Hot numeric kernels: ray-batch grid traversal and cell-wise combination.

These two kernels dominate a mapping cycle: hundreds of rays times hundreds
of cells, plus Dempster folds over whole layers. Both are plain numpy.
``traverse_rays`` walks the whole ray batch at once and emits exactly the
cells, in order, of the per-ray reference walk ``_traverse_rays_impl``,
which it keeps as the fallback for the few rays whose crossings are too
close to order safely. It numbers each cell x-major in one box holding
every ray's origin and end cell, so a single running sum yields the
numbers the occupancy builder counts. ``combine_masses`` works on one
column view per hypothesis: numpy reduces a short last axis far slower
than it adds columns, and a left-to-right chain of column adds is the
order ``sum(axis=-1)`` uses, so the results are the same bit for bit.
``python3 perfbench/run.py --workload parking --seed 1 --seconds 36
--trace 1`` times both kernels per emitted cell
(``kernels.*.ns_per_cell``) on inputs captured from a real cycle.

Traversal coordinates are pre-scaled so cells are unit squares:
u = (x - datum) / w. Cell binning is floor(u), matching the half-open
cell convention used by the container module.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CellOutOfBoundsError

# No kernel is compiled; kept so run records can state the kernel path.
USING_NUMBA = False

# Rays beyond this many cells from the datum (or non-finite) take the
# reference walk: the lattice arithmetic below relies on float64 holding
# cell indices plus crossing counts exactly.
_LATTICE_LIMIT = 2.0**50
_ULP = 2.0**-52
# Box numbers and corners are int64; larger boxes are refused, not wrapped.
_BOX_LIMIT = 2**62


def _traverse_rays_impl(u0, v0, u1, v1, cap):
    """Reference grid walk for a batch of segments (Amanatides & Woo style).

    Emits, for every ray, the cells strictly between the origin cell and
    the endpoint cell, in traversal order. Exact corner crossings step
    diagonally, so only cells whose interior the segment passes through
    are emitted. Returns flat (x, y) cell-coordinate arrays of length n.
    The walk runs on Python floats, so a subnormal direction gives an
    infinite step parameter silently, as IEEE division does.
    """
    out_x = np.empty(cap, dtype=np.int64)
    out_y = np.empty(cap, dtype=np.int64)
    n = 0
    rays = (np.asarray(w, dtype=np.float64).tolist() for w in (u0, v0, u1, v1))
    for ax, ay, bx, by in zip(*rays):
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


def _end_cell_bounds(u0, v0, u1, v1):
    """Lowest and highest (x, y) over every ray's origin and end cell."""
    if len(u0) == 0:
        return [0, 0], [-1, -1]
    lo = [np.minimum(a.min(), b.min()) for a, b in ((u0, u1), (v0, v1))]
    hi = [np.maximum(a.max(), b.max()) for a, b in ((u0, u1), (v0, v1))]
    if not np.isfinite(lo + hi).all():
        # The reference walk raises on its first non-finite ray.
        bad = ~(np.isfinite(u0) & np.isfinite(v0) & np.isfinite(u1) & np.isfinite(v1))
        i = int(np.flatnonzero(bad)[0])
        one = slice(i, i + 1)
        _traverse_rays_impl(u0[one], v0[one], u1[one], v1[one], 1)
    return [math.floor(v) for v in lo], [math.floor(v) for v in hi]


def _cell_box(lo, hi):
    """``[x0, y0, nx, ny]`` (int64) from inclusive cell bounds, refused where
    int64 box numbers or corners could wrap."""
    (x0, y0), (x1, y1) = lo, hi
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    if nx * ny > _BOX_LIMIT or min(x0, y0) < -_BOX_LIMIT or max(x1, y1) >= _BOX_LIMIT:
        raise CellOutOfBoundsError(
            f"rays span cells ({x0}, {y0}) to ({x1}, {y1}); a box of over "
            f"2^62 cells or beyond +-2^62 cannot be numbered in int64"
        )
    return np.array([x0, y0, nx, ny], dtype=np.int64)


def box_cells(cells, box):
    """Decode box numbers from :func:`traverse_rays` into (x, y) arrays."""
    x0, y0, _, ny = (int(v) for v in box)
    xs, ys = np.divmod(cells, max(ny, 1))
    return xs + x0, ys + y0


def traverse_rays(u0, v0, u1, v1, cap):
    """Batch form of :func:`_traverse_rays_impl`, numbering cells in a box.

    Returns ``(cells, box)``. ``box = [x0, y0, nx, ny]`` (int64) is the
    cell rectangle holding every ray's origin and end cell (and the few
    cells the reference walk's rounding emits past an end cell); ``cells``
    holds ``(x - x0) * ny + (y - y0)`` for exactly the cells, in the
    order, that the reference walk emits, cut at ``cap``
    (:func:`box_cells` decodes them). A box of more than 2**62 cells
    raises :class:`CellOutOfBoundsError`; a non-finite ray raises as the
    reference walk does.

    A ray's k-th crossing of an x boundary lies at t = (qx + k) / |dx|,
    where qx is the distance from u0 to the first boundary ahead; the
    same holds for y. The first crossing per axis uses the reference
    walk's own expression, so an exact corner tie there (an origin on a
    lattice corner) resolves bit for bit into one diagonal step. Each x
    crossing is placed in the ray's merged event order by counting the y
    crossings before it; y crossings fill the remaining slots. A box
    number is linear in (x, y), so each event adds ``step_x * ny +
    step_y`` and one running sum over the batch gives every cell.

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
    lo, hi = _end_cell_bounds(u0, v0, u1, v1)
    _cell_box(lo, hi)  # refuse an oversized box before walking anything
    span = np.maximum.reduce([np.abs(u0), np.abs(v0), np.abs(u1), np.abs(v1)])
    flag = ~(span < _LATTICE_LIMIT)
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
    # Free the ordering checks' arrays before the event arrays are built.
    del t, qyr, adyr, nyr, tolr, first, below, above, bad

    # Flagged rays take the reference walk. Its rounding can carry a ray
    # ending on a cell boundary one cell past its end cell, so the box
    # also holds every cell these walks emit.
    fallback = np.flatnonzero(flag)
    walks = []
    for r in fallback:
        one = slice(r, r + 1)
        fx, fy = _traverse_rays_impl(u0[one], v0[one], u1[one], v1[one], cap)
        walks.append((fx, fy))
        if len(fx):
            lo = [min(lo[0], int(fx.min())), min(lo[1], int(fy.min()))]
            hi = [max(hi[0], int(fx.max())), max(hi[1], int(fy.max()))]
    box = _cell_box(lo, hi)
    x0, y0, _, stride = (int(v) for v in box)

    # Merged events per ray (a corner tie is one diagonal step); the last
    # one enters the end cell, which is not emitted. A y step adds 1 to
    # the box number, an x step adds the stride, a diagonal step both. A
    # fallback ray's events step through its walk's cells to its end cell.
    n_events = np.where(flag, 0, nx + ny - tie)
    n_events[fallback] = [len(fx) + 1 for fx, _ in walks]
    start = np.cumsum(n_events) - n_events
    ok = ~np.repeat(flag, nx)
    at_x = (np.repeat(start, nx) + k + c - tier)[ok]
    step = np.repeat(sy, n_events)
    step[at_x] = np.repeat(sx * stride, nx)[ok]
    diag = np.flatnonzero(tie & ~flag)
    step[start[diag]] += sy[diag]
    live = np.flatnonzero(n_events)
    origin = _box_numbers(u0[live], v0[live], x0, y0, stride)
    end = _box_numbers(u1[live], v1[live], x0, y0, stride)
    at = np.searchsorted(live, fallback)
    for r, i, (fx, fy) in zip(fallback, at, walks):
        path = (fx - x0) * stride + (fy - y0)
        step[start[r] : start[r] + len(path) + 1] = np.diff(
            path, prepend=origin[i], append=end[i]
        )
    # Chain the rays into one running sum: each starts from its origin
    # cell, and the one before it ended in its end cell.
    first_at = start[live]
    step[first_at] += origin
    step[first_at[1:]] -= end[:-1]
    emit = np.ones(len(step), dtype=bool)
    emit[first_at + n_events[live] - 1] = False
    return np.cumsum(step, out=step)[emit][:cap], box


def _box_numbers(u, v, x0, y0, stride):
    """Box numbers of the cells holding the points (u, v)."""
    x = np.floor(u).astype(np.int64) - x0
    return x * stride + (np.floor(v).astype(np.int64) - y0)


def _row_sums(cols):
    """Per-row sum of columns, added left to right into a fresh array.

    numpy's ``sum(axis=-1)`` over a short last axis adds in this same
    order, so the result is bit-identical to it.
    """
    total = cols[0] + cols[1]
    for col in cols[2:]:
        total += col
    return total


def combine_masses(a, b, out, conflict):
    """Dempster combination per row; singleton masses, frame mass implicit.

    Total-conflict rows (K >= 1 - 1e-12) come back vacuous; the caller
    reads the conflict array. Inputs are float64 rows of shape (n, k),
    k >= 2, handled as one column view per hypothesis.
    """
    k = a.shape[1]
    ac = [a[:, j] for j in range(k)]
    bc = [b[:, j] for j in range(k)]
    sa = _row_sums(ac)
    sb = _row_sums(bc)
    agree = [x * y for x, y in zip(ac, bc)]
    np.multiply(sa, sb, out=conflict)
    conflict -= _row_sums(agree)
    wa = np.subtract(1.0, sa, out=sa)
    wb = np.subtract(1.0, sb, out=sb)
    safe = 1.0 - conflict
    dead = safe <= 1e-12
    safe[dead] = 1.0
    fused = agree
    for f, x, y in zip(fused, ac, bc):
        f += x * wb
        f += y * wa
        f /= safe
    omega = np.multiply(wa, wb, out=wa)
    omega /= safe
    scale = _row_sums(fused)
    scale += omega
    scale[scale <= 0.0] = 1.0
    for j, f in enumerate(fused):
        np.divide(f, scale, out=out[:, j])
    out[dead] = 0.0
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
