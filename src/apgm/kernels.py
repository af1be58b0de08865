"""Hot numeric kernels: ray-batch grid traversal and cell-wise combination.

These two kernels dominate a mapping cycle: hundreds of rays times hundreds
of cells, plus Dempster folds over whole layers. Both are plain numpy.
``traverse_rays`` walks the whole ray batch at once and emits exactly the
cells, in order, of the per-ray reference walk ``_traverse_rays_impl``,
which it keeps as the fallback for the few rays whose crossings are too
close to order safely (0.2-0.6 % of the rays of a scenario scan). The
walk is symmetric in x and y, so each ray places the crossings of its
minor axis among those of its major axis, and the ordering check costs
one pass over min(nx, ny) crossings per ray. Cells are numbered x-major
in the rectangle of every ray's origin and end cell (the reference walk
stops at its end cell), so a single running sum yields the numbers the
occupancy builder counts. Walk memory is O(emitted cells): ``cap``
bounds the output but reserves nothing, so each fallback ray costs only
the cells it emits. ``combine_masses`` works on one
column view per hypothesis: numpy reduces a short last axis far slower
than it adds columns, and a left-to-right chain of column adds is the
order ``sum(axis=-1)`` uses, so the results are the same bit for bit.
``python3 perfbench/run.py --workload parking --seed 1 --seconds 36
--trace 1`` times both kernels per emitted cell
(``kernels.*.ns_per_cell``) on inputs captured from a real cycle.

Traversal coordinates are pre-scaled so cells are unit squares:
u = (x - datum) / w. Cell binning is floor(u), matching the half-open
cell convention used by the container module. A non-finite coordinate
raises :class:`~apgm.errors.NonFiniteInputError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CellOutOfBoundsError, NonFiniteInputError

# No kernel is compiled; kept so run records can state the kernel path.
USING_NUMBA = False

# Rays beyond this many cells from the datum take the reference walk: the
# lattice arithmetic below relies on float64 holding cell indices plus
# crossing counts exactly.
_LATTICE_LIMIT = 2.0**50
_ULP = 2.0**-52
# Box numbers and corners are int64; larger boxes are refused, not wrapped.
_BOX_LIMIT = 2**62
# Conflict at or above this leaves at most 1e-12 mass to renormalize.
_TOTAL_CONFLICT = 1.0 - 1e-12


def _traverse_rays_impl(u0, v0, u1, v1, cap):
    """Reference grid walk for a batch of segments (Amanatides & Woo style).

    Emits, for every ray, the cells strictly between the origin cell and
    the endpoint cell, in traversal order. Exact corner crossings step
    diagonally, so only cells whose interior the segment passes through
    are emitted. A ray whose summed parameters carry it past its end cell
    on either axis (it ends on a cell boundary) stops there, so every cell
    lies in its origin/end rectangle. Returns flat (x, y) cell-coordinate
    arrays of length n.
    Cells are collected in lists, so memory is O(n); ``cap`` only bounds n.
    The walk runs on Python floats, so a subnormal direction gives an
    infinite step parameter silently, as IEEE division does.
    """
    out_x = []
    out_y = []
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
            if (cx - ex) * sx > 0 or (cy - ey) * sy > 0:
                break  # rounding carried the walk past its end cell
            if len(out_x) >= cap:  # unreachable when cap >= ray_cell_cap
                break
            out_x.append(cx)
            out_y.append(cy)
    return np.array(out_x, dtype=np.int64), np.array(out_y, dtype=np.int64)


def _end_cell_bounds(u0, v0, u1, v1):
    """Lowest and highest (x, y) over every ray's origin and end cell."""
    if len(u0) == 0:
        return [0, 0], [-1, -1]
    lo = [np.minimum(a.min(), b.min()) for a, b in ((u0, u1), (v0, v1))]
    hi = [np.maximum(a.max(), b.max()) for a, b in ((u0, u1), (v0, v1))]
    if not np.isfinite(lo + hi).all():
        raise NonFiniteInputError("a ray holds a NaN or inf coordinate")
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
    cell rectangle holding every ray's origin and end cell; ``cells``
    holds ``(x - x0) * ny + (y - y0)`` for exactly the cells, in the
    order, that the reference walk emits, cut at ``cap``
    (:func:`box_cells` decodes them). A box of more than 2**62 cells
    raises :class:`CellOutOfBoundsError` and a non-finite ray
    :class:`NonFiniteInputError`.

    Memory stays O(emitted cells + rays): a batch that could emit more
    than ``cap`` cells (:func:`ray_cell_cap`) takes the reference walk,
    which stops at ``cap``. Library calls pass ``ray_cell_cap``, so they
    never do.

    A ray's k-th crossing of an x boundary lies at t = (qx + k) / |dx|,
    where qx is the distance from u0 to the first boundary ahead; the
    same holds for y. The first crossing per axis uses the reference
    walk's own expression, so an exact corner tie there (an origin on a
    lattice corner) resolves bit for bit into one diagonal step. Each ray
    places the crossings of its minor axis m, the one with fewer crossings
    (y where ny < nx, else x), in its merged event order by counting the
    major-axis crossings before each; major crossings fill the remaining
    slots. The walk treats x and y alike, so this orders the events as it
    does, and the check costs sum(min(nx, ny)) crossings, not sum(nx). A
    box number is linear in (x, y), so each event adds ``step_x * ny +
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
    # Refuse an oversized box before walking anything.
    box = _cell_box(*_end_cell_bounds(u0, v0, u1, v1))
    x0, y0, _, stride = (int(v) for v in box)
    if ray_cell_cap(u0, v0, u1, v1) > cap:
        xs, ys = _traverse_rays_impl(u0, v0, u1, v1, cap)
        return (xs - x0) * stride + (ys - y0), box
    span = np.maximum.reduce([np.abs(u0), np.abs(v0), np.abs(u1), np.abs(v1)])
    flag = span >= _LATTICE_LIMIT
    a0, b0, a1, b1 = (np.where(flag, 0.0, w) for w in (u0, v0, u1, v1))
    cx, cy, ex, ey = np.floor(a0), np.floor(b0), np.floor(a1), np.floor(b1)
    dx = a1 - a0
    dy = b1 - b0
    step_x = np.where(dx > 0.0, stride, -stride)
    step_y = np.where(dy > 0.0, 1, -1)
    qx = np.where(dx > 0.0, (cx + 1.0) - a0, a0 - cx)
    qy = np.where(dy > 0.0, (cy + 1.0) - b0, b0 - cy)
    adx = np.abs(dx)
    ady = np.abs(dy)
    nx = np.abs(ex - cx).astype(np.int64)
    ny = np.abs(ey - cy).astype(np.int64)
    tol = (nx + ny + 16) * _ULP  # >= 2 * (i + 6 + j + 6) * 2**-53 per pair
    # Each ray places the crossings of its minor axis m (fewer crossings)
    # among those of its major axis M; the walk is symmetric in x and y.
    minor_y = ny < nx
    q_m, q_M = np.where(minor_y, qy, qx), np.where(minor_y, qx, qy)
    ad_m, ad_M = np.where(minor_y, ady, adx), np.where(minor_y, adx, ady)
    n_m, n_M = np.minimum(nx, ny), np.maximum(nx, ny)
    step_m = np.where(minor_y, step_y, step_x)
    step_M = np.where(minor_y, step_x, step_y)

    with np.errstate(all="ignore"):
        tie = (n_m > 0) & (q_m / ad_m == q_M / ad_M)
        # Every crossing up to the end cell must lie safely below t = 1.
        # The next one lies at t >= 1 - ulp, so it then stays last too.
        for q, ad, n in ((qx, adx, nx), (qy, ady, ny)):
            flag |= (n > 0) & ((q + (n - 1)) / ad >= 1.0 - tol)

        # Minor-axis crossings, flat over the batch: index k within its ray.
        k = np.arange(n_m.sum()) - np.repeat(np.cumsum(n_m) - n_m, n_m)
        t = (np.repeat(q_m, n_m) + k) / np.repeat(ad_m, n_m)
        qr, adr, nr, tolr = (np.repeat(w, n_m) for w in (q_M, ad_M, n_M, tol))
        tier = np.repeat(tie, n_m)
        # c = number of major crossings at or before t: a guess from the
        # major position, then checked against its two neighbouring crossings.
        c = np.floor(t * adr - qr).astype(np.int64) + 1
        np.clip(c, 0, nr, out=c)
        first = k == 0
        c[first & tier] = 1
        below = (qr + (c - 1)) / adr
        above = (qr + c) / adr
        # Pairs of first crossings compare exactly as in the walk.
        bad = (c > 0) & ((below > t) | ((t - below <= tolr) & ~(first & (c == 1))))
        bad |= (c < nr) & ((above <= t) | ((above - t <= tolr) & ~(first & (c == 0))))
    flag[np.repeat(np.arange(len(n_m)), n_m)[bad]] = True
    # Free the ordering checks' arrays before the event arrays are built.
    del t, qr, adr, nr, tolr, first, below, above, bad

    # Flagged rays take the reference walk, which stops at its end cell.
    fallback = np.flatnonzero(flag)
    walks = []
    for r in fallback:
        one = slice(r, r + 1)
        walks.append(_traverse_rays_impl(u0[one], v0[one], u1[one], v1[one], cap))

    # Merged events per ray (a corner tie is one diagonal step); the last
    # one enters the end cell, which is not emitted. A y step adds 1 to
    # the box number, an x step adds the stride, a diagonal step both. A
    # fallback ray's events step through its walk's cells to its end cell.
    n_events = np.where(flag, 0, nx + ny - tie)
    n_events[fallback] = [len(fx) + 1 for fx, _ in walks]
    start = np.cumsum(n_events) - n_events
    ok = ~np.repeat(flag, n_m)
    at_m = (np.repeat(start, n_m) + k + c - tier)[ok]
    step = np.repeat(step_M, n_events)
    step[at_m] = np.repeat(step_m, n_m)[ok]
    diag = np.flatnonzero(tie & ~flag)
    step[start[diag]] += step_M[diag]
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


def total_conflict(conflict):
    """Whether a conflict K leaves no mass to renormalize: 1 - K <= 1e-12.

    :func:`combine_masses` returns these rows vacuous; every caller that
    counts or raises on total conflict uses this same test. It compares K
    itself, which needs no temporary: 1 - K is exact for K >= 1/2, so
    K >= fl(1 - 1e-12) holds for exactly the same float64 values.
    """
    return np.greater_equal(conflict, _TOTAL_CONFLICT)


def combine_masses(a, b, out, conflict):
    """Dempster combination per row; singleton masses, frame mass implicit.

    Total-conflict rows (:func:`total_conflict`) come back vacuous; the
    caller reads the conflict array. Inputs are float64 rows of shape
    (n, k), k >= 2, handled as one column view per hypothesis.

    Combining a row with an all-zero row, in either order, returns the row
    bit for bit with conflict exactly 0 when the row sums to s in [0, 2]
    and has no -0.0 entry: the scale s + fl(1 - s) rounds to exactly 1
    (1 - s is exact for s >= 1/2, and below that its rounding error is
    under half a spacing of 1). A -0.0 entry comes back +0.0 where s <= 1.
    :func:`~apgm.fusion.fuse_layers` relies on this to skip such rows.
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
    dead = total_conflict(conflict)
    safe = 1.0 - conflict
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
    per ray cover every start/end alignment; a non-finite ray raises.
    """
    dx = np.abs(np.floor(u1) - np.floor(u0))
    dy = np.abs(np.floor(v1) - np.floor(v0))
    cap = (dx + dy + 3.0).sum()
    if not np.isfinite(cap):
        raise NonFiniteInputError("a ray holds a NaN or inf coordinate")
    return int(cap)
