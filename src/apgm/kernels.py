"""Hot numeric kernels: ray-batch grid traversal and cell-wise combination.

These two kernels dominate a mapping cycle: hundreds of rays times hundreds
of cells, plus Dempster folds over whole layers. Both are plain numpy.
``traverse_rays`` walks the whole ray batch at once and emits exactly the
cells, in order, of the per-ray reference walk ``_traverse_rays_impl``
(Amanatides & Woo, "A Fast Voxel Traversal Algorithm for Ray Tracing",
Eurographics 1987), which it keeps as the fallback for the few rays whose
crossings are too close to order safely (0.2-0.6 % of the rays of a
scenario scan). The walk is symmetric in x and y, so each ray places the
crossings of its minor axis among those of its major axis. One pass puts
each minor crossing in major-crossing units and clears those a proved
margin away from every major crossing; the exact ordering check runs
only on the rest (1-2 % of the crossings of a scenario scan). Cells are
numbered x-major in the rectangle of every ray's origin and end cell
(the reference walk stops at its end cell), so a single running sum over
one slot per emitted cell yields the numbers the occupancy builder
counts; no slot is built for the step into an end cell. Walk memory is
O(emitted cells): ``cap`` bounds the output but reserves nothing, so
each fallback ray costs only the cells it emits. ``combine_masses``
works on one column view per hypothesis: numpy reduces a short last axis
far slower than it adds columns, and a left-to-right chain of column
adds is the order ``sum(axis=-1)`` uses, so the results are the same bit
for bit; ``fold_masses`` is the one left fold of it over a stack.
``python3 perfbench/run.py --workload parking --seed 1 --seconds 36
--trace 1`` times both kernels per emitted cell
(``kernels.*.ns_per_cell``) on inputs captured from a real cycle.

Traversal coordinates are pre-scaled so cells are unit squares:
u = (x - datum) / w. Cell binning is floor(u), matching the half-open
cell convention used by the container module. A cell outside
[-2^31, 2^31) (``CELL_RANGE``) raises :class:`~apgm.errors.CellOutOfBoundsError`
and a non-finite coordinate :class:`~apgm.errors.NonFiniteInputError`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CellOutOfBoundsError, NonFiniteInputError

# No kernel is compiled; kept so run records can state the kernel path.
USING_NUMBA = False

# Cell coordinates lie in [-CELL_RANGE, CELL_RANGE) at every step, where
# float64 holds cell indices plus crossing counts exactly.
CELL_RANGE = 1 << 31
_ULP = 2.0**-52
# A minor crossing at least this far, in major-crossing units, from every
# major one skips the exact ordering check on rays of under this many
# cells per axis (see traverse_rays for the proof).
_CLEAR_MARGIN = 2.0**-20
_CLEAR_CELLS = 2**15
# Box numbers are int64; larger boxes are refused, not wrapped.
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


def _cell_box(u0, v0, u1, v1):
    """``[x0, y0, nx, ny]`` (int64), the cell rectangle of every ray's origin
    and end cell, refused outside the cell range or where int64 box numbers
    could wrap."""
    if len(u0) == 0:
        return np.zeros(4, dtype=np.int64)
    lo = [np.minimum(a.min(), b.min()) for a, b in ((u0, u1), (v0, v1))]
    hi = [np.maximum(a.max(), b.max()) for a, b in ((u0, u1), (v0, v1))]
    if not np.isfinite(lo + hi).all():
        raise NonFiniteInputError("a ray holds a NaN or inf coordinate")
    (x0, y0), (x1, y1) = ([math.floor(v) for v in w] for w in (lo, hi))
    nx, ny = x1 - x0 + 1, y1 - y0 + 1
    span = f"rays span cells ({x0}, {y0}) to ({x1}, {y1})"
    if min(x0, y0) < -CELL_RANGE or max(x1, y1) >= CELL_RANGE:
        raise CellOutOfBoundsError(f"{span}, outside the +-2^31 cell range")
    if nx * ny > _BOX_LIMIT:
        raise CellOutOfBoundsError(f"{span}: over 2^62 cells, too many for int64")
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
    (:func:`box_cells` decodes them). A box reaching outside
    [-``CELL_RANGE``, ``CELL_RANGE``) or of more than 2**62 cells raises
    :class:`CellOutOfBoundsError` before any cell is walked, and a
    non-finite ray :class:`NonFiniteInputError`.

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
    major-axis crossings before each (c); major crossings fill the
    remaining slots. The walk treats x and y alike, so this orders the
    events as it does. A box number is linear in (x, y), so each event
    adds ``step_x * ny + step_y``.

    The reference walk accumulates ``tmax += tdelta``, so for t <= 1 its
    k-th crossing parameter deviates from the direct one by at most
    (k + 6) * 2**-53 (k + 3 from the sums, 3 from the direct form); the
    first crossings agree exactly. A ray with an x and a y crossing (other
    than the two first ones) within twice the pair's bound, tol, of each
    other, or a crossing before its end cell within tol of t = 1, could be
    ordered differently by the walk and is handed to
    ``_traverse_rays_impl``. The bound grows with the crossing count, so
    no fixed tolerance is safe for long rays at fine steps.

    The exact check (:func:`_order_crossings`) is needed only near a tie.
    One pass places minor crossing k at x = (q_m + k) * (ad_M / ad_m) -
    q_M major-crossing units (major crossing j sits at x = j) and takes
    c = floor(x) + 1. Let u = 2**-53 and T < 1 be the exact parameter of
    the crossing (a ray flagged at its end is handed over anyway). The
    float x, and the check's own estimate of it, lie within E = 4.02 u
    ad_M + u of the exact value, and the check's t and neighbouring major
    parameters within 2.01 u of theirs. So where x is farther than a
    margin M from every integer, the check takes the same c, and both
    gaps to the neighbours exceed tol, once M > ad_M (tol (1 + 1.01 u) +
    8.04 u) + u (which exceeds 2E): it passes the crossing. A corner tie,
    or a first crossing within tol of the first major one, where the
    check's rules for first crossings act, has |x| < M, so it is always
    checked. A cleared c needs no clip to [0, n_M]: x > -1 - E, and x <
    ad_M - q_M + E < n_M + M as q_M + n_M >= ad_M (1 - u) - u. On rays of
    under 2**15 cells per axis (ad_M <= 2**15, tol <= (2**16 + 14) *
    2**-52) the bound is 1.0003 * 2**-21, and M = 2**-20; longer rays get
    x = NaN and go to the check whole. So ``c`` and the rays handed over
    are those the check over every crossing gives.

    A ray emits its events but the last, which enters its end cell, and
    that one is its last minor crossing exactly when c = n_M there, so
    ``step`` gets one slot per emitted cell and its running sum is the
    result. Each live ray's first slot steps from the last cell the live
    ray before it emitted, which is that ray's end cell less its last
    step (a fallback ray's last walked cell).
    """
    u0, v0, u1, v1 = (np.asarray(w, dtype=np.float64) for w in (u0, v0, u1, v1))
    # Refuse an oversized box before walking anything.
    box = _cell_box(u0, v0, u1, v1)
    x0, y0, _, stride = (int(v) for v in box)
    if ray_cell_cap(u0, v0, u1, v1) > cap:
        xs, ys = _traverse_rays_impl(u0, v0, u1, v1, cap)
        return (xs - x0) * stride + (ys - y0), box
    cx, cy, ex, ey = np.floor(u0), np.floor(v0), np.floor(u1), np.floor(v1)
    dx = u1 - u0
    dy = v1 - v0
    step_x = np.where(dx > 0.0, stride, -stride)
    step_y = np.where(dy > 0.0, 1, -1)
    qx = np.where(dx > 0.0, (cx + 1.0) - u0, u0 - cx)
    qy = np.where(dy > 0.0, (cy + 1.0) - v0, v0 - cy)
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

    flag = np.zeros(len(u0), dtype=bool)
    with np.errstate(all="ignore"):
        tie = (n_m > 0) & (q_m / ad_m == q_M / ad_M)
        # Every crossing up to the end cell must lie safely below t = 1.
        # The next one lies at t >= 1 - ulp, so it then stays last too.
        for q, ad, n in ((qx, adx, nx), (qy, ady, ny)):
            flag |= (n > 0) & ((q + (n - 1)) / ad >= 1.0 - tol)

        # Minor-axis crossings, flat over the batch: index k within its ray,
        # at x major-crossing units past the first major crossing. Rays too
        # long for the margin get x = NaN, which no crossing clears.
        m_end = np.cumsum(n_m)
        m_start = m_end - n_m
        k = np.arange(n_m.sum())
        k -= np.repeat(m_start, n_m)
        ratio = np.where(n_M < _CLEAR_CELLS, ad_M / ad_m, np.nan)
        x = np.repeat(q_m, n_m) + k
        x *= np.repeat(ratio, n_m)
        x -= np.repeat(q_M, n_m)
        c = np.floor(x)
        x -= c
        clear = (x > _CLEAR_MARGIN) & (x < 1.0 - _CLEAR_MARGIN)
        del x
        c = c.astype(np.int64)
        c += 1
    check = np.flatnonzero(~clear)
    del clear
    ray = np.searchsorted(m_end, check, side="right")
    c[check], bad = _order_crossings(
        q_m[ray], ad_m[ray], q_M[ray], ad_M[ray], n_M[ray], tol[ray], tie[ray], k[check]
    )
    flag[ray[bad]] = True
    del check, ray, bad

    # Flagged rays take the reference walk, which stops at its end cell.
    fallback = np.flatnonzero(flag)
    paths = []
    for r in fallback:
        one = slice(r, r + 1)
        fx, fy = _traverse_rays_impl(u0[one], v0[one], u1[one], v1[one], cap)
        paths.append((fx - x0) * stride + (fy - y0))

    # A ray emits its merged events but the last (a corner tie is one
    # diagonal step), which enters the end cell; a fallback ray its walk's
    # cells. A y step adds 1 to the box number, an x step the stride.
    n_emit = np.maximum(nx + ny - tie - 1, 0)
    n_emit[fallback] = [len(p) for p in paths]
    total = int(n_emit.sum())
    if total == 0:
        return np.zeros(0, dtype=np.int64), box
    start = np.cumsum(n_emit) - n_emit
    has_m = np.flatnonzero(n_m)
    # Minor crossing k is event k + c - tie of its ray; the last one is
    # the end-cell event exactly when it follows every major crossing.
    c_first = c[m_start[has_m]]
    ends_minor = c[m_end[has_m] - 1] == n_M[has_m]
    slot = c
    slot += k
    del k
    slot += np.repeat(start - tie, n_m)
    # Writes with no slot of their own go to slot 0, the first live ray's
    # first slot, which is set last.
    slot[m_end[has_m[ends_minor]] - 1] = 0
    for r in fallback:
        slot[m_start[r] : m_end[r]] = 0
    step = np.repeat(step_M, n_emit)
    step[slot] = np.repeat(step_m, n_m)
    del slot
    for r, path in zip(fallback, paths):
        step[start[r] + 1 : start[r] + len(path)] = np.diff(path)

    # Each live ray's first slot steps from the last cell the live ray
    # before it emitted: its end cell less its last step.
    first_step = step_M.copy()
    minor_first = c_first == tie[has_m]  # a tie forces c = 1
    first_step[has_m[minor_first]] = (step_m + tie * step_M)[has_m[minor_first]]
    last_step = step_M.copy()
    last_step[has_m[ends_minor]] = step_m[has_m[ends_minor]]
    first_cell = _box_numbers(u0, v0, x0, y0, stride) + first_step
    last_cell = _box_numbers(u1, v1, x0, y0, stride) - last_step
    walked = [i for i, p in enumerate(paths) if len(p)]
    first_cell[fallback[walked]] = [paths[i][0] for i in walked]
    last_cell[fallback[walked]] = [paths[i][-1] for i in walked]
    live = np.flatnonzero(n_emit)
    step[start[live]] = first_cell[live] - np.r_[0, last_cell[live[:-1]]]
    return np.cumsum(step, out=step), box


def _order_crossings(q_m, ad_m, q_M, ad_M, n_M, tol, tie, k):
    """The exact ordering check of minor crossing k among the major ones.

    Per crossing (arrays of the ray's values): c, the number of major
    crossings at or before it, and whether the reference walk could order
    it differently. c is a guess from the major position, checked against
    the two neighbouring major crossings; pairs of first crossings compare
    exactly as in the walk.
    """
    with np.errstate(all="ignore"):
        t = (q_m + k) / ad_m
        c = np.floor(t * ad_M - q_M).astype(np.int64) + 1
        np.clip(c, 0, n_M, out=c)
        first = k == 0
        c[first & tie] = 1
        below = (q_M + (c - 1)) / ad_M
        above = (q_M + c) / ad_M
        bad = (c > 0) & ((below > t) | ((t - below <= tol) & ~(first & (c == 1))))
        bad |= (c < n_M) & ((above <= t) | ((above - t <= tol) & ~(first & (c == 0))))
    return c, bad


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
    The held-row fold of :mod:`apgm.fusion` relies on this to skip such
    rows.

    A row summing above 1 (float32 rounding allows up to
    ``grid.MASS_SUM_TOL``) has a negative weight 1 - s, which can leave a
    fused mass a rounding error below zero; such entries come back +0.0, so
    masses stay in [0, 1]. Only strictly negative entries are touched.
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
    out[out < 0.0] = 0.0
    return out, conflict


# Folds run in slices of at most FOLD_SLICE rows: a float64 column
# temporary of 8192 rows is 64 KiB, under glibc's default 128 KiB mmap
# threshold (so combine_masses's temporaries reuse heap memory instead of
# mapping fresh pages) and well inside a 4 MiB L2. Slices of 16k rows and
# more measured slower on parking (BENCH_13.json). Fusion's blocks of
# layers hold at most two slices of rows (BENCH_29.json).
FOLD_SLICE = 8192


def fold_masses(masses) -> int:
    """Left Dempster fold of a (depth, n, k) stack into ``masses[0]``, in
    float64; returns the number of total-conflict results, which come back
    vacuous and are folded on. Slices of at most ``FOLD_SLICE`` rows share
    three float64 buffers; each step writes the spare one, never the
    accumulator, which then takes its place."""
    _, n, k = masses.shape
    size = min(n, FOLD_SLICE)
    buffers = [np.empty((size, k)) for _ in range(3)]
    conflict_buffer = np.empty(size)
    dead = 0
    for lo in range(0, n, FOLD_SLICE):
        part = masses[:, lo : lo + FOLD_SLICE]
        m = part.shape[1]
        acc, nxt, spare = (b[:m] for b in buffers)
        conflict = conflict_buffer[:m]
        acc[...] = part[0]
        for x in part[1:]:
            nxt[...] = x
            combine_masses(acc, nxt, spare, conflict)
            acc, spare = spare, acc
            dead += int(np.count_nonzero(total_conflict(conflict)))
        part[0] = acc
    return dead


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
