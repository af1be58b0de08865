"""Traversal and combination kernels against exact references.

The batch traversal must return exactly what the per-ray reference walk
``_traverse_rays_impl`` returns: the same cells in the same order, also on
the lattice-aligned geometry the scenarios produce (origins on lattice
corners, 45 degree beams, axis-parallel beams, endpoints on boundaries).
It numbers them in a cell box holding every ray's origin and end cell;
``box_cells`` decodes them. It hands the reference walk exactly the rays
that its ordering check, run over every crossing
(``sort_oracles.traverse_rays_fallback``), flags.
"""

import dataclasses
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apgm.kernels
import apgm.sensors
from apgm import Frame, GridConfig, make_bba, run_scenario
from apgm.errors import CellOutOfBoundsError, NonFiniteInputError
from apgm.kernels import (
    CELL_RANGE,
    _traverse_rays_impl,
    box_cells,
    combine_masses,
    ray_cell_cap,
    traverse_rays,
)
from apgm.scenario import default_scenario
from conftest import bf_combine, random_mass_rows
from sort_oracles import traverse_rays_fallback


def assert_same_walk(u0, v0, u1, v1, cap=None):
    """The batch kernel's cells equal the reference walk's, in order, and
    its box holds every origin, end and emitted cell."""
    u0, v0, u1, v1 = (np.asarray(w, dtype=np.float64) for w in (u0, v0, u1, v1))
    if cap is None:
        cap = ray_cell_cap(u0, v0, u1, v1)
    cells, box = traverse_rays(u0, v0, u1, v1, cap)
    assert cells.dtype == box.dtype == np.int64 and box.shape == (4,)
    x0, y0, nx, ny = box.tolist()
    assert np.all((cells >= 0) & (cells < nx * ny))
    for u, v in ((u0, v0), (u1, v1)):
        assert np.all((np.floor(u) >= x0) & (np.floor(u) < x0 + nx))
        assert np.all((np.floor(v) >= y0) & (np.floor(v) < y0 + ny))
    xs, ys = box_cells(cells, box)
    want = _traverse_rays_impl(u0, v0, u1, v1, cap)
    assert np.array_equal(xs, want[0]) and np.array_equal(ys, want[1])


def sweep_oracle(u0, v0, u1, v1):
    """Cells whose interior a segment crosses, via boundary-parameter sweep.

    Collects every axis-boundary crossing parameter, then bins the segment
    midpoint of each non-degenerate span; corner touches produce zero-width
    spans and are skipped, matching interior-only semantics. End cells are
    stripped afterwards like the kernel does.
    """
    params = {0.0, 1.0}
    for a, b in ((u0, u1), (v0, v1)):
        lo, hi = sorted((a, b))
        k = math.floor(lo)
        while k <= math.ceil(hi):
            if lo <= k <= hi and b != a:
                params.add((k - a) / (b - a))
            k += 1
    ts = sorted(p for p in params if 0.0 <= p <= 1.0)
    cells = []
    for t0, t1 in zip(ts, ts[1:]):
        if t1 - t0 <= 1e-15:
            continue
        tm = 0.5 * (t0 + t1)
        cell = (
            math.floor(u0 + tm * (u1 - u0)),
            math.floor(v0 + tm * (v1 - v0)),
        )
        if not cells or cells[-1] != cell:
            cells.append(cell)
    start = (math.floor(u0), math.floor(v0))
    end = (math.floor(u1), math.floor(v1))
    return [c for c in cells if c != start and c != end]


def _random_rays(rng, n, snap_prob=0.3, max_len=60.0):
    def snap(v):
        mask = rng.random(n) < snap_prob
        v[mask] = np.round(v[mask])
        return v

    u0 = snap(rng.uniform(-8.0, 8.0, n))
    v0 = snap(rng.uniform(-8.0, 8.0, n))
    u1 = snap(u0 + rng.uniform(-max_len, max_len, n))
    v1 = snap(v0 + rng.uniform(-max_len, max_len, n))
    return u0, v0, u1, v1


def test_traversal_matches_sweep_oracle():
    # Continuous endpoints: exact corner hits have measure zero, so the
    # sweep oracle and the kernel resolve every crossing identically.
    # Corner-degenerate geometry is pinned separately by the diagonal test.
    rng = np.random.default_rng(0)
    u0, v0, u1, v1 = _random_rays(rng, 300, snap_prob=0.0)
    cap = ray_cell_cap(u0, v0, u1, v1)
    for i in range(300):
        one = slice(i, i + 1)
        xs, ys = box_cells(*traverse_rays(u0[one], v0[one], u1[one], v1[one], cap))
        got = list(zip(xs.tolist(), ys.tolist()))
        want = sweep_oracle(u0[i], v0[i], u1[i], v1[i])
        assert got == want, f"ray {i}: {got} != {want}"


def test_batch_traversal_equals_reference_walk():
    rng = np.random.default_rng(1)
    for _ in range(40):
        n = int(rng.integers(1, 60))
        u0, v0, u1, v1 = _random_rays(rng, n, max_len=200.0)
        cap = ray_cell_cap(u0, v0, u1, v1)
        assert_same_walk(u0, v0, u1, v1, cap)


def test_capacity_bound_never_reached():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 80))
        u0, v0, u1, v1 = _random_rays(rng, n, snap_prob=0.5, max_len=400.0)
        cap = ray_cell_cap(u0, v0, u1, v1)
        cells, _ = traverse_rays(u0, v0, u1, v1, cap)
        assert len(cells) < cap


def test_zero_length_ray():
    z = np.array([3.7])
    cells, box = traverse_rays(z, z, z, z, 8)
    assert len(cells) == 0
    assert box.tolist() == [3, 3, 1, 1]


def test_empty_batch():
    z = np.empty(0)
    cells, box = traverse_rays(z, z, z, z, 8)
    assert len(cells) == 0 and cells.dtype == np.int64
    assert box.tolist() == [0, 0, 0, 0] and box.dtype == np.int64


def test_exact_diagonal_steps_diagonally():
    # Through lattice corners: off-diagonal cells are never entered.
    u0 = np.array([0.5])
    cells, box = traverse_rays(u0, u0, u0 + 5.0, u0 + 5.0, 32)
    assert box.tolist() == [0, 0, 6, 6]
    assert cells.tolist() == [1 * 6 + 1, 2 * 6 + 2, 3 * 6 + 3, 4 * 6 + 4]


def test_box_numbers_cells_x_major():
    # Two rays: the box spans both, and numbers (x - x0) * ny + (y - y0).
    u0, v0 = np.array([2.5, -1.5]), np.array([0.5, 0.5])
    u1, v1 = np.array([2.5, -1.5]), np.array([3.5, -2.5])
    cells, box = traverse_rays(u0, v0, u1, v1, 16)
    assert box.tolist() == [-2, -3, 5, 7]
    assert cells.tolist() == [4 * 7 + 4, 4 * 7 + 5, 0 * 7 + 2, 0 * 7 + 1]


def test_walk_stops_at_its_end_cell():
    # Ending on the lattice corner (0, -12), the reference walk's summed
    # parameters put the crossing of y = -12 below t = 1, which would carry
    # it into (-1, -13), a cell the segment never enters. The walk stops
    # there instead, so the box is the origin/end rectangle.
    ray = ([-15.554], [-3.219], [0.0], [-12.0])
    xs, ys = _traverse_rays_impl(*ray, 64)
    assert (xs[-1], ys[-1]) == (-1, -12)
    _, box = traverse_rays(*(np.array(w) for w in ray), 64)
    assert box.tolist() == [-16, -12, 17, 9]
    assert_same_walk(*ray)


def test_box_area_guard():
    # A box reaching outside the +-2^31 cell range, or of 2^64 cells inside
    # it (which would wrap int64 box numbers), is refused before any cell
    # is walked.
    r = float(CELL_RANGE)
    one = np.array([0.5])
    batches = [
        (one + r, one, one + r + 2.0, one),
        (one, one - r - 1.0, one, one),
        (one - r - 1.0, one, one, one),
        (one, one, one, one + r),
        tuple(np.array(w) for w in ([-r, 0.5], [0.5, -r], [r - 0.5, 0.5], [0.5, r - 0.5])),
    ]
    messages = ["outside the +-2^31 cell range"] * 4 + ["over 2^62 cells"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(apgm.kernels, "_traverse_rays_impl", None)  # no walk may run
        for (u0, v0, u1, v1), message in zip(batches, messages):
            with pytest.raises(CellOutOfBoundsError, match=re.escape(message)):
                traverse_rays(u0, v0, u1, v1, 8)


def test_walk_at_the_cell_range_edges():
    # Cells of magnitude near 2^31 take the batch walk, exactly.
    r = float(CELL_RANGE)
    starts = np.array([[0.25, 40.125, 3.0], [0.75, 2.5, 33.3]])
    ends = np.array([[30.5, 0.0, 17.75], [12.2, 39.9, 0.1]])
    for sx, sy in ((-1, 1), (1, -1), (-1, -1), (1, 1)):
        # Offsets into the range from its corner cell (x, y) = (sx, sy) * (r - 0.5).
        u0, v0 = (s * (r - 0.5) - s * o for s, o in zip((sx, sy), starts))
        u1, v1 = (s * (r - 0.5) - s * o for s, o in zip((sx, sy), ends))
        assert_same_walk(u0, v0, u1, v1)
        assert len(traverse_rays(u0, v0, u1, v1, ray_cell_cap(u0, v0, u1, v1))[0]) > 50


def test_reference_walk_subnormal_direction_is_warning_clean():
    # dx = 1e-310 is subnormal: 1 / dx overflows to inf, silently.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        xs, ys = _traverse_rays_impl([1e-310], [0.5], [2e-310], [3.5], 16)
        assert xs.tolist() == [0, 0] and ys.tolist() == [1, 2]
        assert_same_walk([1e-310], [0.5], [2e-310], [3.5], 16)


def test_combine_kernels_agree():
    rng = np.random.default_rng(3)
    for frame in (Frame(("o", "f")), Frame(("a", "b", "c", "d"))):
        a = random_mass_rows(rng, 300, len(frame))
        b = random_mass_rows(rng, 300, len(frame))
        out = np.empty_like(a)
        conflict = np.empty(len(a))
        combine_masses(a, b, out, conflict)
        for i in range(len(a)):
            masses, _, k = bf_combine(make_bba(frame, a[i]), make_bba(frame, b[i]))
            np.testing.assert_allclose(out[i], masses, rtol=0.0, atol=1e-12)
            assert conflict[i] == pytest.approx(k, abs=1e-12)


def test_combine_kernel_total_conflict_row():
    a = np.array([[1.0, 0.0], [0.3, 0.2]])
    b = np.array([[0.0, 1.0], [0.3, 0.2]])
    out = np.empty_like(a)
    conflict = np.empty(2)
    combine_masses(a, b, out, conflict)
    assert conflict[0] == pytest.approx(1.0)
    assert np.all(out[0] == 0.0)
    assert conflict[1] < 1.0 and out[1].sum() > 0.0


def test_combine_kernel_keeps_masses_nonnegative_for_a_row_over_one():
    # float32 rows; the second sums to 1 + 8.8e-12, within MASS_SUM_TOL, as a
    # merged cell whose occupancy rounded to 1.0 does. Its weight 1 - s is
    # negative, and the fused free mass came out -1.6e-18.
    a = np.array([[0.9841293692588806, 0.015870606526732445]])
    b = np.array([[1.0, 8.759548641990023e-12]])
    for x, y in ((a, b), (b, a)):
        out, _ = combine_masses(x, y, np.empty_like(x), np.empty(1))
        assert out[0, 0] == 1.0
        assert out[0, 1] == 0.0 and not np.signbit(out[0, 1])


# -- batch traversal == reference walk: property tests -----------------------------

# Coordinates in cell units: generic floats, lattice points, half cells.
_coord = st.one_of(
    st.floats(-300.0, 300.0, allow_nan=False),
    st.integers(-300, 300).map(float),
    st.integers(-600, 600).map(lambda i: i / 2.0),
)
_ray = st.tuples(_coord, _coord, _coord, _coord)


@settings(max_examples=300, deadline=None)
@given(st.lists(_ray, min_size=1, max_size=30))
def test_walk_property_mixed_rays(rays):
    assert_same_walk(*np.array(rays).T)


@settings(max_examples=200, deadline=None)
@given(st.lists(_ray, min_size=1, max_size=30))
def test_walk_property_transposed_batch(rays):
    # The walk is symmetric in x and y: the transposed batch gives the
    # transposed cells in the same order, in the reference walk and in the
    # batch kernel (which places each ray's minor-axis crossings).
    u0, v0, u1, v1 = np.array(rays).T
    cap = ray_cell_cap(u0, v0, u1, v1)
    xs, ys = _traverse_rays_impl(u0, v0, u1, v1, cap)
    tx, ty = _traverse_rays_impl(v0, u0, v1, u1, cap)
    assert np.array_equal(xs, ty) and np.array_equal(ys, tx)
    cells, box = traverse_rays(u0, v0, u1, v1, cap)
    t_cells, t_box = traverse_rays(v0, u0, v1, u1, cap)
    assert t_box.tolist() == box[[1, 0, 3, 2]].tolist()
    xs, ys = box_cells(cells, box)
    tx, ty = box_cells(t_cells, t_box)
    assert np.array_equal(xs, ty) and np.array_equal(ys, tx)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-50, 50), st.integers(-50, 50)), min_size=2, max_size=40
    ),
)
def test_walk_property_lattice_snapped(points):
    # Every origin and endpoint on a lattice corner: corner ties everywhere.
    pts = np.array(points, dtype=np.float64)
    assert_same_walk(pts[:-1, 0], pts[:-1, 1], pts[1:, 0], pts[1:, 1])


@settings(max_examples=12, deadline=None)
@given(
    st.integers(-2000, 2000),
    st.integers(-2000, 2000),
    st.sampled_from([0.0, 0.5]),
    st.floats(5.0, 250.0),
)
def test_walk_property_beam_fan_from_corner(ox, oy, shift, radius):
    # A 720-beam lidar fan from a lattice corner, as parking mode produces.
    ang = np.arange(720) * (np.pi / 360.0)
    u0 = np.full(720, ox + shift)
    v0 = np.full(720, float(oy))
    assert_same_walk(u0, v0, u0 + radius * np.cos(ang), v0 + radius * np.sin(ang))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-100, 100),
    st.integers(-100, 100),
    st.sampled_from([0.0, 0.25, 0.5]),
    st.floats(1.0, 300.0),
    st.integers(0, 3),
)
def test_walk_property_diagonals(ix, iy, frac, length, quadrant):
    # Exact and 1-ulp-off 45 degree rays; cos(pi/4) != sin(pi/4) in float64.
    a0, b0 = ix + frac, iy + frac
    sx, sy = (1.0, -1.0)[quadrant & 1], (1.0, -1.0)[quadrant >> 1]
    c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
    ends = [
        (a0 + sx * length, b0 + sy * length),
        (a0 + sx * length * c, b0 + sy * length * s),
        (a0 + sx * length * c, b0 + sy * length * c),
        (np.nextafter(a0 + sx * length, np.inf), b0 + sy * length),
        (a0 + sx * length, np.nextafter(b0 + sy * length, -np.inf)),
    ]
    u1, v1 = np.array(ends).T
    assert_same_walk(np.full(5, a0), np.full(5, b0), u1, v1)


@settings(max_examples=100, deadline=None)
@given(_coord, _coord, st.floats(-300.0, 300.0, allow_nan=False), st.booleans())
def test_walk_property_axis_parallel(a, b, delta, along_x):
    # Lines exactly on a boundary, inside a cell, and zero-length rays.
    rays = [(a, b, a + delta, b), (a, b, a, b + delta), (a, b, a, b),
            (math.floor(a), b, math.floor(a), b + delta)]
    if not along_x:
        rays = [(v0, u0, v1, u1) for u0, v0, u1, v1 in rays]
    assert_same_walk(*np.array(rays).T)


@settings(max_examples=100, deadline=None)
@given(_coord, _coord, st.integers(-200, 200), st.integers(-200, 200), _coord)
def test_walk_property_endpoint_on_boundary(a, b, ex, ey, other):
    # Endpoints exactly on an x boundary, a y boundary, or a corner.
    ex, ey = float(ex), float(ey)
    rays = [(a, b, ex, other), (a, b, other, ey), (a, b, ex, ey)]
    assert_same_walk(*np.array(rays).T)


def test_walk_long_rays_ending_on_boundaries():
    # Endpoints on corners and boundaries put crossings at t = 1, where the
    # reference walk's accumulated parameters round either way.
    rng = np.random.default_rng(6)
    n = 1200
    u0 = rng.uniform(-300.0, 300.0, n)
    v0 = rng.uniform(-300.0, 300.0, n)
    u1 = np.round(u0 + rng.uniform(-300.0, 300.0, n))
    v1 = np.round(v0 + rng.uniform(-300.0, 300.0, n))
    u1[1::3] += rng.random(n // 3)
    v1[2::3] += rng.random(n // 3)
    assert_same_walk(u0, v0, u1, v1)


def test_walk_truncates_at_capacity_like_reference():
    rng = np.random.default_rng(5)
    u0, v0, u1, v1 = _random_rays(rng, 30, snap_prob=0.5, max_len=80.0)
    full = ray_cell_cap(u0, v0, u1, v1)
    for cap in (0, 1, 7, 100, full // 2):
        assert_same_walk(u0, v0, u1, v1, cap)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_memory_is_bounded_by_capacity():
    # Arrays are sized by the capacity, not by the rays' full crossing
    # counts: one 2^20-cell ray cut at 8 cells, and 1000 rays of 2^12
    # cells each cut at 64, must each stay far below 1 MB.
    rng = np.random.default_rng(9)
    angle = rng.uniform(0.0, 2.0 * np.pi, 1000)
    u0 = rng.uniform(-8.0, 8.0, 1000)
    v0 = rng.uniform(-8.0, 8.0, 1000)
    batches = [
        ([0.5], [0.25], [0.5 + 2.0**20], [0.25 + 2.0**19], 8),
        (u0, v0, u0 + 2.0**12 * np.cos(angle), v0 + 2.0**12 * np.sin(angle), 64),
    ]
    for u0, v0, u1, v1, cap in batches:
        rays = [np.asarray(w, dtype=np.float64) for w in (u0, v0, u1, v1)]
        assert _peak_bytes(traverse_rays, *rays, cap) < 2**20
        assert_same_walk(*rays, cap)


def test_reference_walk_memory_is_sized_by_emitted_cells():
    # cap only bounds the output: a 3-cell walk under a 2^22 cap must not
    # reserve cap-sized buffers (two of them would take 64 MB).
    peak = _peak_bytes(_traverse_rays_impl, [0.5], [0.5], [3.5], [2.5], 2**22)
    assert peak < 2**20
    assert_same_walk([0.5], [0.5], [3.5], [2.5], 2**22)


def test_fallback_rays_memory_is_sized_by_emitted_cells(monkeypatch):
    # Near-45 degree rays from lattice corners miss every corner by an ulp,
    # so each one takes the reference walk under the batch's whole cap.
    u0 = 3.0 * np.arange(32.0)
    v0 = np.zeros(32)
    u1 = u0 + 200.0
    v1 = v0 + np.nextafter(200.0, 0.0)
    cap = ray_cell_cap(u0, v0, u1, v1)
    walks = []
    monkeypatch.setattr(
        apgm.kernels,
        "_traverse_rays_impl",
        lambda *a: walks.append(a) or _traverse_rays_impl(*a),
    )
    cells, _ = traverse_rays(u0, v0, u1, v1, cap)
    assert len(walks) == 32
    assert _peak_bytes(traverse_rays, u0, v0, u1, v1, cap) < 16 * cells.nbytes
    monkeypatch.undo()
    assert_same_walk(u0, v0, u1, v1, cap)


def test_walk_memory_is_symmetric_in_x_and_y():
    # The ordering check runs over each ray's minor-axis crossings, so 500
    # shallow 400-cell rays and their transpose (steep rays) peak alike.
    rng = np.random.default_rng(12)
    angle = rng.uniform(-0.1, 0.1, 500) + np.pi * rng.integers(0, 2, 500)
    u0 = rng.uniform(-8.0, 8.0, 500)
    v0 = rng.uniform(-8.0, 8.0, 500)
    u1 = u0 + 400.0 * np.cos(angle)
    v1 = v0 + 400.0 * np.sin(angle)
    cap = ray_cell_cap(u0, v0, u1, v1)
    shallow = _peak_bytes(traverse_rays, u0, v0, u1, v1, cap)
    steep = _peak_bytes(traverse_rays, v0, u0, v1, u1, cap)
    assert max(shallow, steep) <= 1.25 * min(shallow, steep)
    assert_same_walk(u0, v0, u1, v1, cap)
    assert_same_walk(v0, u0, v1, u1, cap)


# -- the ordering pre-filter and slot-free emission --------------------------------


def test_clear_margin_covers_ordering_tolerance():
    # The proof in traverse_rays: on rays of under _CLEAR_CELLS cells per
    # axis, M > ad_M (tol (1 + 1.01 u) + 8.04 u) + u, in exact arithmetic.
    u = Fraction(1, 2**53)
    cells = apgm.kernels._CLEAR_CELLS
    ad_major = Fraction(cells)  # |d| < n_M + 1 <= _CLEAR_CELLS
    tol = (2 * (cells - 1) + 16) * Fraction(1, 2**52)  # nx + ny <= 2 (cells - 1)
    need = ad_major * (tol * (1 + Fraction(101, 100) * u) + Fraction(804, 100) * u) + u
    assert Fraction(apgm.kernels._CLEAR_MARGIN) > need


# Moves in ulps: a few, or a power of two up to 2^30 (about 2e-7 relative).
_ulps = st.integers(-3, 3) | st.builds(
    lambda sign, e: sign * 2**e, st.sampled_from([-1, 1]), st.integers(2, 30)
)


@st.composite
def _near_tie_rays(draw, length=st.integers(1, 30)):
    """A ray from a lattice corner (or a half or quarter cell) along a
    rational slope p/q, its origin and end moved by some ulps: minor
    crossings fall on, or from an ulp to about 1e-4 cells off, major ones.
    Half the rays are transposed."""
    ox = draw(st.integers(-40, 40)) + draw(st.sampled_from([0.0, 0.25, 0.5]))
    oy = draw(st.integers(-40, 40)) + draw(st.sampled_from([0.0, 0.5]))
    p = draw(st.integers(-9, 9))
    q = draw(st.sampled_from([-1, 1])) * draw(st.integers(0, 9))
    scale = draw(length) / draw(st.sampled_from([1, 2, 3, 4]))
    ex, ey = ox + q * scale, oy + p * scale
    ox += draw(_ulps) * math.ulp(max(abs(ox), 1.0))
    ex += draw(_ulps) * math.ulp(ex)
    ey += draw(_ulps) * math.ulp(ey)
    ray = (float(ox), float(oy), ex, ey)
    return (ray[1], ray[0], ray[3], ray[2]) if draw(st.booleans()) else ray


# Shallow rays of 2^15 and more cells along x: beyond the pre-filter's limit.
_long_rays = _near_tie_rays(length=st.just(1)).map(
    lambda r: (r[0], r[1], r[0] + 2**15 + abs(r[2] - r[0]), r[3])
)


def _walk_recording_fallback(u0, v0, u1, v1):
    """Assert the batch walk equals the reference walk; return the rays it
    handed to the reference walk, in order."""
    walks = []

    def spy(*args):
        walks.append(tuple(float(w[0]) for w in args[:4]))
        return _traverse_rays_impl(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(apgm.kernels, "_traverse_rays_impl", spy)
        assert_same_walk(u0, v0, u1, v1)
    return walks


def _assert_fallback_as_full_check(rays):
    u0, v0, u1, v1 = np.array(rays, dtype=np.float64).T
    walks = _walk_recording_fallback(u0, v0, u1, v1)
    flagged = traverse_rays_fallback(u0, v0, u1, v1)
    assert walks == [tuple(rays[i]) for i in flagged]


@settings(max_examples=150, deadline=None)
@given(st.lists(_near_tie_rays(), min_size=1, max_size=25))
def test_prefilter_hands_over_the_rays_the_full_check_flags(rays):
    _assert_fallback_as_full_check(rays)


@settings(max_examples=6, deadline=None)
@given(st.lists(_near_tie_rays(), max_size=6), _long_rays, st.data())
def test_prefilter_checks_long_rays_whole(rays, long_ray, data):
    rays.insert(data.draw(st.integers(0, len(rays))), long_ray)
    _assert_fallback_as_full_check(rays)


@pytest.mark.parametrize(
    "cells, gap, flagged",
    [
        # Inside the ordering tolerance (tol * ad_M = 4.8e-12, 4.8e-7 and
        # 1.9e-6 major-crossing units), the last beyond 2^-20 on a ray too
        # long for the pre-filter: the full check flags these.
        (100, 2.0**-40, True),
        (2**15 - 1, 2.0**-22, True),
        (2**16, 1.5 * 2.0**-20, True),
        # Beyond the tolerance: these walk in the batch.
        (100, 2.0**-30, False),
        (100, 0.25, False),
    ],
)
def test_prefilter_margin_on_diagonal_rays(cells, gap, flagged):
    # A 45 degree ray from (0.5 + gap, 0.5) crosses each x boundary `gap`
    # major-crossing units before the next y boundary, at every crossing.
    ray = (0.5 + gap, 0.5, 0.5 + gap + cells, 0.5 + cells)
    rays = [ray, (0.5, 0.5, 3.7, 1.2)]
    assert len(traverse_rays_fallback(*np.array(rays).T)) == int(flagged)
    _assert_fallback_as_full_check(rays)


# Rays by how they end (cell units). The reference walk steps last along
# the minor axis (the one crossed fewer times), along the major one, or
# diagonally; some emit nothing. The fallback rays, which the batch walk
# hands to the reference walk, run through lattice corners, miss them by an
# ulp, or end on a boundary (the last one emits nothing).
_EMIT_RAYS = {
    "minor_last": [(0.5, 0.1, 3.9, 1.05), (0.1, 0.5, -1.05, -3.9)],
    "major_last": [(0.5, 0.1, 3.5, 1.7), (-0.5, 0.1, -3.5, -1.7)],
    # The first x and y crossings tie exactly: the first step is diagonal.
    "diagonal_first": [(0.5, 0.25, 2.25, 2.875), (0.5, 0.25, -1.75, 3.625)],
    "nothing": [
        (0.5, 0.5, 1.5, 1.5),  # a lone diagonal step into the end cell
        (2.2, 2.2, 2.8, 2.9),  # within one cell
        (0.5, 0.5, 1.5, 0.5),  # one step into the end cell
        (4.0, 4.0, 4.0, 4.0),  # zero length
    ],
    "fallback": [
        (0.0, 0.0, 20.5, 20.5),
        (3.0, 0.0, 23.0, math.nextafter(20.0, 0.0)),
        (1.0, 0.0, -5.5, -6.5),
        (0.5, 0.5, 2.5, 2.5),
        (0.3, 0.3, 1.0, 0.3),
    ],
}


def _emits(ray):
    return len(_traverse_rays_impl(*([w] for w in ray), 64)[0])


def _last_step(ray):
    """The reference walk's step from its last emitted cell into the end cell."""
    xs, ys = _traverse_rays_impl(*([w] for w in ray), 64)
    dx = abs(math.floor(ray[2]) - xs[-1])
    dy = abs(math.floor(ray[3]) - ys[-1])
    crossed_x = abs(math.floor(ray[2]) - math.floor(ray[0]))
    crossed_y = abs(math.floor(ray[3]) - math.floor(ray[1]))
    minor_is_y = crossed_y < crossed_x
    if dx and dy:
        return "diagonal"
    return "minor" if bool(dy) == minor_is_y else "major"


def test_emit_ray_kinds():
    # The rays above end as named; only the fallback ones are flagged.
    assert {_last_step(r) for r in _EMIT_RAYS["minor_last"]} == {"minor"}
    assert {_last_step(r) for r in _EMIT_RAYS["major_last"]} == {"major"}
    fall = _EMIT_RAYS["fallback"]
    assert [_last_step(r) for r in fall[:4]] == ["diagonal", "major", "diagonal", "diagonal"]
    assert all(_emits(r) == 0 for r in _EMIT_RAYS["nothing"] + fall[4:])
    for ray in _EMIT_RAYS["diagonal_first"]:
        xs, ys = _traverse_rays_impl(*([w] for w in ray), 64)
        assert (abs(xs[0] - math.floor(ray[0])), abs(ys[0] - math.floor(ray[1]))) == (1, 1)
    for kind in ("minor_last", "major_last", "diagonal_first", "nothing"):
        assert not len(traverse_rays_fallback(*np.array(_EMIT_RAYS[kind]).T))
    assert len(traverse_rays_fallback(*np.array(fall).T)) == len(fall)


def _assert_emits_exactly(rays):
    u0, v0, u1, v1 = np.array(rays, dtype=np.float64).T
    walks = _walk_recording_fallback(u0, v0, u1, v1)
    assert walks == [r for r in rays if r in _EMIT_RAYS["fallback"]]
    # The result is the running sum itself: one slot per emitted cell.
    cells, _ = traverse_rays(u0, v0, u1, v1, ray_cell_cap(u0, v0, u1, v1))
    assert cells.base is None and cells.size == sum(_emits(r) for r in rays)


def test_emission_chains_around_rays_that_emit_nothing():
    minor, major, nothing = (_EMIT_RAYS[k] for k in ("minor_last", "major_last", "nothing"))
    diag = _EMIT_RAYS["diagonal_first"]
    _assert_emits_exactly(
        [nothing[0], minor[0], nothing[1], major[0], nothing[2], nothing[3], minor[1],
         diag[0], nothing[0], major[1], diag[1], nothing[3]]
    )


def test_emission_with_fallback_rays_first_last_and_adjacent():
    minor, major, nothing = (_EMIT_RAYS[k] for k in ("minor_last", "major_last", "nothing"))
    fall = _EMIT_RAYS["fallback"]
    _assert_emits_exactly(
        [fall[0], minor[0], fall[1], fall[4], fall[2], nothing[0], major[0], nothing[2],
         fall[3]]
    )


def test_emission_when_every_ray_falls_back():
    _assert_emits_exactly(_EMIT_RAYS["fallback"])
    _assert_emits_exactly(_EMIT_RAYS["fallback"][2:3])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([r for rs in _EMIT_RAYS.values() for r in rs]), max_size=12))
def test_emission_property_any_order(rays):
    _assert_emits_exactly(rays or [_EMIT_RAYS["nothing"][3]])


def test_walk_rejects_nonfinite_like_reference():
    z = np.zeros(1)
    for bad in (np.nan, np.inf):
        with pytest.raises(NonFiniteInputError):
            traverse_rays(z, z, z + bad, z, 8)
        with pytest.raises(NonFiniteInputError):
            apgm.sensors.ray_traverse((0.0, 0.0), (bad, 1.0), GridConfig(), 7)


@pytest.mark.parametrize(
    "mode, keyframes",
    [
        ("parking", [(0.0, 0.0, 0.0, 0.0), (15.0, 30.0, 0.0, 0.0)]),
        ("road", [(0.0, 30.0, 0.0, 0.0), (30.0, 430.0, 0.0, 0.0)]),
    ],
)
def test_walk_matches_reference_on_scenario_calls(monkeypatch, mode, keyframes):
    # Every traversal the default scenario makes in a few cycles.
    script, world, config = default_scenario()
    script = dataclasses.replace(
        script, keyframes=keyframes, mode_times=[(0.0, mode)], duration_s=0.3
    )
    config.measure_timing = False
    calls = []

    def spy(*args):
        calls.append([np.copy(a) for a in args[:4]] + [args[4]])
        return traverse_rays(*args)

    monkeypatch.setattr(apgm.sensors, "traverse_rays", spy)
    run_scenario(script, world, config)
    assert len(calls) == 2 * 3  # two lidars, three cycles
    for args in calls:
        assert_same_walk(*args)
