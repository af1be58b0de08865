"""Traversal and combination kernels against exact references.

The batch traversal must return exactly what the per-ray reference walk
``_traverse_rays_impl`` returns: the same cells in the same order, also on
the lattice-aligned geometry the scenarios produce (origins on lattice
corners, 45 degree beams, axis-parallel beams, endpoints on boundaries).
It numbers them in a cell box holding every ray's origin and end cell;
``box_cells`` decodes them.
"""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apgm.kernels
import apgm.sensors
from apgm import Frame, GridConfig, make_bba, run_scenario
from apgm.errors import CellOutOfBoundsError, NonFiniteInputError
from apgm.kernels import (
    _traverse_rays_impl,
    box_cells,
    combine_masses,
    ray_cell_cap,
    traverse_rays,
)
from apgm.scenario import default_scenario
from conftest import bf_combine, random_mass_rows


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
    # Boxes of 2^32 x 2^31 cells, or with a corner beyond 2^62, would wrap
    # int64 box numbers: refused before any walking.
    half = np.array([0.5, 0.5])
    batches = [
        (half, half, np.array([2.0**32 - 0.5, 0.5]), np.array([0.5, 2.0**31 - 0.5])),
        (half + 2.0**62, half, half + 2.0**62, half),
    ]
    for u0, v0, u1, v1 in batches:
        with pytest.raises(CellOutOfBoundsError):
            traverse_rays(u0, v0, u1, v1, 8)


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
