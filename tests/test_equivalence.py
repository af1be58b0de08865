"""The column combine kernel, the window-count builders, the region
labelling, the held-row layer and grid folds, the per-column reference
count and the 2x2 occupancy merge equal their row-reducing, sort-based,
every-region, dense, per-patch and median predecessors
(``sort_oracles.py``) bit for bit.
"""

import itertools
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgm import (
    Frame,
    GridConfig,
    GridMap,
    PointCloud,
    RequirementProfile,
    SemanticObservation,
    SensorModelParams,
    TypeRequirement,
    fuse_grids,
    fuse_layers,
    measurement_grid_occupancy,
    measurement_grid_semantic,
    resample_layer,
)
from apgm.evidence import ConflictCounter
from apgm.grid import MASS_SUM_TOL, OCCUPANCY_FRAME, SEMANTIC_FRAME, Layer
from apgm.kernels import combine_masses, fold_masses
from apgm.requirements import _rect_min_distance
from apgm.resample import _occ_merge_2x2, occ_block_merge
from apgm.scenario import CameraConfig, simulate_camera, uniform_patched_cell_count
from apgm.world import Rect, SemanticRegion, WorldModel, default_world
from sort_oracles import (
    combine_masses_rows,
    fuse_layers_dense,
    label_points_every_region,
    occ_block_merge_median,
    occupancy_sorted,
    resample_occupancy_merged,
    semantic_sorted,
    uniform_patched_cell_count_scan,
)


def assert_same_grid(got, want):
    assert sorted(got.patches) == sorted(want.patches)
    for index, patch in want.patches.items():
        other = got.patches[index].layers
        assert sorted(other) == sorted(patch.layers)
        for name, layer in patch.layers.items():
            assert other[name].step == layer.step
            assert other[name].masses.dtype == np.float32
            # Bit patterns, so a -0.0 in place of +0.0 fails too.
            got_bits = other[name].masses.view(np.uint32)
            assert np.array_equal(got_bits, layer.masses.view(np.uint32)), (index, name)


# -- combine kernel -------------------------------------------------------------

_ROW_KINDS = ("random", "vacuous", "certain", "float32", "no_omega", "tiny")


def _mass_rows(rng, kinds, k):
    rows = rng.dirichlet(np.ones(k + 1), size=len(kinds))[:, :k]
    for i, kind in enumerate(kinds):
        if kind == "vacuous":
            rows[i] = 0.0
        elif kind == "certain":
            rows[i] = 0.0
            rows[i, rng.integers(k)] = 1.0
        elif kind == "float32":
            rows[i] = rows[i].astype(np.float32)
        elif kind == "no_omega":
            rows[i] = rng.dirichlet(np.ones(k))
        elif kind == "tiny":
            rows[i] *= 1e-300
    return rows


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 4]),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.sampled_from(_ROW_KINDS), st.sampled_from(_ROW_KINDS)),
             min_size=1, max_size=80),
)
def test_combine_masses_equals_row_reductions(k, seed, kinds):
    rng = np.random.default_rng(seed)
    a = _mass_rows(rng, [p for p, _ in kinds], k)
    b = _mass_rows(rng, [q for _, q in kinds], k)
    got = combine_masses(a, b, np.empty_like(a), np.empty(len(a)))
    want = combine_masses_rows(a, b, np.empty_like(a), np.empty(len(a)))
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 4]),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(_ROW_KINDS), min_size=1, max_size=80),
)
def test_combining_with_a_vacuous_row_returns_the_other_row(k, seed, kinds):
    """The identity the layer fold relies on to pass single-holder rows."""
    rng = np.random.default_rng(seed)
    x = _mass_rows(rng, kinds, k).astype(np.float32).astype(np.float64)
    assert x.min() >= 0.0 and x.sum(axis=1).max() <= 1.0 + MASS_SUM_TOL
    zero = np.zeros_like(x)
    for a, b in ((x, zero), (zero, x)):
        out, conflict = combine_masses(a, b, np.empty_like(x), np.empty(len(x)))
        assert np.array_equal(out.view(np.uint64), x.view(np.uint64))
        assert np.array_equal(conflict.view(np.uint64), np.zeros(len(x), np.uint64))


# -- layer fold -------------------------------------------------------------------

# Beyond _ROW_KINDS: a row with -0.0 entries summing below 1, one summing
# above 1 (the rule keeps a -0.0 only there), and a certain row whose
# hypothesis is the input's position, so two inputs holding it conflict
# totally.
_FOLD_KINDS = _ROW_KINDS + ("negative_zero", "negative_zero_over_one", "opposed")
_FRAMES = {
    2: ("occupancy", OCCUPANCY_FRAME),
    3: ("semantic", Frame(("road", "marking", "blocked"))),
    4: ("semantic", SEMANTIC_FRAME),
}


def _fold_rows(rng, kinds, k, position):
    rows = _mass_rows(rng, [q if q in _ROW_KINDS else "random" for q in kinds], k)
    rows = rows.astype(np.float32)
    for i, kind in enumerate(kinds):
        if kind == "negative_zero":
            rows[i, rng.random(k) < 0.5] = -0.0
        elif kind == "negative_zero_over_one":
            rows[i] = -0.0
            rows[i, 0] = 0.5 if k > 2 else 1.0
            if k > 2:
                rows[i, 1] = np.nextafter(np.float32(0.5), np.float32(1.0))
        elif kind == "opposed":
            rows[i] = 0.0
            rows[i, position % k] = 1.0
    return rows


# Kinds whose rows hold no stored bit once cast to float32.
_EMPTY_KINDS = ("vacuous", "tiny")


@st.composite
def layer_stacks(draw, ks=(2, 3, 4), depths=st.integers(1, 4), max_step=3, bulk=False):
    """(layers, r_req): 1-4 same-type layers whose rows are held by every
    input, by exactly one or by none, or whose inputs are all vacuous.
    A ``bulk`` stack has every input at ``max_step`` and holding every row."""
    k = draw(st.sampled_from(ks))
    type_name, frame = _FRAMES[k]
    depth = draw(depths)
    if not bulk and draw(st.booleans()):
        steps = draw(st.lists(st.integers(0, max_step), min_size=depth, max_size=depth))
    else:
        steps = [max_step if bulk else 2] * depth
    r_req = draw(st.integers(0, max_step))
    kinds = tuple(q for q in _FOLD_KINDS if not (bulk and q in _EMPTY_KINDS))
    palette = draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=4))
    empty = draw(st.lists(st.booleans(), min_size=depth, max_size=depth))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Per row: -1 = every input holds it, p = only input p, depth = none.
    if bulk:
        owner = np.full(1 << (2 * max_step), -1)
    else:
        owner = rng.integers(-1, depth + 1, size=1 << (2 * max_step))
    layers = []
    for position, (step, vacuous) in enumerate(zip(steps, empty)):
        n = 1 << (2 * step)
        kinds = [palette[i] for i in rng.integers(len(palette), size=n)]
        rows = _fold_rows(rng, kinds, k, position)
        rows[(owner[:n] != -1) & (owner[:n] != position)] = 0.0
        if vacuous and not bulk:
            rows[:] = 0.0
        m = 1 << step
        layers.append(Layer(type_name, frame, step, rows.reshape(m, m, k)))
    return layers, r_req


@settings(max_examples=400, deadline=None)
@given(layer_stacks())
def test_fuse_layers_equals_dense_fold(stack):
    layers, r_req = stack
    got_counter, want_counter = ConflictCounter(), ConflictCounter()
    got = fuse_layers(layers, r_req, got_counter)
    want = fuse_layers_dense(layers, r_req, want_counter)
    assert got.step == want.step
    assert got.masses.dtype == np.float32
    assert np.array_equal(got.masses.view(np.uint32), want.masses.view(np.uint32))
    assert got_counter.cells == want_counter.cells


# -- grid fold ----------------------------------------------------------------------

_GRIDS = 4
# Bulk stack steps in patch order. Small patches add at most 640 rows, so
# the first two bulk stacks (4,096 + 16,384 held rows) end in one fold of
# at least three 8,192-row slices, one shared by both, and the third
# (4,096 rows) goes to the fold at the end of the call.
_BULK_STEPS = (6, 7, 6)


def _place(grids, index, layers, holders):
    for g, layer in zip(sorted(holders[: len(layers)]), layers):
        grids[g].set_layer(index, layer)


@st.composite
def grid_stacks(draw):
    """(grids, r_req): four grids whose patches hold layer_stacks draws.

    Each small patch index gets an occupancy stack, a semantic stack or
    both, every input in a drawn grid, so every holder pattern occurs.
    Three bulk occupancy stacks (``_BULK_STEPS``), whose rows every input
    holds, are placed among them. The semantic step may be capped (inputs
    merge); occupancy keeps its finest input step (coarser inputs split).
    """
    grids = [GridMap(GridConfig()) for _ in range(_GRIDS)]
    n_small = draw(st.integers(1, 10))
    for i in range(n_small):
        for k in sorted(draw(st.sets(st.sampled_from([2, 4]), min_size=1))):
            layers, _ = draw(layer_stacks(ks=(k,)))
            _place(grids, (i, 0), layers, draw(st.permutations(range(_GRIDS))))
    depth = draw(st.integers(2, _GRIDS))
    columns = draw(st.lists(st.integers(0, n_small + 2), min_size=3, max_size=3, unique=True))
    for column, step in zip(sorted(columns), _BULK_STEPS):
        layers, _ = draw(
            layer_stacks(ks=(2,), depths=st.just(depth), max_step=step, bulk=True)
        )
        _place(grids, (column, 1), layers, draw(st.permutations(range(_GRIDS))))
    r_req = draw(st.one_of(st.just({}), st.builds(lambda r: {"semantic": r}, st.integers(0, 3))))
    return grids, r_req


@settings(max_examples=30, deadline=None)
@given(grid_stacks())
def test_fuse_grids_equals_dense_fold_per_layer(case):
    grids, r_req = case
    got_counter, want_counter = ConflictCounter(), ConflictCounter()
    got = fuse_grids(grids, r_req, got_counter)
    indices = sorted({i for g in grids for i in g.patches})
    assert sorted(got.patches) == indices
    for index in indices:
        patches = [g.patches[index] for g in grids if index in g.patches]
        names = sorted({t for p in patches for t in p.layers})
        assert sorted(got.patches[index].layers) == names
        for name in names:
            stack = [p.layers[name] for p in patches if name in p.layers]
            step = r_req.get(name, max(l.step for l in stack))
            want = fuse_layers_dense(stack, step, want_counter)
            layer = got.patches[index].layers[name]
            assert layer.step == want.step
            assert np.array_equal(
                layer.masses.view(np.uint32), want.masses.view(np.uint32)
            ), (index, name)
    assert got_counter.cells == want_counter.cells


# -- occupancy builder ------------------------------------------------------------


@st.composite
def scans(draw):
    """(cloud, params, profile, config) with the geometry the window must cut."""
    edge = draw(st.sampled_from([12.8, 16.0]))
    cell = draw(st.sampled_from([0.1, 0.2, 0.5]))
    horizon = draw(st.sampled_from([3.0, 8.0, 20.0]))
    fov = draw(st.sampled_from([None, math.radians(30.0)]))
    profile = RequirementProfile(
        {"occupancy": TypeRequirement(True, horizon, cell, fov)}
    )
    config = GridConfig(edge_length=edge)
    step = max(0, math.ceil(math.log2(edge / cell)))
    width = edge / (1 << step)
    # Far from the datum: 150 km north-east, 120 km south.
    far = draw(st.sampled_from([(0.0, 0.0), (150_000.0, -120_000.0)]))

    def lattice(v, unit):
        return math.floor(v / unit) * unit

    ox = far[0] + draw(st.floats(-20.0, 20.0))
    oy = far[1] + draw(st.floats(-20.0, 20.0))
    origin_kind = draw(
        st.sampled_from(["generic", "cell_corner", "patch_corner", "border"])
    )
    if origin_kind == "cell_corner":
        ox, oy = lattice(ox, width), lattice(oy, width)
    elif origin_kind == "patch_corner":
        ox, oy = lattice(ox, edge), lattice(oy, edge)
    elif origin_kind == "border":
        oy = lattice(oy, edge)

    pts = []
    reach = 1.3 * horizon
    # Some clouds hold only returns beyond the sensor's range.
    kinds = draw(st.sampled_from([
        ("free", "dup", "lattice", "on_ray", "border", "beyond"), ("beyond",)
    ]))
    for kind, a, b in draw(st.lists(
        st.tuples(
            st.sampled_from(kinds),
            st.floats(-1.0, 1.0),
            st.floats(0.0, 1.0),
        ),
        max_size=60,
    )):
        if kind in ("dup", "on_ray") and pts:
            px, py = pts[int(b * (len(pts) - 1))]
            if kind == "on_ray":  # lands on a cell the earlier ray crosses
                px, py = ox + b * (px - ox), oy + b * (py - oy)
        elif kind == "lattice":
            px = lattice(ox + a * reach, width)
            py = lattice(oy + (2 * b - 1) * reach, width)
        elif kind == "border":  # along the origin's patch border, or across one
            px = ox + a * reach
            py = lattice(oy, edge) if b < 0.5 else lattice(oy + reach, edge)
        elif kind == "beyond":
            px, py = ox + 120.0 * (1 if a >= 0 else -1), oy + b
        else:
            px, py = ox + a * reach, oy + (2 * b - 1) * reach
        pts.append((px, py))
    profile = profile.with_pose((ox + draw(st.sampled_from([0.0, 1.0])), oy, 0.0))
    params = SensorModelParams(draw(st.sampled_from([0.6, 1.0])), 0.3, 100.0)
    cloud = PointCloud((ox, oy), np.array(pts).reshape(-1, 2))
    return cloud, params, profile, config


@settings(max_examples=200, deadline=None)
@given(scans())
def test_occupancy_equals_sort_based_builder(scan):
    assert_same_grid(measurement_grid_occupancy(*scan), occupancy_sorted(*scan))


# -- semantic builder -------------------------------------------------------------


@st.composite
def observations(draw):
    cell = draw(st.sampled_from([0.1, 0.2, 0.4]))
    fov = draw(st.sampled_from([None, math.radians(30.0)]))
    profile = RequirementProfile({"semantic": TypeRequirement(True, 40.0, cell, fov)})
    vx, vy = draw(st.sampled_from([(0.0, 0.0), (30.0, 6.4), (150_000.0, -120_000.0)]))
    labels = list(SEMANTIC_FRAME.hypotheses)
    pts, labs, confs = [], [], []
    for a, b, label, conf, dup in draw(st.lists(
        st.tuples(
            st.floats(-45.0, 45.0),
            st.floats(-45.0, 45.0),
            st.sampled_from(labels),
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
            st.booleans(),
        ),
        max_size=80,
    )):
        if dup and pts:  # same cell, possibly another label: conflict
            pts.append(pts[-1])
        else:
            pts.append((vx + a, vy + b))
        labs.append(label)
        confs.append(conf)
    obs = SemanticObservation(np.array(pts).reshape(-1, 2), labs, np.array(confs))
    return obs, profile.with_pose((vx, vy, 0.0)), GridConfig()


@settings(max_examples=200, deadline=None)
@given(observations())
def test_semantic_equals_sort_based_builder(observation):
    obs, profile, config = observation
    got_counter, want_counter = ConflictCounter(), ConflictCounter()
    got = measurement_grid_semantic(obs, profile, config, got_counter)
    want = semantic_sorted(obs, profile, config, want_counter)
    assert_same_grid(got, want)
    assert got_counter.cells == want_counter.cells


def test_semantic_builder_folds_only_cells_holding_two_labels(monkeypatch):
    import apgm.sensors

    stacks = []

    def spy(masses):
        stacks.append(masses.shape)
        return fold_masses(masses)

    monkeypatch.setattr(apgm.sensors, "fold_masses", spy)
    profile = RequirementProfile({"semantic": TypeRequirement(True, 40.0, 0.2)})
    single = (
        [(5.0, 0.05), (5.1, 0.06), (7.0, 1.0), (-3.0, 2.0)],
        ["road", "road", "marking", "blocked"],
        [0.5, 0.7, 1.0, 0.3],
    )
    mixed = (
        [(5.0, 0.05), (5.1, 0.06), (7.0, 1.0)],
        ["road", "blocked", "marking"],
        [1.0, 1.0, 0.4],
    )
    # The single-label frame folds an empty stack: no row is combined.
    for (points, labels, confs), stack in ((single, (4, 0, 4)), (mixed, (4, 1, 4))):
        stacks.clear()
        obs = SemanticObservation(points, labels, confs)
        got_counter, want_counter = ConflictCounter(), ConflictCounter()
        got = measurement_grid_semantic(obs, profile, GridConfig(), got_counter)
        assert stacks == [stack]
        want = semantic_sorted(obs, profile, GridConfig(), want_counter)
        assert_same_grid(got, want)
        assert got_counter.cells == want_counter.cells == stack[1]


# -- region labelling --------------------------------------------------------------

# Half-metre lattice values put points on vertices, edges and bounding lines.
_LATTICE = st.integers(-5, 5).map(lambda v: v / 2.0)
_COORD = st.one_of(_LATTICE, st.floats(-2.5, 2.5))


@st.composite
def polygons(draw):
    kind = draw(st.sampled_from(["rectangle", "ell", "slanted"]))
    if kind == "rectangle":
        x0, x1 = sorted(draw(st.tuples(_COORD, _COORD)))
        y0, y1 = sorted(draw(st.tuples(_COORD, _COORD)))
        vertices = Rect(x0, y0, x1, y1).as_polygon().tolist()
    elif kind == "ell":  # axis-parallel and concave
        x0, x1, x2 = sorted(draw(st.tuples(_COORD, _COORD, _COORD)))
        y0, y1, y2 = sorted(draw(st.tuples(_COORD, _COORD, _COORD)))
        vertices = [(x0, y0), (x2, y0), (x2, y1), (x1, y1), (x1, y2), (x0, y2)]
    else:  # slanted edges, possibly concave or self-crossing
        vertices = draw(st.lists(st.tuples(_COORD, _COORD), min_size=3, max_size=7))
    start = draw(st.integers(0, len(vertices) - 1))
    vertices = vertices[start:] + vertices[:start]
    if draw(st.booleans()):
        vertices = vertices[::-1]
    return np.array(vertices, dtype=np.float64)


@st.composite
def labelling_cases(draw):
    # Distinct labels make the first-match-wins order visible.
    regions = [
        SemanticRegion(polygon, f"region{i}")
        for i, polygon in enumerate(draw(st.lists(polygons(), max_size=5)))
    ]
    points = draw(st.lists(st.tuples(_COORD, _COORD), max_size=30))
    far = st.floats(-100, 100)
    points += draw(st.lists(st.tuples(far, far), max_size=5))
    for region in regions:
        vertices = region.polygon
        x0, y0 = vertices.min(axis=0)
        x1, y1 = vertices.max(axis=0)
        t = draw(st.sampled_from([0.0, 0.25, 0.5, 1.0 / 3.0]))
        points += [tuple(v) for v in vertices]
        ends = np.roll(vertices, -1, axis=0)
        points += [tuple(a + t * (b - a)) for a, b in zip(vertices, ends)]
        c = draw(_COORD)
        points += [(x0, c), (x1, c), (c, y0), (c, y1)]
    points = np.array(points, dtype=np.float64).reshape(-1, 2)
    return WorldModel(regions=regions), points


@settings(max_examples=400, deadline=None)
@given(labelling_cases())
def test_label_points_equals_every_region_loop(case):
    world, points = case
    with np.errstate(over="ignore"):  # the loop reports an overflowing crossing x
        want = label_points_every_region(world.regions, points)
    assert world.label_points(points) == want


def test_label_points_empty_inputs():
    world = default_world()
    assert world.label_points(np.empty((0, 2))) == []
    points = np.array([[35.0, 0.0], [35.0, 4.0], [-100.0, 0.0]])
    assert WorldModel().label_points(points) == ["unknown"] * 3


def test_label_points_on_default_world_frustums():
    world = default_world()
    for x in np.linspace(-10.0, 470.0, 25):
        for heading in (0.0, 0.7, math.pi):
            points = simulate_camera(world, (x, 0.3, heading), CameraConfig()).points
            got = world.label_points(points)
            assert got == label_points_every_region(world.regions, points)


@st.composite
def reference_discs(draw):
    """(center, datum, horizon, edge, step); a third of the horizons equal
    a patch's exact distance, so boundary rows sit on the horizon."""
    edge = draw(st.sampled_from([12.8, 3.2, 1.0, 0.7, 25.0]))
    datum = draw(
        st.one_of(
            st.just((0.0, 0.0)),
            st.tuples(*[st.floats(-1e3, 1e3, allow_nan=False)] * 2),
        )
    )
    def coord(d):
        return st.one_of(
            st.floats(-1e4, 1e4, allow_nan=False),
            st.integers(-800, 800).map(lambda i: d + i * edge),  # on patch borders
        )

    cx, cy = draw(coord(datum[0])), draw(coord(datum[1]))
    horizon = draw(st.floats(0.0, 60.0, allow_nan=False))
    if draw(st.integers(0, 2)) == 0:
        ix = math.floor((cx - datum[0]) / edge) + draw(st.integers(-6, 6))
        iy = math.floor((cy - datum[1]) / edge) + draw(st.integers(-6, 6))
        x0, y0 = datum[0] + edge * ix, datum[1] + edge * iy
        horizon = _rect_min_distance(cx, cy, x0, y0, x0 + edge, y0 + edge)
    return (cx, cy), datum, horizon, edge, draw(st.integers(0, 10))


@settings(max_examples=400, deadline=None)
@example(((31.1, -4.9), (-1.7, 2.3), 20.0, 12.8, 0))  # a patch exactly on the horizon
@given(reference_discs())
def test_uniform_count_equals_per_patch_scan(disc):
    got = uniform_patched_cell_count(*disc)
    assert got == uniform_patched_cell_count_scan(*disc)


# -- occupancy merge --------------------------------------------------------------

# Row kinds: -0.0 entries, the smallest subnormal, exact 0 and 1, rows whose
# masses sum to 1 within float32 rounding (possibly one ulp over) and NaN.
_MERGE_KINDS = ("random", "vacuous", "negative_zero", "subnormal", "certain",
                "sums_to_one", "nan")


def _occ_rows(rng, kinds, n, dtype):
    kind = rng.choice(list(kinds), size=n)
    rows = rng.dirichlet(np.ones(3), size=n)[:, :2].astype(dtype)
    coin = rng.random((n, 2)) < 0.5
    rows[kind == "vacuous"] = 0.0
    sel = kind == "negative_zero"
    rows[sel] = np.where(coin[sel], dtype(-0.0), rows[sel])
    sel = kind == "subnormal"
    rows[sel] = np.where(coin[sel], np.finfo(dtype).smallest_subnormal, rows[sel])
    sel = kind == "certain"
    rows[sel] = np.eye(2, dtype=dtype)[coin[sel, 0].astype(int)]
    sel = kind == "sums_to_one"
    occ = rng.random(sel.sum()).astype(np.float32)
    free = np.float32(1.0) - occ
    free = np.where(coin[sel, 0], np.nextafter(free, np.float32(2.0)), free)
    rows[sel] = np.stack([occ, free], axis=-1)
    sel = kind == "nan"
    rows[sel] = np.where(coin[sel], np.nan, rows[sel])
    return rows


def _same_bits(got, want):
    bits = np.uint64 if want.dtype == np.float64 else np.uint32
    return got.dtype == want.dtype and np.array_equal(got.view(bits), want.view(bits))


def test_occ_merge_equals_median_on_every_four_tuple():
    values = np.array([-0.0, 0.0, 1e-300, 0.1, 0.2, 0.5, 1.0, np.float32(0.3), np.nan])
    tuples = np.array(list(itertools.product(values, repeat=4)))  # 6,561 blocks
    children = np.stack([tuples[:, ::-1], tuples], axis=-1)  # (6561, 4, 2)
    want = occ_block_merge_median(children)
    assert not np.signbit(want[..., 1]).any()
    assert _same_bits(occ_block_merge(children), want)
    assert _same_bits(_occ_merge_2x2(*(children[..., j, :] for j in range(4))), want)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.lists(st.integers(1, 9), max_size=2),
    st.sets(st.sampled_from(_MERGE_KINDS), min_size=1),
)
def test_occ_block_merge_equals_median_merge(seed, lead, kinds):
    rng = np.random.default_rng(seed)
    n = math.prod(lead)
    children = _occ_rows(rng, sorted(kinds), 4 * n, np.float64)
    children = children.reshape(*lead, 4, 2)
    want = occ_block_merge_median(children)
    assert _same_bits(occ_block_merge(children), want)
    assert _same_bits(_occ_merge_2x2(*(children[..., j, :] for j in range(4))), want)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 7),
    st.integers(1, 3),
    st.sets(st.sampled_from([k for k in _MERGE_KINDS if k != "nan"]), min_size=1),
)
def test_resample_layer_merge_equals_median_merge(seed, step, steps_down, kinds):
    target = max(step - steps_down, 0)
    rng = np.random.default_rng(seed)
    layer = Layer("occupancy", OCCUPANCY_FRAME, step)
    rows = _occ_rows(rng, sorted(kinds), layer.cells, np.float32)
    layer.masses[:] = rows.reshape(layer.masses.shape)
    got = resample_layer(layer, target)
    assert got.step == target
    assert _same_bits(got.masses, resample_occupancy_merged(layer, target))
