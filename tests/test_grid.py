"""Container arithmetic, lazy allocation, accounting, snapshots."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgm import (
    CellOutOfBoundsError,
    GridConfig,
    GridMap,
    GridMapError,
    InputShapeError,
    InvariantError,
    Layer,
    ResolutionConflictError,
    SnapshotError,
    load_grid,
    save_grid,
)
from apgm.grid import (
    MAX_STEP,
    OCCUPANCY_FRAME,
    SEMANTIC_FRAME,
    Patch,
    global_cells_of,
    split_global_cells,
)
from apgm.snapshot import MAGIC


@pytest.fixture
def grid():
    return GridMap(GridConfig())


# -- datum arithmetic -----------------------------------------------------------


def test_patch_datum_unit(grid):
    np.testing.assert_allclose(grid.patch_datum((1, 0)), [12.8, 0.0])


def test_patch_datum_zero(grid):
    np.testing.assert_allclose(grid.patch_datum((0, 0)), [0.0, 0.0])


def test_patch_datum_utm_offset():
    g = GridMap(GridConfig(datum=(500000.0, 5300000.0)))
    np.testing.assert_allclose(
        g.patch_datum((-1, 2)), [499987.2, 5300025.6], atol=1e-9
    )


def test_cell_datum_first_column(grid):
    np.testing.assert_allclose(grid.cell_datum((0, 0), 7, (1, 0)), [0.1, 0.0])


def test_cell_datum_origin(grid):
    np.testing.assert_allclose(grid.cell_datum((0, 0), 7, (0, 0)), [0.0, 0.0])


def test_cell_datum_far_corner(grid):
    np.testing.assert_allclose(
        grid.cell_datum((0, 0), 6, (63, 63)), [12.6, 12.6], atol=1e-9
    )


def test_cell_datum_out_of_bounds(grid):
    with pytest.raises(CellOutOfBoundsError):
        grid.cell_datum((0, 0), 6, (64, 0))


def test_patch_index_of_boundary_goes_up(grid):
    assert grid.patch_index_of((12.8, 0.0)) == (1, 0)


def test_patch_index_of_negative(grid):
    assert grid.patch_index_of((-0.1, 0.0)) == (-1, 0)


def test_patch_index_of_interior(grid):
    assert grid.patch_index_of((5.0, 5.0)) == (0, 0)


def test_cell_index_of_at_datum(grid):
    assert grid.cell_index_of((0.0, 0.0), 7) == ((0, 0), (0, 0))


def test_cell_index_of_offset(grid):
    assert grid.cell_index_of((0.15, 0.05), 7) == ((0, 0), (1, 0))


def test_cell_index_of_top_corner(grid):
    assert grid.cell_index_of((12.79, 12.79), 7) == ((0, 0), (127, 127))
    # The patch's far edge is the next patch's first cell.
    assert grid.cell_index_of((12.8, 0.0), 7) == ((1, 0), (0, 0))


def test_cell_index_of_one_ulp_below_a_patch_edge():
    # -1277 * 12.8 rounds above this point, so its offset from the rounded
    # patch datum is negative; binned from the grid datum, it stays in the
    # patch that patch_index_of names.
    point = (-16345.600000000002, 1.0)
    grid = GridMap(GridConfig())
    assert grid.patch_index_of(point) == (-1277, 0)
    assert grid.cell_index_of(point, 7) == ((-1277, 0), (0, 10))


def test_datum_round_trip(grid):
    rng = np.random.default_rng(0)
    for _ in range(500):
        q = rng.uniform(-100.0, 100.0, 2)
        r = int(rng.integers(0, 8))
        index, cell = grid.cell_index_of(q, r)
        assert index == grid.patch_index_of(q)
        low = grid.cell_datum(index, r, cell)
        width = 12.8 / (1 << r)
        assert np.all(low <= q + 1e-9)
        assert np.all(q < low + width + 1e-9)


@st.composite
def _lattice_points(draw):
    """(datum, edge, step, point) with each coordinate on, one ulp either
    side of, or inside a cell edge of a random step-0..10 lattice."""
    datum = tuple(draw(st.floats(-1e6, 1e6)) for _ in range(2))
    edge = draw(st.floats(0.05, 200.0))
    step = draw(st.integers(0, 10))
    width = edge / (1 << step)
    point = []
    for d in datum:
        x = d + draw(st.integers(-(1 << 20), 1 << 20)) * width
        x = draw(
            st.sampled_from([x, math.nextafter(x, -math.inf), math.nextafter(x, math.inf)])
            | st.floats(0.0, 1.0, exclude_max=True).map(lambda f, x=x: x + f * width)
        )
        point.append(x)
    return datum, edge, step, tuple(point)


# One ulp either side of a datum line, where (p - datum) / edge underflows.
_TINY = math.ulp(0.0)


@settings(max_examples=400, deadline=None)
@given(_lattice_points())
@example(((0.0, 0.0), 12.8, 7, (-_TINY, 1.0)))
@example(((0.0, 0.0), 12.8, 0, (_TINY, -_TINY)))
@example(((0.0, 0.0), 200.0, 10, (-_TINY, -_TINY)))
@example(((0.0, 0.0), 0.05, 3, (1.0, _TINY)))
def test_cell_index_of_bins_as_the_builders_and_nests_exactly(case):
    datum, edge, step, point = case
    grid = GridMap(GridConfig(datum=datum, edge_length=edge))
    index, cell = grid.cell_index_of(point, step)
    # The builders' binning: global cells, then the one split.
    cells = global_cells_of(np.array([point]), datum, grid.config.cell_width(step))
    patch, local = split_global_cells(cells[0], step)
    assert (index, cell) == (tuple(patch.tolist()), tuple(local.tolist()))
    assert grid.patch_index_of(point) == index
    # The patch is the same at every step, and each cell nests in the
    # coarser one.
    looked_up = [grid.cell_index_of(point, r) for r in range(11)]
    assert {p for p, _ in looked_up} == {index}
    for (_, coarse), (_, fine) in zip(looked_up, looked_up[1:]):
        assert (fine[0] >> 1, fine[1] >> 1) == coarse


def test_lattice_alignment_is_exact(grid):
    # Boundaries of a coarse layer coincide bit-exactly with fine ones.
    for r1, r2 in ((5, 7), (6, 7), (0, 4)):
        scale = 1 << (r2 - r1)
        for a in range(1 << r1):
            coarse = grid.cell_datum((0, 0), r1, (a, 0))[0]
            fine = grid.cell_datum((0, 0), r2, (a * scale, 0))[0]
            assert coarse == fine


# -- structure ------------------------------------------------------------------


@pytest.mark.parametrize("shape", [(4, 4), (4, 4, 3), (2, 4, 2), (8, 8, 2)])
def test_layer_refuses_masses_of_another_shape(shape):
    with pytest.raises(InputShapeError, match="does not match step 2"):
        Layer("occupancy", OCCUPANCY_FRAME, 2, np.zeros(shape))
    Layer("occupancy", OCCUPANCY_FRAME, 2, np.zeros((4, 4, 2)))


def test_lazy_layer_is_vacuous(grid):
    layer = grid.get_or_create_layer((0, 0), "occupancy", 7)
    assert layer.cells == 4**7
    assert np.all(layer.masses == 0.0)
    assert np.all(layer.omega() == 1.0)


def test_resolution_conflict(grid):
    grid.get_or_create_layer((0, 0), "occupancy", 7)
    with pytest.raises(ResolutionConflictError):
        grid.get_or_create_layer((0, 0), "occupancy", 6)


def test_get_or_create_is_idempotent(grid):
    first = grid.get_or_create_layer((0, 0), "occupancy", 7)
    again = grid.get_or_create_layer((0, 0), "occupancy", 7)
    assert first is again
    assert len(grid.patches) == 1


def test_step_bounds(grid):
    for step in (-1, MAX_STEP + 1):
        with pytest.raises(ValueError, match="outside"):
            grid.get_or_create_layer((0, 0), "occupancy", step)


def test_unknown_type(grid):
    with pytest.raises(ValueError):
        grid.get_or_create_layer((0, 0), "velocity", 5)


# -- accounting -----------------------------------------------------------------


def test_cell_count_empty(grid):
    assert grid.cell_count() == 0


def test_cell_count_single_layer(grid):
    grid.get_or_create_layer((0, 0), "occupancy", 7)
    assert grid.cell_count() == 16384


def test_cell_count_two_patches(grid):
    grid.get_or_create_layer((0, 0), "occupancy", 7)
    grid.get_or_create_layer((1, 0), "occupancy", 6)
    assert grid.cell_count() == 20480
    assert grid.cell_count("occupancy") == 20480
    assert grid.cell_count("semantic") == 0


def test_memory_bytes(grid):
    grid.get_or_create_layer((0, 0), "occupancy", 7)
    assert grid.memory_bytes() == 131072
    grid.get_or_create_layer((0, 0), "semantic", 6)
    assert grid.memory_bytes() == 131072 + 65536


def test_memory_bytes_empty(grid):
    assert grid.memory_bytes() == 0


def test_delete_patch_removes_exact_contribution(grid):
    grid.get_or_create_layer((0, 0), "occupancy", 7)
    grid.get_or_create_layer((2, 1), "occupancy", 6)
    grid.get_or_create_layer((2, 1), "semantic", 6)
    before_cells = grid.cell_count()
    before_bytes = grid.memory_bytes()
    grid.delete_patch((2, 1))
    assert before_cells - grid.cell_count() == 4096 + 4096
    assert before_bytes - grid.memory_bytes() == 4096 * 2 * 4 + 4096 * 4 * 4


def test_random_mutations_keep_uniqueness(grid):
    rng = np.random.default_rng(1)
    for _ in range(400):
        index = (int(rng.integers(-3, 4)), int(rng.integers(-3, 4)))
        if rng.random() < 0.3:
            grid.delete_patch(index)
            continue
        type_name = "occupancy" if rng.random() < 0.5 else "semantic"
        step = int(rng.integers(0, 4))
        try:
            grid.get_or_create_layer(index, type_name, step)
        except ResolutionConflictError:
            pass
        # one patch per index, one layer per type
        assert len(set(grid.patches)) == len(grid.patches)
        for idx, patch in grid.patches.items():
            assert patch.index == idx
            assert len(set(patch.layers)) == len(patch.layers)
            for name, layer in patch.layers.items():
                assert layer.type_name == name


# -- snapshots ------------------------------------------------------------------


def test_snapshot_round_trip(tmp_path, grid):
    rng = np.random.default_rng(2)
    for index, tname, r in (((0, 0), "occupancy", 7), ((-2, 5), "semantic", 4)):
        layer = grid.get_or_create_layer(index, tname, r)
        k = layer.masses.shape[-1]
        rows = rng.dirichlet(np.ones(k + 1), size=layer.cells)[:, :k]
        layer.masses[:] = rows.reshape(layer.masses.shape).astype(np.float32)
    path = save_grid(grid, tmp_path / "map.apgm")
    loaded = load_grid(path)
    assert loaded.config.edge_length == grid.config.edge_length
    assert tuple(loaded.config.datum) == tuple(grid.config.datum)
    assert set(loaded.patches) == set(grid.patches)
    for index, patch in grid.patches.items():
        for tname, layer in patch.layers.items():
            other = loaded.layer_at(index, tname)
            assert other.step == layer.step
            np.testing.assert_array_equal(other.masses, layer.masses)


def test_snapshot_magic(tmp_path):
    bad = tmp_path / "not_a_map.apgm"
    bad.write_bytes(b"PNG\x01 definitely not a grid")
    with pytest.raises(ValueError):
        load_grid(bad)


def test_snapshot_is_deterministic(tmp_path, grid):
    grid.get_or_create_layer((3, -1), "occupancy", 3)
    grid.get_or_create_layer((0, 0), "occupancy", 3)
    a = save_grid(grid, tmp_path / "a.apgm").read_bytes()
    # rebuild with reversed insertion order
    other = GridMap(GridConfig())
    other.get_or_create_layer((0, 0), "occupancy", 3)
    other.get_or_create_layer((3, -1), "occupancy", 3)
    b = save_grid(other, tmp_path / "b.apgm").read_bytes()
    assert a == b


# -- snapshot hardening ---------------------------------------------------------


def _small_grid(layers) -> GridMap:
    """A map from (patch x, patch y, type, step, seed) tuples."""
    grid = GridMap(GridConfig(datum=(3.5, -1.25), edge_length=6.4))
    for ix, iy, tname, step, seed in layers:
        layer = grid.get_or_create_layer((ix, iy), tname, step)
        k = layer.masses.shape[-1]
        rows = np.random.default_rng(seed).dirichlet(np.ones(k + 1), size=layer.cells)
        layer.masses[:] = rows[:, :k].reshape(layer.masses.shape)
    return grid


def _snapshot_bytes(grid) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        return save_grid(grid, Path(tmp) / "map.apgm").read_bytes()


def _load_bytes(data: bytes):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "map.apgm"
        path.write_bytes(data)
        return load_grid(path)


def _header_spans(grid):
    """Byte ranges of the file header and of every patch and layer header."""
    header = len(_snapshot_bytes(GridMap(grid.config)))
    spans, pos = [(0, header)], header
    for index in sorted(grid.patches):
        spans.append((pos, pos + 20))
        pos += 20
        for name in sorted(grid.patches[index].layers):
            spans.append((pos, pos + 8))
            pos += 8 + grid.patches[index].layers[name].payload_bytes
    return spans


_layers = st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.sampled_from(["occupancy", "semantic"]),
        st.integers(0, 2),
        st.integers(0, 1000),
    ),
    max_size=3,
    unique_by=lambda t: t[:3],
)


@settings(max_examples=15, deadline=None)
@given(_layers)
def test_snapshot_truncated_at_every_offset_raises(layers):
    data = _snapshot_bytes(_small_grid(layers))
    for cut in range(len(data)):
        with pytest.raises(SnapshotError):
            _load_bytes(data[:cut])


@settings(max_examples=150, deadline=None)
@given(_layers, st.data())
def test_snapshot_header_bit_flip_raises_typed_or_loads(layers, data):
    grid = _small_grid(layers)
    raw = bytearray(_snapshot_bytes(grid))
    start, end = data.draw(st.sampled_from(_header_spans(grid)))
    bit = data.draw(st.integers(0, 8 * (end - start) - 1))
    raw[start + bit // 8] ^= 1 << (bit % 8)
    try:
        loaded = _load_bytes(bytes(raw))
    except SnapshotError:
        return
    assert isinstance(loaded, GridMap)


def _one_layer_snapshot():
    grid = _small_grid([(0, 0, "occupancy", 1, 0)])
    data = bytearray(_snapshot_bytes(grid))
    layer_header = _header_spans(grid)[2][0]
    return data, layer_header


def test_snapshot_error_is_a_value_error():
    assert issubclass(SnapshotError, ValueError)
    assert issubclass(SnapshotError, GridMapError)


def test_snapshot_unknown_type_id_raises():
    data, at = _one_layer_snapshot()
    data[at : at + 4] = struct.pack("<I", 2)
    with pytest.raises(SnapshotError, match="type id 2"):
        _load_bytes(bytes(data))


def test_snapshot_step_above_max_step_raises():
    data, at = _one_layer_snapshot()
    data[at + 4 : at + 8] = struct.pack("<I", 40)
    with pytest.raises(SnapshotError, match="max step"):
        _load_bytes(bytes(data))


def test_snapshot_header_max_step_bounds_layer_steps():
    # save_grid writes grid.MAX_STEP; load_grid holds layers to the slot.
    data, _ = _one_layer_snapshot()
    assert struct.unpack("<I", data[5 + 24 : 5 + 28]) == (MAX_STEP,)
    data[5 + 24 : 5 + 28] = struct.pack("<I", 0)
    with pytest.raises(SnapshotError, match="step 1 > max step 0"):
        _load_bytes(bytes(data))


def test_snapshot_huge_step_under_huge_max_step_raises_before_allocating():
    data, at = _one_layer_snapshot()
    data[at + 4 : at + 8] = struct.pack("<I", 2**31)
    data[5 + 24 : 5 + 28] = struct.pack("<I", 2**32 - 1)  # header max step
    with pytest.raises(SnapshotError, match="max_step must be in"):
        _load_bytes(bytes(data))


def test_snapshot_non_finite_geometry_raises():
    data, _ = _one_layer_snapshot()
    data[5 + 16 : 5 + 24] = struct.pack("<d", float("nan"))  # edge length
    with pytest.raises(SnapshotError, match="geometry"):
        _load_bytes(bytes(data))


def test_snapshot_trailing_bytes_raise():
    data, _ = _one_layer_snapshot()
    with pytest.raises(SnapshotError, match="after the last patch"):
        _load_bytes(bytes(data) + b"\x00")


def _saved_then_changed(grid, index, type_name, cell, value, path):
    """``grid`` saved to ``path``, and then one layer's masses at ``cell``
    set to ``value`` both in the map and in the file's bytes. save_grid
    refuses the changed map and leaves no file; the bytes show that
    load_grid refuses such a file on its own."""
    save_grid(grid, path)
    masses = grid.layer_at(index, type_name).masses
    good = masses.astype("<f4").tobytes()
    masses[cell] = value
    refused = path.with_name("refused.apgm")
    with pytest.raises(SnapshotError, match="cannot save this map"):
        save_grid(grid, refused)
    assert not refused.exists()
    data = path.read_bytes()
    assert data.count(good) == 1
    path.write_bytes(data.replace(good, masses.astype("<f4").tobytes()))
    return path


def test_snapshot_non_finite_mass_raises(tmp_path):
    for bad in (np.nan, np.inf):
        grid = _small_grid([(0, 0, "occupancy", 1, 0), (1, 0, "semantic", 2, 1)])
        path = _saved_then_changed(
            grid, (1, 0), "semantic", (3, 2, 1), bad, tmp_path / "bad.apgm"
        )
        with pytest.raises(SnapshotError, match="NaN or inf mass"):
            load_grid(path)


def _raw_snapshot(edge=6.4, types=(("occupancy", ("occupied", "free")),), patches=()):
    """Snapshot bytes over datum (0, 0), one step-0 occupancy layer per
    patch index in ``patches``."""

    def text(s):
        return struct.pack("<I", len(s)) + s.encode()

    data = MAGIC + struct.pack("<dddI", 0.0, 0.0, edge, MAX_STEP)
    data += struct.pack("<I", len(types))
    for name, labels in types:
        data += text(name) + struct.pack("<I", len(labels))
        data += b"".join(text(label) for label in labels)
    data += struct.pack("<I", len(patches))
    for ix, iy in patches:
        data += struct.pack("<qqIII", ix, iy, 1, 0, 0) + struct.pack("<2f", 0.5, 0.25)
    return data


@pytest.mark.parametrize(
    "snapshot, match",
    [
        (dict(types=(("occupancy", ("occupied", "free")),) * 2), "listed twice"),
        (dict(edge=0.0), "edge_length must be finite and positive"),
        (dict(types=(("occupancy", ("occupied",)),)), "at least two hypotheses"),
        (dict(patches=[(0, 0), (-1, 2), (0, 0)]), "patch \\(0, 0\\) stored twice"),
    ],
    ids=["type_twice", "edge_0", "one_label_frame", "patch_twice"],
)
def test_snapshot_refuses_a_bad_type_table_edge_or_patch_list(snapshot, match):
    # The helper's bytes load where the header and patch list are sound.
    assert _load_bytes(_raw_snapshot(patches=[(0, 0)])).layer_at((0, 0), "occupancy")
    with pytest.raises(SnapshotError, match=match):
        _load_bytes(_raw_snapshot(**snapshot))


def test_snapshot_refuses_a_patch_listed_twice_without_layers():
    head = _raw_snapshot()[:-4]  # without the patch count
    entry = _raw_snapshot(patches=[(0, 0)])[len(head) + 4 :]
    empty = struct.pack("<qqI", 0, 0, 0)
    with pytest.raises(SnapshotError, match="patch \\(0, 0\\) stored twice"):
        _load_bytes(head + struct.pack("<I", 3) + empty + empty + entry)


def test_snapshot_round_trips_an_empty_patch():
    grid = _small_grid([(0, 0, "occupancy", 1, 0)])
    grid.patches[(2, -1)] = Patch((2, -1))
    data = _snapshot_bytes(grid)
    loaded = _load_bytes(data)
    assert set(loaded.patches) == {(0, 0), (2, -1)}
    assert loaded.patches[(2, -1)].layers == {}
    assert _snapshot_bytes(loaded) == data


@pytest.mark.parametrize(
    "layer, match",
    [
        (Layer("lidar", OCCUPANCY_FRAME, 1), "type the map's table does not list"),
        (Layer("occupancy", SEMANTIC_FRAME, 1), "not the table's"),
    ],
    ids=["unknown_type", "foreign_frame"],
)
def test_a_map_holds_only_layers_its_type_table_describes(tmp_path, layer, match):
    grid = _small_grid([(1, 0, "semantic", 1, 0)])
    grid.set_layer((0, 0), layer)
    with pytest.raises(InvariantError, match=match):
        grid.check()
    path = tmp_path / "map.apgm"
    with pytest.raises(SnapshotError, match=match):
        save_grid(grid, path)
    assert not path.exists()


@pytest.mark.parametrize(
    "cell, match",
    [
        ((1.5, -0.5), "outside \\[0, 1\\]"),  # sums to 1, but no mass
        ((0.75, 0.5), "singleton masses summing to"),
    ],
    ids=["mass_outside_0_1", "sum_over_1"],
)
def test_snapshot_of_an_invalid_map_raises(tmp_path, cell, match):
    grid = _small_grid([(0, 0, "occupancy", 1, 0)])
    path = _saved_then_changed(grid, (0, 0), "occupancy", (1, 0), cell, tmp_path / "bad.apgm")
    with pytest.raises(SnapshotError, match=match):
        load_grid(path)


# -- invariant pass -------------------------------------------------------------


def test_check_accepts_well_formed_maps():
    _small_grid([(0, 0, "occupancy", 1, 0), (1, -1, "semantic", 3, 1)]).check()
    GridMap(GridConfig()).check()
    assert issubclass(InvariantError, GridMapError)


@pytest.mark.parametrize(
    "value, match",
    [
        (np.nan, "NaN, inf or outside"),
        (np.inf, "NaN, inf or outside"),
        (-1e-3, "NaN, inf or outside"),
        (1.5, "NaN, inf or outside"),
    ],
)
def test_check_rejects_bad_masses(value, match):
    grid = _small_grid([(0, 0, "occupancy", 1, 0)])
    grid.layer_at((0, 0), "occupancy").masses[1, 0, 1] = value
    with pytest.raises(InvariantError, match=match):
        grid.check()


def test_check_rejects_singleton_sum_above_one():
    grid = _small_grid([(0, 0, "semantic", 1, 0)])
    grid.layer_at((0, 0), "semantic").masses[0, 1] = [0.5, 0.3, 0.2, 1e-4]
    with pytest.raises(InvariantError, match="summing to"):
        grid.check()
    grid.layer_at((0, 0), "semantic").masses[0, 1] = [0.5, 0.3, 0.2, 1e-6]
    grid.check()


def test_check_rejects_wrong_shape_and_step():
    grid = _small_grid([(0, 0, "occupancy", 1, 0)])
    layer = grid.layer_at((0, 0), "occupancy")
    layer.masses = np.zeros((2, 4, 2), dtype=np.float32)
    with pytest.raises(InvariantError, match="shape"):
        grid.check()
    big = Layer("occupancy", layer.frame, 1)
    big.step = MAX_STEP + 1  # a layer this deep would hold 2^64 cells
    grid.set_layer((0, 0), big)
    with pytest.raises(InvariantError, match="step 32 outside"):
        grid.check()
