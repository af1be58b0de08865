"""Container arithmetic, lazy allocation, accounting, snapshots."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgm import (
    CellOutOfBoundsError,
    GridConfig,
    GridMap,
    GridMapError,
    InvariantError,
    Layer,
    PointOutsidePatchError,
    ResolutionConflictError,
    SnapshotError,
    cell_index_of,
    load_grid,
    save_grid,
)


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


def test_cell_index_of_at_datum():
    assert cell_index_of((0.0, 0.0), (0.0, 0.0), 12.8, 7) == (0, 0)


def test_cell_index_of_offset():
    assert cell_index_of((0.15, 0.05), (0.0, 0.0), 12.8, 7) == (1, 0)


def test_cell_index_of_top_corner():
    assert cell_index_of((12.79, 12.79), (0.0, 0.0), 12.8, 7) == (127, 127)


def test_cell_index_of_outside():
    with pytest.raises(PointOutsidePatchError):
        cell_index_of((12.8, 0.0), (0.0, 0.0), 12.8, 7)


def test_datum_round_trip(grid):
    rng = np.random.default_rng(0)
    for _ in range(500):
        q = rng.uniform(-100.0, 100.0, 2)
        index = grid.patch_index_of(q)
        datum = grid.patch_datum(index)
        r = int(rng.integers(0, 8))
        cell = cell_index_of(q, datum, 12.8, r)
        low = grid.cell_datum(index, r, cell)
        width = 12.8 / (1 << r)
        assert np.all(low <= q + 1e-9)
        assert np.all(q < low + width + 1e-9)


def test_lattice_alignment_is_exact(grid):
    # Boundaries of a coarse layer coincide bit-exactly with fine ones.
    for r1, r2 in ((5, 7), (6, 7), (0, 4)):
        scale = 1 << (r2 - r1)
        for a in range(1 << r1):
            coarse = grid.cell_datum((0, 0), r1, (a, 0))[0]
            fine = grid.cell_datum((0, 0), r2, (a * scale, 0))[0]
            assert coarse == fine


# -- structure ------------------------------------------------------------------


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
    with pytest.raises(ValueError):
        grid.get_or_create_layer((0, 0), "occupancy", 11)


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
    grid = GridMap(GridConfig(datum=(3.5, -1.25), edge_length=6.4, max_step=3))
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


def test_snapshot_non_finite_mass_raises(tmp_path):
    for bad in (np.nan, np.inf):
        grid = _small_grid([(0, 0, "occupancy", 1, 0), (1, 0, "semantic", 2, 1)])
        grid.layer_at((1, 0), "semantic").masses[3, 2, 1] = bad
        path = save_grid(grid, tmp_path / "bad.apgm")
        with pytest.raises(SnapshotError, match="NaN or inf mass"):
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
    big = Layer("occupancy", layer.frame, 4)  # max_step is 3
    grid.set_layer((0, 0), big)
    with pytest.raises(InvariantError, match="step 4"):
        grid.check()
