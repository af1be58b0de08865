"""Fusion framework: fold semantics, the fused-step rule, union algebra."""

import numpy as np
import pytest

from apgm import kernels
from apgm import (
    DatumMismatchError,
    EdgeMismatchError,
    Frame,
    FrameMismatchError,
    GridConfig,
    GridMap,
    TotalConflictError,
    combine_dst,
    discount_grid,
    fuse_cells,
    fuse_grids,
    fuse_layers,
    fuse_patches,
    make_bba,
    temporal_update,
    vacuous,
)
from apgm.evidence import ConflictCounter
from apgm.grid import OCCUPANCY_FRAME, SEMANTIC_FRAME, Layer, Patch
from apgm.kernels import combine_masses
from apgm.requirements import RequirementProfile, TypeRequirement, apply_requirements
from conftest import bf_combine


def occ(o, f=0.0):
    return make_bba(OCCUPANCY_FRAME, [o, f])


def random_layer(rng, type_name, frame, step):
    layer = Layer(type_name, frame, step)
    k = len(frame)
    rows = rng.dirichlet(np.ones(k + 1), size=layer.cells)[:, :k]
    layer.masses[:] = rows.reshape(layer.masses.shape).astype(np.float32)
    return layer


# -- cells ---------------------------------------------------------------------


def test_fuse_cells_vacuous_neutral():
    b = occ(0.4, 0.3)
    fused = fuse_cells([vacuous(OCCUPANCY_FRAME), b])
    np.testing.assert_allclose(fused.masses, b.masses, atol=1e-12)


def test_fuse_cells_conflict_pair():
    frame = Frame(("A", "B"))
    fused = fuse_cells(
        [make_bba(frame, [0.9, 0.0]), make_bba(frame, [0.0, 0.9])]
    )
    np.testing.assert_allclose(
        fused.masses, [9.0 / 19.0, 9.0 / 19.0], atol=1e-9
    )
    assert fused.omega == pytest.approx(1.0 / 19.0, abs=1e-9)


def test_fuse_cells_total_conflict_fallback():
    counter = ConflictCounter()
    fused = fuse_cells([occ(1.0), occ(0.0, 1.0)], counter=counter)
    assert fused.omega == 1.0
    assert counter.cells == 1


def _fold_combine_dst(cells):
    """The left fold of combine_dst, a total conflict resetting to vacuous."""
    acc, dead = cells[0], 0
    for nxt in cells[1:]:
        try:
            acc, _ = combine_dst(acc, nxt)
        except TotalConflictError:
            acc, dead = vacuous(acc.frame), dead + 1
    return acc, dead


@pytest.mark.parametrize("seed", range(20))
def test_fuse_cells_matches_the_combine_dst_fold_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 5))
    frame = Frame(tuple("ABCD"[:k]))
    rows = rng.dirichlet(np.ones(k + 1), size=int(rng.integers(2, 9)))[:, :k]
    cells = [make_bba(frame, row) for row in rows]
    # One totally conflicting pair: all mass on A, then all mass on B.
    at = int(rng.integers(0, len(cells) + 1))
    cells[at:at] = [make_bba(frame, np.eye(k)[0]), make_bba(frame, np.eye(k)[1])]
    counter = ConflictCounter()
    fused = fuse_cells(cells, counter)
    want, dead = _fold_combine_dst(cells)
    assert fused.masses.tobytes() == want.masses.tobytes()
    assert np.float64(fused.omega).tobytes() == np.float64(want.omega).tobytes()
    assert counter.cells == dead >= 1


def test_fuse_cells_refuses_mixed_frames_and_no_cells():
    with pytest.raises(FrameMismatchError):
        fuse_cells([occ(0.5), make_bba(Frame(("A", "B")), [0.5, 0.0])])
    with pytest.raises(ValueError, match="at least one cell"):
        fuse_cells([])


# -- layers --------------------------------------------------------------------


def test_fuse_layers_counts_the_cells_the_kernel_zeroes():
    # K = 1 is total conflict; K = 1 - 2^-24, the largest float32 mass
    # below 1, is not, and keeps its free mass.
    a = Layer("occupancy", OCCUPANCY_FRAME, 1)
    a.masses[:, :, 0] = [[1.0, 1.0 - 2.0**-24], [0.0, 0.5]]
    b = Layer("occupancy", OCCUPANCY_FRAME, 1)
    b.masses[:, :, 1] = 1.0
    counter = ConflictCounter()
    fused = fuse_layers([a, b], r_req=1, counter=counter)
    assert counter.cells == 1
    assert np.all(fused.masses[0, 0] == 0.0)
    assert fused.masses[0, 1].tolist() == [0.0, 1.0]


def test_fused_step_capped_by_available():
    rng = np.random.default_rng(0)
    layers = [
        random_layer(rng, "occupancy", OCCUPANCY_FRAME, 5),
        random_layer(rng, "occupancy", OCCUPANCY_FRAME, 6),
    ]
    assert fuse_layers(layers, r_req=7).step == 6


def test_fused_step_capped_by_requirement():
    rng = np.random.default_rng(1)
    assert fuse_layers(
        [random_layer(rng, "occupancy", OCCUPANCY_FRAME, 7)], r_req=6
    ).step == 6


def test_single_layer_at_required_step_unchanged():
    rng = np.random.default_rng(2)
    layer = random_layer(rng, "occupancy", OCCUPANCY_FRAME, 6)
    fused = fuse_layers([layer], r_req=6)
    assert fused is not layer
    np.testing.assert_array_equal(fused.masses, layer.masses)


def test_fuse_layers_matches_scalar_combines():
    rng = np.random.default_rng(3)
    a = random_layer(rng, "occupancy", OCCUPANCY_FRAME, 3)
    b = random_layer(rng, "occupancy", OCCUPANCY_FRAME, 3)
    fused = fuse_layers([a, b], r_req=3)
    for idx in ((0, 0), (3, 5), (7, 7)):
        sa = make_bba(OCCUPANCY_FRAME, a.masses[idx].astype(np.float64))
        sb = make_bba(OCCUPANCY_FRAME, b.masses[idx].astype(np.float64))
        want, _, _ = bf_combine(sa, sb)
        np.testing.assert_allclose(fused.masses[idx], want, atol=1e-6)


# -- patches -------------------------------------------------------------------


def test_patch_union_of_types():
    rng = np.random.default_rng(4)
    config = GridConfig()
    pa = Patch((0, 0), {"occupancy": random_layer(rng, "occupancy", OCCUPANCY_FRAME, 6)})
    pb = Patch(
        (0, 0),
        {"semantic": random_layer(rng, "semantic", config.types["semantic"], 6)},
    )
    fused = fuse_patches([pa, pb], {"occupancy": 6, "semantic": 6})
    assert set(fused.layers) == {"occupancy", "semantic"}


def test_patch_empty():
    fused = fuse_patches([Patch((2, 3))], {})
    assert fused.index == (2, 3)
    assert fused.layers == {}


def test_patch_mixed_steps_upsampled():
    rng = np.random.default_rng(5)
    pa = Patch((0, 0), {"occupancy": random_layer(rng, "occupancy", OCCUPANCY_FRAME, 7)})
    pb = Patch((0, 0), {"occupancy": random_layer(rng, "occupancy", OCCUPANCY_FRAME, 6)})
    fused = fuse_patches([pa, pb], {"occupancy": 7})
    assert fused.layers["occupancy"].step == 7


def test_patch_index_mismatch():
    with pytest.raises(ValueError):
        fuse_patches([Patch((0, 0)), Patch((1, 0))], {})


# -- grids ---------------------------------------------------------------------


def small_grid(rng, config, entries):
    g = GridMap(config)
    for index, tname, step in entries:
        g.set_layer(index, random_layer(rng, tname, config.types[tname], step))
    return g


def test_grid_union_semantics():
    rng = np.random.default_rng(6)
    config = GridConfig()
    r_req = {"occupancy": 3, "semantic": 3}
    for _ in range(100):
        grids = []
        for _ in range(int(rng.integers(1, 4))):
            entries = []
            for _ in range(int(rng.integers(0, 5))):
                index = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                tname = "occupancy" if rng.random() < 0.6 else "semantic"
                entries.append((index, tname, int(rng.integers(1, 4))))
            # one layer per (index, type): keep last
            unique = {(i, t): (i, t, s) for i, t, s in entries}
            grids.append(small_grid(rng, config, list(unique.values())))
        fused = fuse_grids(grids, r_req)
        # set-algebra oracle
        want_indices = set().union(*[set(g.patches) for g in grids])
        assert set(fused.patches) == want_indices
        for index in want_indices:
            want_types = set().union(
                *[set(g.patches[index].layers) for g in grids if index in g.patches]
            )
            assert set(fused.patches[index].layers) == want_types
            for tname in want_types:
                steps = [
                    g.patches[index].layers[tname].step
                    for g in grids
                    if index in g.patches and tname in g.patches[index].layers
                ]
                want_step = min(r_req[tname], max(steps))
                assert fused.patches[index].layers[tname].step == want_step


def test_grid_disjoint_union_copies_values():
    rng = np.random.default_rng(7)
    config = GridConfig()
    a = small_grid(rng, config, [((0, 0), "occupancy", 4)])
    b = small_grid(rng, config, [((5, 5), "occupancy", 4)])
    fused = fuse_grids([a, b], {"occupancy": 4})
    np.testing.assert_array_equal(
        fused.patches[(0, 0)].layers["occupancy"].masses,
        a.patches[(0, 0)].layers["occupancy"].masses,
    )
    np.testing.assert_array_equal(
        fused.patches[(5, 5)].layers["occupancy"].masses,
        b.patches[(5, 5)].layers["occupancy"].masses,
    )


def test_grid_overlap_is_cellwise_combination():
    rng = np.random.default_rng(8)
    config = GridConfig()
    a = small_grid(rng, config, [((0, 0), "occupancy", 3), ((1, 0), "occupancy", 3)])
    b = small_grid(rng, config, [((1, 0), "occupancy", 3), ((2, 0), "occupancy", 3)])
    fused = fuse_grids([a, b], {"occupancy": 3})
    assert fused.cell_count() >= max(a.cell_count(), b.cell_count())
    assert fused.cell_count() <= a.cell_count() + b.cell_count()
    la = a.patches[(1, 0)].layers["occupancy"]
    lb = b.patches[(1, 0)].layers["occupancy"]
    lf = fused.patches[(1, 0)].layers["occupancy"]
    for idx in ((0, 0), (2, 7), (7, 1)):
        want, _, _ = bf_combine(
            make_bba(OCCUPANCY_FRAME, la.masses[idx].astype(np.float64)),
            make_bba(OCCUPANCY_FRAME, lb.masses[idx].astype(np.float64)),
        )
        np.testing.assert_allclose(lf.masses[idx], want, atol=1e-6)


def test_grid_order_invariance():
    rng = np.random.default_rng(9)
    config = GridConfig()
    grids = [
        small_grid(rng, config, [((0, 0), "occupancy", 3), ((1, 1), "occupancy", 2)]),
        small_grid(rng, config, [((0, 0), "occupancy", 3)]),
        small_grid(rng, config, [((0, 0), "occupancy", 2), ((1, 1), "occupancy", 2)]),
    ]
    forward = fuse_grids(grids, {"occupancy": 3})
    backward = fuse_grids(list(reversed(grids)), {"occupancy": 3})
    assert set(forward.patches) == set(backward.patches)
    for index in forward.patches:
        lf = forward.patches[index].layers["occupancy"]
        lb = backward.patches[index].layers["occupancy"]
        np.testing.assert_allclose(lf.masses, lb.masses, atol=1e-9)


def test_grid_inputs_not_mutated():
    rng = np.random.default_rng(10)
    config = GridConfig()
    a = small_grid(rng, config, [((0, 0), "occupancy", 3)])
    b = small_grid(rng, config, [((0, 0), "occupancy", 3)])
    snap_a = a.patches[(0, 0)].layers["occupancy"].masses.copy()
    fuse_grids([a, b], {"occupancy": 3})
    np.testing.assert_array_equal(
        a.patches[(0, 0)].layers["occupancy"].masses, snap_a
    )


def _sparse_layer(rng, step, holds):
    """Random occupancy layer holding evidence only where ``holds`` is set."""
    layer = random_layer(rng, "occupancy", OCCUPANCY_FRAME, step)
    layer.masses[~holds.reshape(layer.masses.shape[:2])] = 0.0
    return layer


def _assert_fresh_and_inputs_intact(fused_layers, inputs, before):
    for layer, snapshot in zip(inputs, before):
        assert layer.masses.tobytes() == snapshot
    for fused in fused_layers:
        for layer in inputs:
            assert not np.shares_memory(fused.masses, layer.masses)


@pytest.mark.parametrize(
    "stack",
    ["single", "single_resampled", "one_holder_rest_vacuous", "sparse", "mixed_steps"],
)
def test_fuse_layers_output_is_fresh_and_inputs_untouched(stack):
    rng = np.random.default_rng(15)
    n = 1 << 6
    every = np.ones(n, dtype=bool)
    if stack == "single":
        layers = [random_layer(rng, "occupancy", OCCUPANCY_FRAME, 3)]
    elif stack == "single_resampled":
        layers = [random_layer(rng, "occupancy", OCCUPANCY_FRAME, 4)]
    elif stack == "one_holder_rest_vacuous":
        layers = [Layer("occupancy", OCCUPANCY_FRAME, 3) for _ in range(3)]
        layers[1] = _sparse_layer(rng, 3, every)
    elif stack == "sparse":
        layers = [_sparse_layer(rng, 3, rng.random(n) < 0.4) for _ in range(3)]
    else:
        layers = [
            _sparse_layer(rng, 3, rng.random(n) < 0.5),
            random_layer(rng, "occupancy", OCCUPANCY_FRAME, 2),
        ]
    before = [l.masses.tobytes() for l in layers]
    fused = fuse_layers(layers, 3, ConflictCounter())
    _assert_fresh_and_inputs_intact([fused], layers, before)


def test_temporal_update_output_is_fresh_and_inputs_untouched():
    rng = np.random.default_rng(16)
    config = GridConfig()
    previous = small_grid(rng, config, [((0, 0), "occupancy", 3), ((1, 0), "occupancy", 3)])
    lidar = GridMap(config)
    lidar.set_layer((0, 0), _sparse_layer(rng, 3, rng.random(64) < 0.3))
    lidar.set_layer((2, 0), random_layer(rng, "occupancy", OCCUPANCY_FRAME, 3))
    silent = GridMap(config)
    silent.set_layer((1, 0), Layer("occupancy", OCCUPANCY_FRAME, 3))
    inputs = [l for g in (previous, lidar, silent) for _, l in g.iter_layers()]
    before = [l.masses.tobytes() for l in inputs]
    out = temporal_update(previous, [lidar, silent], {"occupancy": 3}, 0.95)
    assert set(out.patches) == {(0, 0), (1, 0), (2, 0)}
    _assert_fresh_and_inputs_intact([l for _, l in out.iter_layers()], inputs, before)


def test_grid_fold_shares_bounded_slices_across_patches(monkeypatch):
    # 48 patches of 256 rows, every row held by each input: occupancy from
    # three grids, semantic from two. Each type's queue folds once it holds
    # 8192 rows (32 patches) and again at the end (16 patches), one
    # combine call per fold step and slice, not one per patch and step.
    rng = np.random.default_rng(21)
    grids = [GridMap(GridConfig()) for _ in range(3)]
    for i in range(48):
        for g, grid in enumerate(grids):
            grid.set_layer((i, 0), random_layer(rng, "occupancy", OCCUPANCY_FRAME, 4))
            if g < 2:
                grid.set_layer((i, 0), random_layer(rng, "semantic", SEMANTIC_FRAME, 4))
    rows = []

    def spy(a, b, out, conflict):
        rows.append(len(a))
        return combine_masses(a, b, out, conflict)

    monkeypatch.setattr(kernels, "combine_masses", spy)
    fused = fuse_grids(grids, {})
    assert max(rows) <= 8192
    assert sorted(rows) == [4096] * 3 + [8192] * 3
    monkeypatch.undo()
    for index, patch in fused.patches.items():
        alone = fuse_patches([g.patches[index] for g in grids], {})
        for name, layer in patch.layers.items():
            assert layer.masses.tobytes() == alone.layers[name].masses.tobytes()


def test_grid_datum_mismatch():
    a = GridMap(GridConfig(datum=(0.0, 0.0)))
    b = GridMap(GridConfig(datum=(1.0, 0.0)))
    with pytest.raises(DatumMismatchError):
        fuse_grids([a, b], {})


def test_grid_edge_mismatch():
    a = GridMap(GridConfig(edge_length=12.8))
    b = GridMap(GridConfig(edge_length=6.4))
    with pytest.raises(EdgeMismatchError):
        fuse_grids([a, b], {})


FREE_FIRST_FRAME = Frame(("free", "occupied"))
THREE_LABEL_FRAME = Frame(("occupied", "free", "moving"))


def one_cell(frame, row, type_name="occupancy"):
    layer = Layer(type_name, frame, 0)
    layer.masses[0, 0] = row
    return layer


# 0.9 free over (free, occupied) read as occupancy once fused to 0.95
# occupied; a 3-label frame failed in numpy's broadcasting instead.
OTHER_FRAMES = pytest.mark.parametrize(
    "other", [one_cell(FREE_FIRST_FRAME, [0.9, 0.0]), one_cell(THREE_LABEL_FRAME, [0.0, 0.9, 0.0])]
)


@OTHER_FRAMES
def test_fuse_layers_refuses_another_frame(other):
    with pytest.raises(FrameMismatchError):
        fuse_layers([one_cell(OCCUPANCY_FRAME, [0.5, 0.0]), other], 0)


def test_fuse_layers_refuses_another_type():
    semantic = one_cell(OCCUPANCY_FRAME, [0.9, 0.0], type_name="semantic")
    with pytest.raises(FrameMismatchError):
        fuse_layers([one_cell(OCCUPANCY_FRAME, [0.5, 0.0]), semantic], 0)


def test_fuse_layers_accepts_an_equal_frame():
    equal = one_cell(Frame(OCCUPANCY_FRAME.hypotheses), [0.5, 0.0])
    fused = fuse_layers([one_cell(OCCUPANCY_FRAME, [0.5, 0.0]), equal], 0)
    assert fused.masses[0, 0, 0] == pytest.approx(0.75)


@OTHER_FRAMES
def test_fuse_patches_refuses_another_frame(other):
    ours = Patch((0, 0), {"occupancy": one_cell(OCCUPANCY_FRAME, [0.5, 0.0])})
    theirs = Patch((0, 0), {"occupancy": other})
    with pytest.raises(FrameMismatchError):
        fuse_patches([ours, theirs], {})


@OTHER_FRAMES
def test_grid_type_table_mismatch(other):
    a = GridMap(GridConfig())
    a.set_layer((0, 0), one_cell(OCCUPANCY_FRAME, [0.5, 0.0]))
    b = GridMap(GridConfig(types={"occupancy": other.frame, "semantic": SEMANTIC_FRAME}))
    # A patch only b holds: no layer stack compares the two frames.
    b.set_layer((1, 0), other)
    with pytest.raises(FrameMismatchError):
        fuse_grids([a, b], {})
    # Equal tables held in distinct objects fuse.
    c = GridMap(GridConfig())
    c.set_layer((0, 0), one_cell(OCCUPANCY_FRAME, [0.5, 0.0]))
    fused = fuse_grids([a, c], {}).patches[(0, 0)].layers["occupancy"]
    assert fused.masses[0, 0, 0] == pytest.approx(0.75)


# -- temporal accumulation -------------------------------------------------------


def test_temporal_alpha_zero_equals_current():
    rng = np.random.default_rng(11)
    config = GridConfig()
    previous = small_grid(rng, config, [((4, 4), "occupancy", 3)])
    current = small_grid(rng, config, [((0, 0), "occupancy", 3)])
    out = temporal_update(previous, [current], {"occupancy": 3}, 0.0)
    assert set(out.patches) == {(0, 0)}
    np.testing.assert_allclose(
        out.patches[(0, 0)].layers["occupancy"].masses,
        current.patches[(0, 0)].layers["occupancy"].masses,
        atol=1e-7,
    )


def test_temporal_alpha_one_keeps_previous():
    rng = np.random.default_rng(12)
    config = GridConfig()
    previous = small_grid(rng, config, [((0, 0), "occupancy", 3)])
    current = GridMap(config)
    out = temporal_update(previous, [current], {"occupancy": 3}, 1.0)
    np.testing.assert_allclose(
        out.patches[(0, 0)].layers["occupancy"].masses,
        previous.patches[(0, 0)].layers["occupancy"].masses,
        atol=1e-7,
    )


def test_temporal_decay_over_empty_cycles():
    config = GridConfig()
    grid = GridMap(config)
    layer = grid.get_or_create_layer((0, 0), "occupancy", 3)
    layer.masses[2, 2, 0] = 0.9
    for _ in range(10):
        grid = temporal_update(grid, [GridMap(config)], {"occupancy": 3}, 0.95)
    got = grid.patches[(0, 0)].layers["occupancy"].masses[2, 2, 0]
    assert got == pytest.approx(0.9 * 0.95**10, abs=1e-5)


def test_temporal_horizon_culling():
    rng = np.random.default_rng(13)
    config = GridConfig()
    previous = small_grid(
        rng, config, [((0, 0), "occupancy", 3), ((40, 40), "occupancy", 3)]
    )
    profile = RequirementProfile(
        {"occupancy": TypeRequirement(True, 20.0, 1.6)}, vehicle_pose=(0.0, 0.0, 0.0)
    )
    out = temporal_update(previous, [GridMap(config)], {"occupancy": 3}, 1.0)
    apply_requirements(out, profile)
    assert set(out.patches) == {(0, 0)}


def test_discount_grid_scales_masses():
    rng = np.random.default_rng(14)
    config = GridConfig()
    g = small_grid(rng, config, [((0, 0), "occupancy", 3)])
    before = g.patches[(0, 0)].layers["occupancy"].masses.copy()
    out = discount_grid(g, 0.5)
    np.testing.assert_allclose(
        out.patches[(0, 0)].layers["occupancy"].masses,
        before * np.float32(0.5),
        atol=1e-7,
    )
    np.testing.assert_array_equal(
        g.patches[(0, 0)].layers["occupancy"].masses, before
    )


@pytest.mark.parametrize("alpha", [1.5, -0.5, float("nan")])
def test_aging_factor_outside_the_unit_interval_is_refused(alpha):
    # As evidence.discount refuses it: 1.5 would give masses above 1, and
    # -0.5 or NaN negative or NaN masses, or a silently dropped history.
    config = GridConfig()
    grid = small_grid(np.random.default_rng(15), config, [((0, 0), "occupancy", 3)])
    refused = r"reliability factor must be in \[0, 1\]"
    with pytest.raises(ValueError, match=refused):
        discount_grid(grid, alpha)
    with pytest.raises(ValueError, match=refused):
        temporal_update(grid, [GridMap(config)], {"occupancy": 3}, alpha)
