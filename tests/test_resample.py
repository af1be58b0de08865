"""Merge/split operators: worked examples, round trips, the consistency theorem."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgm import (
    GridConfig,
    GridMap,
    UnsupportedTypeError,
    make_bba,
    merge_occ,
    merge_sem,
    resample_layer,
    split_occ,
    split_sem,
)
from apgm.grid import OCCUPANCY_FRAME, SEMANTIC_FRAME, Layer
from apgm.resample import block_view, sem_block_merge


def occ(o, f=0.0):
    return make_bba(OCCUPANCY_FRAME, [o, f])


# -- merge_occ -------------------------------------------------------------------


def test_merge_two_halves():
    merged = merge_occ([occ(0.5), occ(0.5)])
    assert merged.masses[0] == pytest.approx(0.75, abs=1e-12)


def test_merge_vacuous_children():
    merged = merge_occ([occ(0.0)] * 4)
    assert merged.omega == pytest.approx(1.0, abs=1e-12)


def test_merge_keeps_occupied_next_to_free():
    children = [occ(0.9, 0.0), occ(0.0, 0.6), occ(0.0, 0.6), occ(0.0, 0.6)]
    merged = merge_occ(children)
    assert merged.masses[0] == pytest.approx(0.9, abs=1e-12)
    assert merged.masses[1] == pytest.approx(0.1, abs=1e-12)
    assert merged.omega == pytest.approx(0.0, abs=1e-12)


def test_merge_median_free():
    children = [occ(0.0, f) for f in (0.2, 0.4, 0.6, 0.8)]
    merged = merge_occ(children)
    assert merged.masses[1] == pytest.approx(0.5, abs=1e-12)  # mean of middles


# -- split_occ -------------------------------------------------------------------


def test_split_quarters():
    kids = split_occ(occ(0.75), 4)
    assert len(kids) == 4
    for kid in kids:
        assert kid.masses[0] == pytest.approx(1.0 - 0.25**0.25, abs=1e-12)


def test_split_vacuous():
    for kid in split_occ(occ(0.0), 4):
        assert kid.omega == pytest.approx(1.0, abs=1e-12)


def test_split_pure_free_copies():
    for kid in split_occ(occ(0.0, 0.6), 4):
        assert kid.masses[1] == pytest.approx(0.6, abs=1e-12)
        assert kid.masses[0] == 0.0


# -- round trips -----------------------------------------------------------------


def test_split_merge_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        o = rng.random() * 0.999999
        n = int(rng.choice([4, 16, 64]))
        back = merge_occ(split_occ(occ(o), n))
        assert back.masses[0] == pytest.approx(o, abs=1e-12)


def test_merged_occupancy_dominates_children():
    rng = np.random.default_rng(1)
    for _ in range(2000):
        rows = rng.dirichlet((1.0, 1.0, 1.0), size=4)[:, :2]
        children = [make_bba(OCCUPANCY_FRAME, row) for row in rows]
        merged = merge_occ(children)
        assert merged.masses[0] >= max(c.masses[0] for c in children) - 1e-12


def test_merge_consistency_against_raw_points():
    # Merging per-cell evidence equals evidence computed on the merged cell.
    rng = np.random.default_rng(2)
    for _ in range(300):
        mu = rng.uniform(0.01, 0.99)
        counts = rng.integers(0, 12, size=16)
        per_cell = [make_bba(OCCUPANCY_FRAME, [1.0 - (1.0 - mu) ** k, 0.0]) for k in counts]
        merged = merge_occ(per_cell)
        direct = 1.0 - (1.0 - mu) ** counts.sum()
        assert merged.masses[0] == pytest.approx(direct, abs=1e-9)


@given(
    st.floats(min_value=0.0, max_value=0.999999, allow_nan=False),
    st.sampled_from([4, 16, 64]),
)
@settings(max_examples=300, deadline=None)
def test_split_children_are_normalized(o, n):
    for kid in split_occ(occ(o, (1.0 - o) * 0.5), n):
        total = kid.masses.sum() + kid.omega
        assert total == pytest.approx(1.0, abs=1e-9)
        assert np.all(kid.masses >= 0.0)


# -- semantic operators -----------------------------------------------------------


def sem(*masses):
    return make_bba(SEMANTIC_FRAME, list(masses))


def test_merge_sem_identical_children():
    b = sem(0.3, 0.1, 0.2, 0.1)
    merged = merge_sem([b, b, b, b])
    np.testing.assert_allclose(merged.masses, b.masses, atol=1e-12)


def test_sem_split_merge_round_trip():
    b = sem(0.25, 0.25, 0.25, 0.1)
    back = merge_sem(split_sem(b, 4))
    np.testing.assert_allclose(back.masses, b.masses, atol=1e-12)


def test_merge_sem_mean():
    merged = merge_sem([sem(1.0, 0.0, 0.0, 0.0), sem(0.0, 0.0, 1.0, 0.0)])
    assert merged.masses[0] == pytest.approx(0.5, abs=1e-12)
    assert merged.masses[2] == pytest.approx(0.5, abs=1e-12)


def test_sem_block_merge_rescales_over_full_blocks_beside_vacuous_ones():
    # float32 storage lets a stored sum exceed 1 by a rounding step.
    over = np.array([0.5, np.nextafter(np.float32(0.5), 1), 0.0, 0.0], np.float32)
    children = np.zeros((2, 1, 4))
    children[0, 0] = over
    merged = sem_block_merge(children)
    assert np.array_equal(merged[1], np.zeros(4))
    assert np.array_equal(merged[0], over / over.astype(np.float64).sum())


# -- layer resampling --------------------------------------------------------------


def make_layer(step, occ_value=0.5, free_value=0.0):
    layer = Layer("occupancy", OCCUPANCY_FRAME, step)
    layer.masses[..., 0] = occ_value
    layer.masses[..., 1] = free_value
    return layer


def test_resample_identity_no_copy():
    layer = make_layer(7)
    assert resample_layer(layer, 7) is layer


def test_resample_upsample_uniform():
    out = resample_layer(make_layer(6, 0.5), 7)
    assert out.step == 7
    assert out.masses.shape == (128, 128, 2)
    np.testing.assert_allclose(
        out.masses[..., 0], 1.0 - 0.5**0.25, atol=1e-6
    )


def test_resample_downsample_checkerboard():
    layer = make_layer(7, 0.0)
    pattern = np.indices((128, 128)).sum(axis=0) % 2 == 0
    layer.masses[..., 0] = np.where(pattern, 0.8, 0.0).astype(np.float32)
    out = resample_layer(layer, 6)
    assert out.step == 6
    np.testing.assert_allclose(out.masses[..., 0], 0.96, atol=1e-6)


def test_resample_down_then_up_then_down_is_stable():
    rng = np.random.default_rng(3)
    layer = Layer("occupancy", OCCUPANCY_FRAME, 5)
    rows = rng.dirichlet((1.0, 1.0, 1.0), size=layer.cells)[:, :2]
    layer.masses[:] = rows.reshape(32, 32, 2).astype(np.float32)
    down = resample_layer(layer, 4)
    up = resample_layer(down, 5)
    again = resample_layer(up, 4)
    np.testing.assert_allclose(again.masses, down.masses, atol=1e-6)


def test_resample_outputs_normalized():
    rng = np.random.default_rng(4)
    layer = Layer("occupancy", OCCUPANCY_FRAME, 5)
    rows = rng.dirichlet((1.0, 1.0, 1.0), size=layer.cells)[:, :2]
    layer.masses[:] = rows.reshape(32, 32, 2).astype(np.float32)
    for target in (3, 4, 6, 7):
        out = resample_layer(layer, target)
        sums = out.masses.astype(np.float64).sum(axis=-1)
        assert np.all(sums <= 1.0 + 1e-6)
        assert np.all(out.masses >= 0.0)


def test_resample_unsupported_type():
    frame = SEMANTIC_FRAME
    layer = Layer("velocity_like", frame, 3, np.zeros((8, 8, 4), np.float32))
    with pytest.raises(UnsupportedTypeError):
        resample_layer(layer, 2)


def test_resample_target_outside_step_bound_raises():
    for target in (-1, 32):
        with pytest.raises(ValueError, match="outside"):
            resample_layer(make_layer(7), target)


@given(
    st.sampled_from([("occupancy", OCCUPANCY_FRAME), ("semantic", SEMANTIC_FRAME)]),
    st.integers(0, 6),
    st.integers(0, 8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_resample_any_step_change(typed, step, target, sparse, seed):
    # Any distance between steps, not only the one-step changes of a drive.
    name, frame = typed
    rng = np.random.default_rng(seed)
    layer = Layer(name, frame, step)
    k = len(frame)
    rows = rng.dirichlet(np.ones(k + 1), size=layer.cells)[:, :k]
    if sparse:
        rows[rng.random(layer.cells) > 0.05] = 0.0
        rows[rng.random(layer.cells) > 0.98] = np.eye(k)[0]
    layer.masses[:] = rows.reshape(layer.masses.shape).astype(np.float32)

    out = resample_layer(layer, target)
    m = 1 << target
    assert out.step == target
    assert out.masses.shape == (m, m, k)
    grid = GridMap(GridConfig())
    grid.set_layer((0, 0), out)
    grid.check()
    if name != "occupancy" or target == step:
        return
    occ_in, occ_out = layer.masses[..., 0], out.masses[..., 0]
    if target < step:
        children = block_view(layer.masses, 1 << (step - target))[..., 0]
        assert np.all(occ_out >= children.max(axis=-1) - 2.0**-24)
    else:
        f = 1 << (target - step)
        parents = np.repeat(np.repeat(occ_in, f, axis=0), f, axis=1)
        assert np.all(occ_out <= parents + 2.0**-24)


def test_semantic_layer_resample_round_trip():
    rng = np.random.default_rng(5)
    layer = Layer("semantic", SEMANTIC_FRAME, 4)
    rows = rng.dirichlet(np.ones(5), size=layer.cells)[:, :4]
    layer.masses[:] = rows.reshape(16, 16, 4).astype(np.float32)
    up = resample_layer(layer, 5)
    back = resample_layer(up, 4)
    np.testing.assert_allclose(back.masses, layer.masses, atol=1e-6)
