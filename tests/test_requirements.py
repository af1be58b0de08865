"""Requirement profiles: step selection, horizon/frustum geometry, realization."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgm import (
    ConfigError,
    GridConfig,
    GridMap,
    RequirementProfile,
    TypeRequirement,
    apply_requirements,
    fuse_grids,
    patch_in_horizon,
    required_step,
    required_steps,
    resample_layer,
)
from apgm.grid import MAX_STEP, Layer
from apgm.scenario import ScenarioConfig, default_script, validate_scenario


def profile(horizon=20.0, cell=0.1, fov=None, active=True, pose=(0.0, 0.0, 0.0)):
    return RequirementProfile(
        {"occupancy": TypeRequirement(active, horizon, cell, fov)},
        vehicle_pose=pose,
    )


# -- required_step ----------------------------------------------------------------


def test_step_ten_centimeters():
    assert required_step(profile(cell=0.1), "occupancy", 12.8) == 7


def test_step_twenty_centimeters():
    assert required_step(profile(cell=0.2), "occupancy", 12.8) == 6


def test_step_whole_patch():
    assert required_step(profile(cell=12.8), "occupancy", 12.8) == 0


def test_required_step_refuses_steps_above_grid_max_step():
    assert required_step(profile(cell=12.8 / 2**31), "occupancy", 12.8) == MAX_STEP
    with pytest.raises(ConfigError, match=f"within step {MAX_STEP}"):
        required_step(profile(cell=12.8 / 2**32), "occupancy", 12.8)


# (cell size, diagnostic or None) on a 12.8 m edge and a 20 m horizon: a
# cell size must be the edge over a power of two, and the horizon may hold
# at most 2^24 cells at its step (7.3M at step 9, 29M at step 10). The
# coarser sizes and the overflowing ones are pinned in test_config.py.
CELL_SIZES = [
    pytest.param(0.1, None, id="step_7"),
    pytest.param(0.3, "is not a power of two", id="power_of_two_0.3"),
    pytest.param(12.8 / 2**9, None, id="step_9_within_demand_bound"),
    pytest.param(
        12.8 / 2**10,
        "needs step 10: its 20.0 m horizon may hold 2.92e+07 cells, above 16777216",
        id="step_10_above_demand_bound",
    ),
]


@pytest.mark.parametrize("cell,message", CELL_SIZES)
def test_validate_scenario_cell_size(cell, message):
    script = dataclasses.replace(default_script(), mode_times=[(0.0, "parking")])
    config = ScenarioConfig(modes={"parking": profile(cell=cell)})
    problems = validate_scenario(script, config)
    if message is None:
        assert problems == []
    else:
        assert len(problems) == 1
        assert problems[0].startswith("mode 'parking': type 'occupancy':")
        assert message in problems[0]


@pytest.mark.parametrize("horizon", [5e-324, 1e-3, 20.0, 1000.0])
def test_validate_scenario_refuses_step_11_at_any_horizon(horizon):
    # Every horizon disc may reach over 2 pi patches of 4^11 cells each.
    script = dataclasses.replace(default_script(), mode_times=[(0.0, "parking")])
    demand = profile(horizon=horizon, cell=12.8 / 2**11)
    problems = validate_scenario(script, ScenarioConfig(modes={"parking": demand}))
    assert len(problems) == 1 and "needs step 11" in problems[0]


# -- horizon / frustum --------------------------------------------------------------


def test_vehicle_patch_in_horizon():
    config = GridConfig()
    prof = profile(pose=(5.0, 5.0, 0.0))
    assert patch_in_horizon((0, 0), config, prof, "occupancy")


def test_patch_just_beyond_horizon():
    config = GridConfig()
    # patch (2, 0) spans x in [25.6, 38.4): nearest corner 25.6 m
    prof = profile(horizon=25.0, pose=(0.0, 0.0, 0.0))
    assert not patch_in_horizon((2, 0), config, prof, "occupancy")
    prof = profile(horizon=25.7, pose=(0.0, 0.0, 0.0))
    assert patch_in_horizon((2, 0), config, prof, "occupancy")


def test_point_to_square_distance_corner():
    config = GridConfig()
    # nearest corner of patch (1, 1) from the origin is (12.8, 12.8)
    corner = math.hypot(12.8, 12.8)
    prof = profile(horizon=corner - 0.01, pose=(0.0, 0.0, 0.0))
    assert not patch_in_horizon((1, 1), config, prof, "occupancy")
    prof = profile(horizon=corner + 0.01, pose=(0.0, 0.0, 0.0))
    assert patch_in_horizon((1, 1), config, prof, "occupancy")


def test_frustum_excludes_rear_patch():
    config = GridConfig()
    prof = profile(
        horizon=100.0, fov=math.radians(30.0), pose=(5.0, 5.0, 0.0)
    )
    assert not patch_in_horizon((-2, 0), config, prof, "occupancy")
    assert patch_in_horizon((2, 0), config, prof, "occupancy")


def test_frustum_wedge_through_patch_without_corners():
    config = GridConfig(edge_length=4.0)
    # narrow forward wedge passes through the middle of patch (3, 0)
    prof = profile(horizon=100.0, fov=math.radians(2.0), pose=(2.0, 2.0, 0.0))
    assert patch_in_horizon((3, 0), config, prof, "occupancy")
    assert not patch_in_horizon((3, 2), config, prof, "occupancy")


def test_inactive_type_never_in_horizon():
    config = GridConfig()
    prof = profile(active=False)
    assert not patch_in_horizon((0, 0), config, prof, "occupancy")


# -- apply_requirements ----------------------------------------------------------------


def fill(grid, index, tname, step):
    layer = grid.get_or_create_layer(index, tname, step)
    layer.masses[..., 0] = 0.25
    return layer


def test_horizon_shrink_removes_far_patches():
    grid = GridMap(GridConfig())
    for ix in range(0, 10):
        fill(grid, (ix, 0), "occupancy", 6)
    report = apply_requirements(grid, profile(horizon=20.0, cell=0.2))
    # patches starting at x=25.6 and beyond are gone
    assert set(grid.patches) == {(0, 0), (1, 0)}
    assert report.patches_deleted == 8


def test_resolution_change_resamples_everywhere():
    grid = GridMap(GridConfig())
    fill(grid, (0, 0), "occupancy", 7)
    fill(grid, (1, 0), "occupancy", 7)
    before = grid.cell_count()
    report = apply_requirements(grid, profile(horizon=30.0, cell=0.2))
    assert report.layers_resampled == 2
    assert grid.cell_count() == before // 4
    for _, layer in grid.iter_layers():
        assert layer.step == 6


def test_unchanged_profile_is_idempotent():
    grid = GridMap(GridConfig())
    fill(grid, (0, 0), "occupancy", 7)
    prof = profile(horizon=20.0, cell=0.1)
    first = apply_requirements(grid, prof)
    assert first.empty
    second = apply_requirements(grid, prof)
    assert second.empty


def test_inactive_type_layers_deleted():
    grid = GridMap(GridConfig())
    fill(grid, (0, 0), "occupancy", 7)
    fill(grid, (0, 0), "semantic", 6)
    prof = RequirementProfile(
        {
            "occupancy": TypeRequirement(True, 20.0, 0.1),
            "semantic": TypeRequirement(False, 40.0, 0.2),
        }
    )
    report = apply_requirements(grid, prof)
    assert report.layers_deleted == 1
    assert set(grid.patches[(0, 0)].layers) == {"occupancy"}


def test_patch_kept_by_any_in_horizon_layer():
    grid = GridMap(GridConfig())
    fill(grid, (3, 0), "occupancy", 6)  # 38.4 m away at the near edge
    fill(grid, (3, 0), "semantic", 6)
    prof = RequirementProfile(
        {
            "occupancy": TypeRequirement(True, 100.0, 0.2),
            "semantic": TypeRequirement(True, 30.0, 0.2),
        }
    )
    report = apply_requirements(grid, prof)
    # semantic layer beyond its own 30 m horizon dies, occupancy survives
    assert set(grid.patches[(3, 0)].layers) == {"occupancy"}
    assert report.layers_deleted == 1
    assert report.patches_deleted == 0


def test_soundness_and_monotone_memory():
    rng = np.random.default_rng(0)
    config = GridConfig()
    for _ in range(30):
        grid = GridMap(config)
        for _ in range(rng.integers(1, 12)):
            index = (int(rng.integers(-6, 7)), int(rng.integers(-6, 7)))
            tname = "occupancy" if rng.random() < 0.7 else "semantic"
            step = int(rng.integers(4, 8))
            try:
                fill(grid, index, tname, step)
            except Exception:
                pass
        prof = RequirementProfile(
            {
                "occupancy": TypeRequirement(True, float(rng.uniform(5, 60)), 0.2),
                "semantic": TypeRequirement(
                    bool(rng.random() < 0.7),
                    float(rng.uniform(5, 60)),
                    0.4,
                    math.radians(30.0),
                ),
            },
            vehicle_pose=(float(rng.uniform(-20, 20)), float(rng.uniform(-20, 20)), 0.3),
        )
        before = grid.memory_bytes()
        apply_requirements(grid, prof)
        # soundness: every surviving layer is demanded and at the right step
        for index, layer in grid.iter_layers():
            assert patch_in_horizon(index, config, prof, layer.type_name)
            assert layer.step == required_step(prof, layer.type_name, 12.8)
        # second application changes nothing
        assert apply_requirements(grid, prof).empty

        # shrinking horizon and coarsening never grows memory
        tighter = RequirementProfile(
            {
                "occupancy": TypeRequirement(
                    True, prof.demands["occupancy"].horizon_m / 2.0, 0.4
                ),
                "semantic": TypeRequirement(False, 10.0, 0.4),
            },
            vehicle_pose=prof.vehicle_pose,
        )
        mid = grid.memory_bytes()
        apply_requirements(grid, tighter)
        assert grid.memory_bytes() <= mid <= max(before, mid)


# -- fusion, then realization, on random inputs -------------------------------------

_TYPES = ("occupancy", "semantic")


@st.composite
def fusion_cycles(draw):
    """(grids, profile): one to three small grids whose layers (both types,
    steps 0-4, random masses, some rows vacuous) lie around the origin,
    and a random profile: demands that may be missing or inactive, any
    horizon, a power-of-two cell size, an optional view and a pose."""
    config = GridConfig()
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grids = []
    for _ in range(draw(st.integers(1, 3))):
        grid = GridMap(config)
        for _ in range(draw(st.integers(0, 6))):
            index = (draw(st.integers(-4, 4)), draw(st.integers(-4, 4)))
            name = draw(st.sampled_from(_TYPES))
            frame = config.types[name]
            layer = Layer(name, frame, draw(st.integers(0, 4)))
            rows = rng.dirichlet(np.ones(len(frame) + 1), size=layer.cells)[:, :-1]
            rows[rng.random(layer.cells) < 0.3] = 0.0
            layer.masses[:] = rows.reshape(layer.masses.shape).astype(np.float32)
            grid.set_layer(index, layer)
        grids.append(grid)
    demands = {}
    for name in _TYPES:
        if draw(st.booleans()) or name == "occupancy":
            demands[name] = TypeRequirement(
                draw(st.integers(0, 3)) > 0,  # active three times in four
                draw(st.floats(0.5, 80.0)),
                config.edge_length * 2.0 ** draw(st.integers(-5, 1)),
                draw(st.one_of(st.none(), st.floats(0.0, math.pi))),
            )
    pose = (
        draw(st.floats(-30.0, 30.0)),
        draw(st.floats(-30.0, 30.0)),
        draw(st.floats(-math.pi, math.pi)),
    )
    return grids, RequirementProfile(demands, vehicle_pose=pose)


@settings(max_examples=150, deadline=None)
@given(fusion_cycles())
def test_fusion_then_realization_meets_the_profile(case):
    grids, prof = case
    config = grids[0].config
    steps = required_steps(prof, config.edge_length)
    fused = fuse_grids(grids, steps)
    before = {(index, layer.type_name): layer for index, layer in fused.iter_layers()}
    patches_before = set(fused.patches)
    report = apply_requirements(fused, prof)
    fused.check()
    after = {(index, layer.type_name): layer for index, layer in fused.iter_layers()}
    # A layer survives exactly where its type is demanded, at its step.
    assert set(after) == {
        (index, name)
        for index, name in before
        if patch_in_horizon(index, config, prof, name)
    }
    for (index, name), layer in after.items():
        assert prof.demands[name].active
        assert layer.step == steps[name]
        want = resample_layer(before[(index, name)], steps[name])
        assert layer.masses.tobytes() == want.masses.tobytes()
    assert all(fused.patches[index].layers for index in fused.patches)
    assert report.layers_deleted == len(before) - len(after)
    assert report.patches_deleted == len(patches_before - set(fused.patches))
    assert report.layers_resampled == sum(
        before[key].step != layer.step for key, layer in after.items()
    )
