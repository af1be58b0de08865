"""Requirement profiles: step selection, horizon/frustum geometry, realization."""

import math

import numpy as np
import pytest

from apgm import (
    GridConfig,
    GridMap,
    RequirementProfile,
    TypeRequirement,
    apply_requirements,
    patch_in_horizon,
    required_step,
)
from apgm.requirements import validate_profile


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


def test_validate_profile_power_of_two():
    assert validate_profile(profile(cell=0.1), 12.8) == []
    problems = validate_profile(profile(cell=0.3), 12.8)
    assert problems and "power of two" in problems[0]


def test_validate_profile_step_above_max_step():
    # 12.8 m / 2^11 needs step 11; the default grid (max_step 10) cannot
    # hold it.
    fine = profile(cell=12.8 / 2**11)
    assert validate_profile(fine, 12.8, max_step=11) == []
    problems = validate_profile(fine, 12.8)
    assert problems and "needs step 11, above the grid's max_step 10" in problems[0]


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
