"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (test names identify the
criteria) or add ``-s`` for the explicit PASS/FAIL lines. The full default
scenario is executed once and shared by the run-level criteria.
"""

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

from apgm import (
    Frame,
    FusionPolicy,
    GridConfig,
    GridMap,
    belief,
    combine_dst,
    discount,
    discount_grid,
    fuse_cells,
    fuse_grids,
    make_bba,
    merge_occ,
    pignistic,
    plausibility,
    vacuous,
)
from apgm.grid import OCCUPANCY_FRAME, SEMANTIC_FRAME
from apgm.requirements import patch_in_horizon, required_step
from apgm.resample import occ_block_merge, occ_cell_split
from apgm.scenario import (
    REFERENCE_STATIC_CELLS,
    default_scenario,
    run_scenario,
    simulate_camera,
    simulate_lidar,
    write_metrics,
)
from apgm.sensors import measurement_grid_occupancy, measurement_grid_semantic
from conftest import random_bba
from test_fusion import small_grid


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {description}")
        raise
    print(f"PASS  criterion {number:2d}: {description}")


# -- shared full default run -------------------------------------------------------


@dataclass
class RunDigest:
    modes: list = field(default_factory=list)
    fused_occ: list = field(default_factory=list)
    uniform_ref: list = field(default_factory=list)
    violations: list = field(default_factory=list)


@pytest.fixture(scope="module")
def full_run():
    script, world, config = default_scenario()
    digest = RunDigest()

    def on_cycle(record, grid, profile):
        grid.check()
        digest.modes.append(record.mode)
        digest.fused_occ.append(record.fused_cells("occupancy"))
        digest.uniform_ref.append(
            next(st.cells for st in record.stats if st.src == "ref_uniform")
        )
        occ_step = required_step(profile, "occupancy", grid.config.edge_length)
        for index, layer in grid.iter_layers():
            if not patch_in_horizon(index, grid.config, profile, layer.type_name):
                digest.violations.append(
                    (record.time_s, index, layer.type_name, "outside demand")
                )
            if layer.type_name == "occupancy" and layer.step != occ_step:
                digest.violations.append(
                    (record.time_s, index, "occupancy", f"step {layer.step}")
                )
            if layer.type_name == "semantic" and record.mode != "road":
                digest.violations.append(
                    (record.time_s, index, "semantic", "active outside road mode")
                )

    result = run_scenario(script, world, config, on_cycle)
    return digest, result


# -- criteria ------------------------------------------------------------------------


def test_c01_dst_golden_value():
    with criterion(1, "DST-RC golden value m(A)=m(B)=9/19, m(omega)=1/19, K=0.81"):
        frame = Frame(("A", "B"))
        fused, conflict = combine_dst(
            make_bba(frame, [0.9, 0.0]), make_bba(frame, [0.0, 0.9])
        )
        assert abs(conflict - 0.81) <= 1e-12
        assert abs(fused.masses[0] - 9.0 / 19.0) <= 1e-9
        assert abs(fused.masses[1] - 9.0 / 19.0) <= 1e-9
        assert abs(fused.omega - 1.0 / 19.0) <= 1e-9


def test_c02_merge_consistency_oracle():
    with criterion(2, "1000 random point sets: merged evidence == direct evidence"):
        rng = np.random.default_rng(202)
        width = 0.1
        for _ in range(1000):
            mu = rng.uniform(1e-6, 1.0 - 1e-9)
            n_points = int(rng.integers(0, 201))
            pts = rng.uniform(0.0, 4.0 * width, size=(n_points, 2))
            cols = np.floor(pts[:, 0] / width).astype(int).clip(0, 3)
            rows = np.floor(pts[:, 1] / width).astype(int).clip(0, 3)
            counts = np.zeros(16, dtype=int)
            np.add.at(counts, cols * 4 + rows, 1)
            cells = [
                make_bba(OCCUPANCY_FRAME, [1.0 - (1.0 - mu) ** k, 0.0])
                for k in counts
            ]
            merged = merge_occ(cells)
            direct = 1.0 - (1.0 - mu) ** n_points
            assert abs(merged.masses[0] - direct) <= 1e-9


def test_c03_split_merge_round_trip():
    with criterion(3, "10000 random m(O), n in {4,16,64}: merge(split(m)) == m"):
        rng = np.random.default_rng(303)
        occ = rng.random(10000)
        ns = rng.choice([4, 16, 64], size=10000)
        for n in (4, 16, 64):
            sel = occ[ns == n]
            parents = np.stack([sel, np.zeros_like(sel)], axis=-1)
            child = occ_cell_split(parents, int(n))
            blocks = np.repeat(child[:, None, :], int(n), axis=1)
            back = occ_block_merge(blocks)
            assert np.max(np.abs(back[:, 0] - sel)) <= 1e-12


def test_c04_occupancy_preservation_and_contrast():
    with criterion(4, "merged m(O) >= max child; measurement merge beats DST-RC"):
        rng = np.random.default_rng(404)
        rows = rng.dirichlet((1.0, 1.0, 1.0), size=(10000, 4))[..., :2]
        merged = occ_block_merge(rows)
        assert np.all(merged[:, 0] >= rows[:, :, 0].max(axis=1) - 1e-12)

        block = [
            make_bba(OCCUPANCY_FRAME, [0.9, 0.0]),
            make_bba(OCCUPANCY_FRAME, [0.0, 0.9]),
            make_bba(OCCUPANCY_FRAME, [0.0, 0.9]),
            make_bba(OCCUPANCY_FRAME, [0.0, 0.9]),
        ]
        ours = merge_occ(block)
        baseline = fuse_cells(block)
        assert abs(ours.masses[0] - 0.9) <= 1e-12
        assert baseline.masses[0] < 0.9


def test_c05_fusion_framework_algebra():
    with criterion(5, "500 random grid sets: exact union and fused-step algebra"):
        rng = np.random.default_rng(505)
        config = GridConfig()
        policy = FusionPolicy({"occupancy": 3, "semantic": 2})
        for _ in range(500):
            grids = []
            for _ in range(int(rng.integers(1, 4))):
                entries = {}
                for _ in range(int(rng.integers(0, 5))):
                    index = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
                    tname = "occupancy" if rng.random() < 0.6 else "semantic"
                    entries[(index, tname)] = (index, tname, int(rng.integers(0, 4)))
                grids.append(small_grid(rng, config, list(entries.values())))
            fused = fuse_grids(grids, policy)
            assert set(fused.patches) == set().union(*[set(g.patches) for g in grids])
            for index, patch in fused.patches.items():
                sources = [g.patches[index] for g in grids if index in g.patches]
                assert set(patch.layers) == set().union(*[set(p.layers) for p in sources])
                for tname, layer in patch.layers.items():
                    steps = [
                        p.layers[tname].step for p in sources if tname in p.layers
                    ]
                    assert layer.step == min(policy.r_req[tname], max(steps))


def test_c06_requirement_realization(full_run):
    with criterion(6, "60 s run: horizon, resolution and frustum demands hold"):
        digest, _ = full_run
        assert len(digest.modes) == 600
        assert {"parking", "road"} == set(digest.modes)
        assert digest.violations == [], digest.violations[:5]


def test_c07_memory_dominance(full_run):
    with criterion(7, "fused occupancy < 640000 cells at every cycle, factor >= 1.5"):
        digest, _ = full_run
        fused = np.array(digest.fused_occ, dtype=float)
        assert np.all(fused < REFERENCE_STATIC_CELLS)
        factor_static = REFERENCE_STATIC_CELLS / fused.mean()
        factor_uniform = np.array(digest.uniform_ref, float).mean() / fused.mean()
        print(
            f"      memory-efficiency factor: {factor_static:.2f}x vs static "
            f"reference, {factor_uniform:.2f}x vs uniform-patched reference"
        )
        assert factor_static >= 1.5


def test_c08_determinism(tmp_path):
    with criterion(8, "identical seed/config: byte-identical metrics CSV"):
        paths = []
        for name in ("a", "b"):
            script, world, config = default_scenario()
            script = replace(script, duration_s=10.0)
            config.measure_timing = False  # wall time is not reproducible
            result = run_scenario(script, world, config)
            paths.append(write_metrics(result.records, tmp_path / f"{name}.csv"))
        a, b = (p.read_bytes() for p in paths)
        assert len(a) > 10000
        assert a == b


def test_c09_fusion_time_budget():
    with criterion(9, "road-config fusion cycle under the hardware-tolerant 1 s gate"):
        script, world, config = default_scenario()
        pose = (200.0, 0.0, 0.0)
        script = replace(
            script,
            keyframes=[(0.0, 200.0, 0.0, 0.0), (2.0, 226.0, 0.0, 0.0)],
            mode_times=[(0.0, "road")],
            duration_s=2.0,
        )
        live = run_scenario(script, world, config).grid

        profile = config.modes["road"].with_pose(pose)
        policy = FusionPolicy.from_profile(profile, config.grid.edge_length)
        grids = []
        for si, lidar in enumerate(config.lidars):
            cloud = simulate_lidar(world, pose, lidar, np.random.default_rng(si))
            grids.append(
                measurement_grid_occupancy(
                    cloud, lidar.sensor_params(), profile, config.grid
                )
            )
        obs = simulate_camera(world, pose, config.camera)
        grids.append(measurement_grid_semantic(obs, profile, config.grid))

        samples = []
        for _ in range(5):
            stack = [discount_grid(live, policy.alpha_age)] + grids
            t0 = time.perf_counter()
            fuse_grids(stack, policy)
            samples.append(time.perf_counter() - t0)
        best = min(samples)
        print(f"      road fusion cycle: {best * 1e3:.1f} ms (soft budget 250 ms)")
        assert best < 1.0


def test_c10_dst_algebra_suite():
    with criterion(10, "10^4-case DST algebra: commutativity, duality, transforms"):
        rng = np.random.default_rng(1010)
        frame = SEMANTIC_FRAME
        labels = frame.hypotheses
        for _ in range(10000):
            a = random_bba(rng, frame)
            b = random_bba(rng, frame)

            ab, kab = combine_dst(a, b)
            ba, kba = combine_dst(b, a)
            assert np.max(np.abs(ab.masses - ba.masses)) <= 1e-12
            assert abs(ab.omega - ba.omega) <= 1e-12 and abs(kab - kba) <= 1e-12

            neutral, k0 = combine_dst(a, vacuous(frame))
            assert k0 == 0.0
            assert np.max(np.abs(neutral.masses - a.masses)) <= 1e-12
            assert abs(neutral.omega - a.omega) <= 1e-12

            r = int(rng.integers(0, 5))
            subset = list(rng.choice(labels, size=r, replace=False))
            complement = [h for h in labels if h not in subset]
            assert abs(
                plausibility(a, subset) - (1.0 - belief(a, complement))
            ) <= 1e-12

            p = pignistic(ab)
            assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9

            kept = discount(a, 1.0)
            assert np.array_equal(kept.masses, a.masses) and kept.omega == a.omega
            dropped = discount(a, 0.0)
            assert np.all(dropped.masses == 0.0) and dropped.omega == 1.0
