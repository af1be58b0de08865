"""Measurement grids: evidence model, ray policy, sparsity, loaders."""

import math
import tracemalloc

import numpy as np
import pytest

from apgm import (
    GridConfig,
    PointCloud,
    RequirementProfile,
    SemanticObservation,
    SensorModelParams,
    TypeRequirement,
    load_point_file,
    measurement_grid_occupancy,
    measurement_grid_semantic,
    occupancy_evidence,
    ray_traverse,
)
from apgm.errors import (
    CellOutOfBoundsError,
    GridMapError,
    InputShapeError,
    NonFiniteInputError,
    UnknownHypothesisError,
)
from apgm.evidence import ConflictCounter
from test_kernels import sweep_oracle


@pytest.fixture
def config():
    return GridConfig()


@pytest.fixture
def occ_profile():
    return RequirementProfile({"occupancy": TypeRequirement(True, 20.0, 0.1)})


@pytest.fixture
def sem_profile():
    return RequirementProfile(
        {"semantic": TypeRequirement(True, 40.0, 0.2, math.radians(30.0))}
    )


PARAMS = SensorModelParams(0.6, 0.3, 100.0)


# -- evidence model -------------------------------------------------------------


def test_occupancy_evidence_empty():
    assert occupancy_evidence(0, SensorModelParams(0.5, 0.3, 10.0)) == 0.0


def test_occupancy_evidence_two_points():
    assert occupancy_evidence(2, SensorModelParams(0.5, 0.3, 10.0)) == pytest.approx(
        0.75, abs=1e-12
    )


def test_occupancy_evidence_ten_points():
    got = occupancy_evidence(10, SensorModelParams(0.5, 0.3, 10.0))
    assert got == pytest.approx(1.0 - 0.5**10, abs=1e-12)


def test_occupancy_evidence_monotone():
    rng = np.random.default_rng(0)
    for _ in range(200):
        mu1, mu2 = np.sort(rng.uniform(0.05, 0.99, 2))
        k1, k2 = np.sort(rng.integers(0, 40, 2))
        p1 = SensorModelParams(mu1, 0.3, 10.0)
        p2 = SensorModelParams(mu2, 0.3, 10.0)
        assert occupancy_evidence(k2, p1) >= occupancy_evidence(k1, p1)
        assert occupancy_evidence(k1, p2) >= occupancy_evidence(k1, p1)


# -- occupancy measurement grids -------------------------------------------------


def test_empty_cloud_empty_grid(config, occ_profile):
    g = measurement_grid_occupancy(
        PointCloud((0.0, 0.0), np.empty((0, 2))), PARAMS, occ_profile, config
    )
    assert len(g.patches) == 0


def test_single_ray_trace(config, occ_profile):
    cloud = PointCloud((0.05, 0.05), [(5.05, 0.05)])
    g = measurement_grid_occupancy(cloud, PARAMS, occ_profile, config)
    layer = g.layer_at((0, 0), "occupancy")
    assert layer.masses[50, 0, 0] == pytest.approx(0.6, abs=1e-6)
    assert layer.masses[50, 0, 1] == 0.0
    for a in range(1, 50):
        assert layer.masses[a, 0, 1] == pytest.approx(0.3, abs=1e-6)
        assert layer.masses[a, 0, 0] == 0.0
    # origin cell gets neither hit nor free evidence
    assert np.all(layer.masses[0, 0] == 0.0)


def test_coincident_points_accumulate(config, occ_profile):
    cloud = PointCloud((0.0, 0.0), [(5.0, 0.05), (5.0, 0.05)])
    g = measurement_grid_occupancy(cloud, PARAMS, occ_profile, config)
    assert g.layer_at((0, 0), "occupancy").masses[50, 0, 0] == pytest.approx(
        0.84, abs=1e-6
    )


def test_hit_cells_never_marked_free(config, occ_profile):
    rng = np.random.default_rng(1)
    pts = rng.uniform(-15.0, 15.0, (300, 2))
    g = measurement_grid_occupancy(
        PointCloud((0.0, 0.0), pts), PARAMS, occ_profile, config
    )
    for _, layer in g.iter_layers():
        occ = layer.masses[..., 0]
        free = layer.masses[..., 1]
        assert not np.any((occ > 0.0) & (free > 0.0))


def test_sparsity_matches_brute_force(config):
    profile = RequirementProfile({"occupancy": TypeRequirement(True, 30.0, 0.2)})
    rng = np.random.default_rng(2)
    origin = np.array([1.7, 2.3])
    pts = origin + rng.uniform(-12.0, 12.0, (60, 2))
    g = measurement_grid_occupancy(PointCloud(origin, pts), PARAMS, profile, config)

    width = 12.8 / 64
    expected = set()
    for p in pts:
        cell = (math.floor(p[0] / width), math.floor(p[1] / width))
        expected.add((cell[0] // 64, cell[1] // 64))
        for cx, cy in sweep_oracle(
            origin[0] / width, origin[1] / width, p[0] / width, p[1] / width
        ):
            expected.add((cx // 64, cy // 64))
    assert set(g.patches) == expected


def test_no_cells_beyond_horizon(config):
    profile = RequirementProfile(
        {"occupancy": TypeRequirement(True, 8.0, 0.1)},
        vehicle_pose=(0.0, 0.0, 0.0),
    )
    cloud = PointCloud((0.0, 0.0), [(25.0, 0.05), (3.0, 6.0), (0.0, -30.0)])
    g = measurement_grid_occupancy(cloud, PARAMS, profile, config)
    width = 0.1
    for index, layer in g.iter_layers():
        occupied = np.argwhere(layer.masses.sum(axis=-1) > 0.0)
        for a, b in occupied:
            low = g.cell_datum(index, layer.step, (a, b))
            center = low + width / 2.0
            assert np.hypot(center[0], center[1]) <= 8.0 + width
    # the far return itself carries no occupancy evidence
    for _, layer in g.iter_layers():
        assert np.all(layer.masses[..., 0] <= 1.0 - (1.0 - PARAMS.mu_hit) + 1e-9)
    # but free evidence exists along the clipped ray
    assert g.cell_count() > 0
    assert g.layer_at((0, 0), "occupancy").masses[40, 0, 1] > 0.0


def test_occupancy_rays_count_only_inside_the_view(config):
    # A 30-degree view ahead: the rays ending behind and beside the vehicle
    # leave no evidence, and the far return ahead is clipped to the horizon
    # disc, where it lies inside the view.
    ahead = [(5.05, 0.45), (25.05, 0.05)]
    cloud = PointCloud((0.05, 0.05), ahead + [(-5.0, 0.05), (0.05, 5.0)])
    view = RequirementProfile(
        {"occupancy": TypeRequirement(True, 20.0, 0.1, math.radians(30.0))}
    )
    disc = RequirementProfile({"occupancy": TypeRequirement(True, 20.0, 0.1)})
    got = measurement_grid_occupancy(cloud, PARAMS, view, config)
    want = measurement_grid_occupancy(PointCloud((0.05, 0.05), ahead), PARAMS, disc, config)
    assert sorted(got.patches) == sorted(want.patches) == [(0, 0), (1, 0)]
    for index, layer in want.iter_layers():
        assert np.array_equal(got.layer_at(index, "occupancy").masses, layer.masses)


def test_out_of_range_returns_dropped(config, occ_profile):
    cloud = PointCloud((0.0, 0.0), [(150.0, 0.0)])
    g = measurement_grid_occupancy(cloud, PARAMS, occ_profile, config)
    assert len(g.patches) == 0


# -- ray traversal --------------------------------------------------------------


def test_ray_traverse_degenerate(config):
    assert ray_traverse((3.0, 4.0), (3.0, 4.0), config, 7) == []


def test_ray_traverse_one_meter_intermediates(config):
    cells = ray_traverse((0.05, 0.05), (1.05, 0.05), config, 7)
    assert len(cells) == 9
    assert cells[0] == ((0, 0), (1, 0))
    assert cells[-1] == ((0, 0), (9, 0))


def test_ray_traverse_diagonal_across_patch_border():
    config = GridConfig(edge_length=4.0)
    cells = ray_traverse((0.5, 0.5), (6.5, 6.5), config, 2)
    seq = [(p[0] * 4 + c[0], p[1] * 4 + c[1]) for p, c in cells]
    for (x0, y0), (x1, y1) in zip(seq, seq[1:]):
        assert x1 == x0 + 1 and y1 == y0 + 1
    patches = {p for p, _ in cells}
    assert (0, 0) in patches and (1, 1) in patches


# -- semantic measurement grids ---------------------------------------------------


def test_semantic_unknown_label_raises(config, sem_profile):
    obs = SemanticObservation(
        [(5.0, 0.05), (6.0, 0.05)], ["road", "water"], [0.8, 0.8]
    )
    with pytest.raises(UnknownHypothesisError, match="water"):
        measurement_grid_semantic(obs, sem_profile, config)


def test_semantic_unknown_label_outside_frustum_ignored(config, sem_profile):
    obs = SemanticObservation(
        [(5.0, 0.05), (-6.0, 0.05)], ["road", "water"], [0.8, 0.8]
    )
    g = measurement_grid_semantic(obs, sem_profile, config)
    cell = g.layer_at((0, 0), "semantic").masses[25, 0]
    assert cell[0] == pytest.approx(0.8, abs=1e-6)


@pytest.mark.parametrize("container", [tuple, np.array])
def test_semantic_label_containers_build_same_grid(config, sem_profile, container):
    rng = np.random.default_rng(5)
    points = np.c_[rng.uniform(-2.0, 12.0, 60), rng.uniform(-3.0, 3.0, 60)]
    labels = list(rng.choice(["road", "marking", "blocked", "unknown"], 60))
    labels[0] = "water"
    points[0] = (-6.0, 0.05)  # behind the vehicle: dropped, label ignored
    confs = rng.uniform(0.0, 1.0, 60)
    want = measurement_grid_semantic(
        SemanticObservation(points, labels, confs), sem_profile, config
    )
    got = measurement_grid_semantic(
        SemanticObservation(points, container(labels), confs), sem_profile, config
    )
    assert sorted(got.patches) == sorted(want.patches)
    for index, layer in want.iter_layers():
        assert np.array_equal(got.layer_at(index, "semantic").masses, layer.masses)


@pytest.mark.parametrize("container", [list, tuple, np.array])
def test_semantic_unknown_kept_label_raises_from_any_container(
    config, sem_profile, container
):
    obs = SemanticObservation(
        [(5.0, 0.05), (6.0, 0.05)], container(["road", "water"]), [0.8, 0.8]
    )
    with pytest.raises(UnknownHypothesisError, match="water"):
        measurement_grid_semantic(obs, sem_profile, config)


# -- cell keys far from the datum ------------------------------------------------

NORTH = 150_000.0  # 1.5M cells of 0.1 m: more than 2^20


def test_occupancy_far_north_lands_in_its_patch(config, occ_profile):
    profile = occ_profile.with_pose((0.0, NORTH, 0.0))
    cloud = PointCloud((0.0, NORTH), [(5.0, NORTH + 0.05)])
    g = measurement_grid_occupancy(cloud, PARAMS, profile, config)
    # 150000 / 12.8 = 11718.75: patch row 11718, local row 0.75 * 128 = 96.
    assert {index for index, _ in g.iter_layers()} == {(0, 11718)}
    masses = g.layer_at((0, 11718), "occupancy").masses
    assert masses[50, 96, 0] > 0.0
    assert np.all(masses[1:50, 96, 1] > 0.0)


def test_semantic_far_north_lands_in_its_patch(config):
    profile = RequirementProfile(
        {"semantic": TypeRequirement(True, 40.0, 0.1, math.radians(30.0))},
        vehicle_pose=(0.0, NORTH, 0.0),
    )
    obs = SemanticObservation([(5.0, NORTH + 0.05)], ["road"], [0.8])
    g = measurement_grid_semantic(obs, profile, config)
    assert {index for index, _ in g.iter_layers()} == {(0, 11718)}
    cell = g.layer_at((0, 11718), "semantic").masses[50, 96]
    assert cell[0] == pytest.approx(0.8, abs=1e-6)


def test_cells_beyond_key_range_raise(config, occ_profile):
    far = 0.1 * 2.0**31 + 50.0
    profile = occ_profile.with_pose((0.0, far, 0.0))
    cloud = PointCloud((0.0, far), [(5.0, far)])
    with pytest.raises(CellOutOfBoundsError):
        measurement_grid_occupancy(cloud, PARAMS, profile, config)


def test_semantic_window_over_2_to_the_62_cells_raises(config):
    profile = RequirementProfile({"semantic": TypeRequirement(True, 1e9, 0.1)})
    obs = SemanticObservation([(-2e8, -2e8), (2e8, 2e8)], ["road", "road"], [0.5, 0.5])
    with pytest.raises(CellOutOfBoundsError, match="2\\^62"):
        measurement_grid_semantic(obs, profile, config)


def test_semantic_memory_follows_touched_patches(config):
    # Two cells 566 m apart: the patch-aligned window around them holds
    # 17M cells, the two touched patches 33k.
    profile = RequirementProfile({"semantic": TypeRequirement(True, 300.0, 0.1)})
    obs = SemanticObservation([(-200.0, -200.0), (200.0, 200.0)], ["road", "blocked"], [0.8, 0.6])
    tracemalloc.start()
    try:
        g = measurement_grid_semantic(obs, profile, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.layer_count() == 2
    assert peak < 8 * 2**20


def _assert_no_shared_layers(grid):
    masses = [layer.masses for _, layer in grid.iter_layers()]
    assert len(masses) > 1
    for i, a in enumerate(masses):
        assert not any(np.shares_memory(a, b) for b in masses[i + 1 :])


def test_builder_layers_share_no_memory(config, occ_profile, sem_profile):
    rng = np.random.default_rng(11)
    points = np.c_[rng.uniform(-15.0, 15.0, 300), rng.uniform(-15.0, 15.0, 300)]
    cloud = PointCloud((0.3, -0.2), points)
    _assert_no_shared_layers(measurement_grid_occupancy(cloud, PARAMS, occ_profile, config))
    labels = list(rng.choice(["road", "marking", "blocked", "unknown"], 300))
    obs = SemanticObservation(np.abs(points) + (0.0, -15.0), labels, rng.uniform(0, 1, 300))
    _assert_no_shared_layers(measurement_grid_semantic(obs, sem_profile, config))


def test_semantic_empty(config, sem_profile):
    obs = SemanticObservation(np.empty((0, 2)), [], np.empty(0))
    g = measurement_grid_semantic(obs, sem_profile, config)
    assert len(g.patches) == 0


def test_semantic_single_point(config, sem_profile):
    obs = SemanticObservation([(5.0, 0.05)], ["road"], [0.8])
    g = measurement_grid_semantic(obs, sem_profile, config)
    cell = g.layer_at((0, 0), "semantic").masses[25, 0]
    assert cell[0] == pytest.approx(0.8, abs=1e-6)
    assert cell[1:].sum() == 0.0


def test_semantic_two_agreeing_points(config, sem_profile):
    obs = SemanticObservation(
        [(5.0, 0.05), (5.0, 0.06)], ["road", "road"], [0.5, 0.5]
    )
    g = measurement_grid_semantic(obs, sem_profile, config)
    cell = g.layer_at((0, 0), "semantic").masses[25, 0]
    assert cell[0] == pytest.approx(0.75, abs=1e-6)


def test_semantic_matches_pairwise_fold(config, sem_profile):
    # Per-cell log-space accumulation must equal an iterated scalar fold.
    from apgm import make_bba
    from conftest import bf_combine
    from apgm.grid import SEMANTIC_FRAME

    rng = np.random.default_rng(3)
    labels = list(SEMANTIC_FRAME.hypotheses)
    pts, labs, confs = [], [], []
    for _ in range(40):
        pts.append((4.9 + rng.random() * 0.15, rng.random() * 0.15))
        labs.append(labels[rng.integers(0, 4)])
        confs.append(rng.uniform(0.1, 0.9))
    obs = SemanticObservation(pts, labs, confs)
    g = measurement_grid_semantic(obs, sem_profile, config)

    width = 0.2
    by_cell = {}
    for p, lb, cf in zip(pts, labs, confs):
        cell = (math.floor(p[0] / width), math.floor(p[1] / width))
        by_cell.setdefault(cell, []).append((lb, cf))
    for (ca, cb), evidence in by_cell.items():
        acc = make_bba(SEMANTIC_FRAME, [0.0, 0.0, 0.0, 0.0])
        for lb, cf in evidence:
            masses = [cf if h == lb else 0.0 for h in labels]
            fused, _, _ = bf_combine(acc, make_bba(SEMANTIC_FRAME, masses))
            acc = make_bba(SEMANTIC_FRAME, fused)
        got = g.layer_at((0, 0), "semantic").masses[ca, cb]
        np.testing.assert_allclose(got, acc.masses, atol=1e-6)


def test_semantic_frustum_and_horizon(config, sem_profile):
    obs = SemanticObservation(
        [(5.0, 0.0), (-5.0, 0.0), (45.0, 0.0), (5.0, 4.0)],
        ["road", "road", "road", "road"],
        [0.8, 0.8, 0.8, 0.8],
    )
    g = measurement_grid_semantic(obs, sem_profile, config)
    # behind the vehicle and beyond 40 m are filtered; 5 m at ~39 degrees too
    masses = np.concatenate(
        [layer.masses.reshape(-1, 4) for _, layer in g.iter_layers()]
    )
    assert (masses[:, 0] > 0.0).sum() == 1


def test_semantic_total_conflict_resets_cell(config, sem_profile):
    counter = ConflictCounter()
    obs = SemanticObservation(
        [(5.0, 0.05), (5.0, 0.06)], ["road", "blocked"], [1.0, 1.0]
    )
    g = measurement_grid_semantic(obs, sem_profile, config, counter)
    cell = g.layer_at((0, 0), "semantic").masses[25, 0]
    assert np.all(cell == 0.0)
    assert counter.cells == 1


def test_semantic_conflict_count_at_threshold(config, sem_profile):
    # "road" at 1 - eps against certain "blocked" in one cell: K is about
    # 1 - eps, so the cell is reset exactly where it is counted.
    outcomes = set()
    for eps in np.linspace(0.5e-12, 1.5e-12, 11):
        counter = ConflictCounter()
        obs = SemanticObservation(
            [(5.0, 0.05), (5.0, 0.06)], ["road", "blocked"], [1.0 - eps, 1.0]
        )
        g = measurement_grid_semantic(obs, sem_profile, config, counter)
        reset = bool(np.all(g.layer_at((0, 0), "semantic").masses[25, 0] == 0.0))
        assert counter.cells == int(reset)
        outcomes.add(reset)
    assert outcomes == {True, False}


# -- non-finite inputs ------------------------------------------------------------


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_cloud_rejects_non_finite(bad):
    assert issubclass(NonFiniteInputError, GridMapError)
    with pytest.raises(NonFiniteInputError, match="origin or points"):
        PointCloud((0.0, bad), [(1.0, 2.0)])
    with pytest.raises(NonFiniteInputError, match="origin or points"):
        PointCloud((0.0, 0.0), [(1.0, 2.0), (bad, 3.0)])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_semantic_observation_rejects_non_finite(bad):
    with pytest.raises(NonFiniteInputError, match="points or confidences"):
        SemanticObservation([(5.0, bad)], ["road"], [0.8])
    with pytest.raises(NonFiniteInputError, match="points or confidences"):
        SemanticObservation([(5.0, 0.0)], ["road"], [bad])


# -- input shapes -----------------------------------------------------------------


@pytest.mark.parametrize(
    "origin,points,match",
    [
        # x/y/z returns, which a flat reshape would pair into six points.
        ((0.0, 0.0), np.zeros((4, 3)), r"cloud points must have shape \(N, 2\), not \(4, 3\)"),
        ((0.0, 0.0), [1.0, 2.0], r"cloud points .* not \(2,\)"),
        ((0.0, 0.0, 0.0), [(1.0, 2.0)], r"cloud origin must have shape \(2,\), not \(3,\)"),
        ((), [(1.0, 2.0)], r"cloud origin .* not \(0,\)"),
        ((0.0, 0.0), [(1.0, 2.0), (3.0,)], r"cloud points must be numbers of shape \(N, 2\)"),
    ],
)
def test_point_cloud_refuses_wrong_shapes(origin, points, match):
    assert issubclass(InputShapeError, GridMapError)
    assert issubclass(InputShapeError, ValueError)
    with pytest.raises(InputShapeError, match=match):
        PointCloud(origin, points)


@pytest.mark.parametrize(
    "points,labels,confidences,match",
    [
        # (N, 4) points, which a flat reshape would make 2N points, with 2N labels.
        (np.zeros((3, 4)), ["road"] * 6, np.full(6, 0.8), r"points must have shape"),
        (np.zeros((3, 2)), ["road"] * 3, np.full((3, 1), 0.8), r"confidences must have"),
        (np.zeros((3, 2)), ["road"] * 2, np.full(3, 0.8), "3 points, 2 labels and 3 conf"),
        (np.zeros((3, 2)), ["road"] * 3, np.full(4, 0.8), "3 labels and 4 confidences"),
    ],
)
def test_semantic_observation_refuses_wrong_shapes(points, labels, confidences, match):
    with pytest.raises(InputShapeError, match=match):
        SemanticObservation(points, labels, confidences)


@pytest.mark.parametrize("labels", ["road", b"road"], ids=["str", "bytes"])
def test_semantic_observation_refuses_one_string_as_labels(labels):
    # Four points, so list(labels) would align one character with each.
    with pytest.raises(InputShapeError, match="one label per point, not a single"):
        SemanticObservation(np.zeros((4, 2)), labels, np.full(4, 0.8))


def test_empty_point_arrays_hold_no_points():
    assert PointCloud((0.0, 0.0), np.array([])).points.shape == (0, 2)
    obs = SemanticObservation(np.array([]), [], np.array([]))
    assert obs.points.shape == (0, 2) and obs.confidences.shape == (0,)


# -- fixture loader ---------------------------------------------------------------


def test_load_plain_points(tmp_path):
    path = tmp_path / "cloud.txt"
    path.write_text("# a scan\n1.0 2.0\n3.5 -0.25\n\n")
    cloud = load_point_file(path, origin=(0.5, 0.5))
    assert isinstance(cloud, PointCloud)
    np.testing.assert_allclose(cloud.points, [[1.0, 2.0], [3.5, -0.25]])
    np.testing.assert_allclose(cloud.origin, [0.5, 0.5])


def test_load_labeled_points(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1.0 2.0 road 0.9\n3.0 0.0 blocked 0.4\n")
    obs = load_point_file(path)
    assert isinstance(obs, SemanticObservation)
    assert obs.labels == ["road", "blocked"]
    np.testing.assert_allclose(obs.confidences, [0.9, 0.4])


def test_load_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 road\n")
    with pytest.raises(ValueError):
        load_point_file(path)


@pytest.mark.parametrize(
    "text", ["1.0 2.0 road\n", "1.0 2.0\n3.0 0.0 road 0.4\n", "1.0 north\n", "1.0 2.0 road high\n"]
)
def test_load_bad_point_file_raises_a_typed_error(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(GridMapError):
        load_point_file(path)


def test_load_mixed_lines(tmp_path):
    path = tmp_path / "mixed.txt"
    path.write_text("1.0 2.0\n3.0 0.0 road 0.4\n")
    with pytest.raises(ValueError):
        load_point_file(path)
