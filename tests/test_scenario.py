"""Simulators, references, metrics files, rasters, and the CLI surface."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgm import (
    CameraConfig,
    ConfigError,
    GridConfig,
    GridMap,
    LidarConfig,
    RequirementProfile,
    TypeRequirement,
    run_scenario,
    simulate_camera,
    simulate_lidar,
    write_metrics,
)
from apgm.cli import main as cli_main
from apgm.raster import (
    MAX_RASTER_PIXELS,
    compare_resampling_demo,
    export_raster,
    render_betp,
)
from apgm import scenario
from apgm.scenario import (
    MAX_CAMERA_SAMPLES,
    MAX_LIDAR_BEAMS,
    _segments_in_range,
    default_scenario,
    parking_profile,
    road_profile,
    summarize,
    uniform_patched_cell_count,
    uniform_reference_cells,
)
from apgm.errors import InputShapeError, NonFiniteInputError
from apgm.requirements import patch_in_horizon
from apgm.world import Rect, SemanticRegion, WorldModel, default_world
from sort_oracles import simulate_lidar_all_segments


# -- lidar simulation -------------------------------------------------------------


def test_lidar_empty_world():
    cloud = simulate_lidar(
        WorldModel(), (0.0, 0.0, 0.0), LidarConfig(), np.random.default_rng(0)
    )
    assert len(cloud.points) == 0


def test_lidar_wall_ten_meters():
    world = WorldModel(walls=[(10.0, -5.0, 10.0, 5.0)])
    cfg = LidarConfig(beams=360, max_range=50.0, noise_sigma=0.0)
    cloud = simulate_lidar(world, (0.0, 0.0, 0.0), cfg, np.random.default_rng(0))
    assert len(cloud.points) > 0
    np.testing.assert_allclose(cloud.points[:, 0], 10.0, atol=1e-9)
    assert np.all(np.abs(cloud.points[:, 1]) <= 5.0 + 1e-9)


def test_lidar_deterministic_given_seed():
    world = default_world()
    cfg = LidarConfig()
    a = simulate_lidar(world, (0.0, 0.0, 0.3), cfg, np.random.default_rng(42))
    b = simulate_lidar(world, (0.0, 0.0, 0.3), cfg, np.random.default_rng(42))
    np.testing.assert_array_equal(a.points, b.points)


def test_lidar_respects_max_range():
    world = WorldModel(walls=[(60.0, -5.0, 60.0, 5.0)])
    cfg = LidarConfig(beams=360, max_range=50.0, noise_sigma=0.0)
    cloud = simulate_lidar(world, (0.0, 0.0, 0.0), cfg, np.random.default_rng(0))
    assert len(cloud.points) == 0


def test_lidar_mount_offset():
    world = WorldModel(walls=[(10.0, -5.0, 10.0, 5.0)])
    cfg = LidarConfig(beams=8, max_range=50.0, noise_sigma=0.0, mount=(2.0, 0.0))
    cloud = simulate_lidar(world, (0.0, 0.0, 0.0), cfg, np.random.default_rng(0))
    np.testing.assert_allclose(cloud.origin, [2.0, 0.0])


def _cast_equals_full_cast(world, pose, cfg, seed):
    cloud = simulate_lidar(world, pose, cfg, np.random.default_rng(seed))
    full = simulate_lidar_all_segments(world, pose, cfg, np.random.default_rng(seed))
    assert np.array_equal(cloud.origin, full.origin)
    assert np.array_equal(cloud.points, full.points)
    return cloud


def test_lidar_culling_matches_full_cast_in_default_world():
    rng = np.random.default_rng(14)
    world = default_world()
    segs = world.segments()
    cfg = LidarConfig(beams=360)
    dropped = 0
    for i in range(30):
        pose = (rng.uniform(-40.0, 500.0), rng.uniform(-35.0, 35.0), rng.uniform(-4.0, 4.0))
        _cast_equals_full_cast(world, pose, cfg, i)
        rel = segs[:, :2] - np.array(pose[:2])
        dropped += np.count_nonzero(~_segments_in_range(rel, segs[:, 2:] - segs[:, :2], 100.0))
    assert dropped > 0


def test_lidar_culling_matches_full_cast_near_max_range():
    # Segments whose nearest point lies within 2 m of max_range, tangent to
    # the range circle or pointing away from the sensor, up to 150 m long,
    # and zero-length ones; one lies exactly at max_range.
    rng = np.random.default_rng(15)
    reach = 50.0
    walls = [(reach, -10.0, reach, 10.0), (0.0, reach, 0.0, reach), (70.0, 0.0, 70.0, 0.0)]
    for theta, gap, length, radial, share in zip(
        rng.uniform(-np.pi, np.pi, 60),
        rng.uniform(-2.0, 2.0, 60),
        rng.choice([0.0, 1e-9, 3.0, 40.0, 150.0], 60),
        rng.random(60) < 0.3,
        rng.random(60),
    ):
        radius = np.array([math.cos(theta), math.sin(theta)])
        near = (reach + gap) * radius
        if radial:
            a, b = near, near + length * radius
        else:
            tangent = np.array([-radius[1], radius[0]])
            a, b = near - share * length * tangent, near + (1.0 - share) * length * tangent
        walls.append((*a, *b))
    world = WorldModel(walls=walls)
    for i, heading in enumerate(rng.uniform(-np.pi, np.pi, 8)):
        for noise in (0.0, 0.02):
            cfg = LidarConfig(beams=720, max_range=reach, noise_sigma=noise)
            _cast_equals_full_cast(world, (0.0, 0.0, heading), cfg, i)
    cloud = _cast_equals_full_cast(
        world, (0.0, 0.0, 0.0), LidarConfig(beams=8, max_range=reach, noise_sigma=0.0), 0
    )
    assert [reach, 0.0] in cloud.points.tolist()


@st.composite
def hard_casts(draw):
    """(world, pose, lidar) with segments through, next to and collinear
    with the sensor, along a beam or a hair off it, zero-length and over
    280 units long, at headings where the beam angles wrap."""
    heading = draw(st.sampled_from([0.0, math.pi, -math.pi, 1e6, 1.1e-308]) | st.floats(-7.0, 7.0))
    beams = draw(st.sampled_from([1, 2, 3, 7, 720, 4096]))
    max_range = draw(st.sampled_from([1e-9, 0.5, 30.0, 1e300, math.inf]))
    o = np.array(draw(st.sampled_from([(0.0, 0.0), (0.3, -0.7), (-41.25, 17.5)])))
    step = 2.0 * np.pi / beams
    walls = []
    for kind in draw(st.lists(st.sampled_from(
        ["through", "next", "collinear", "along", "grazing", "zero", "long", "free"]
    ), min_size=1, max_size=8)):
        k = draw(st.integers(0, beams - 1))
        # The cast's own beam angle, or one between two beams.
        beam = heading + k * step + draw(st.sampled_from([0.0, step / 2]))
        u = np.array([np.cos(beam), np.sin(beam)])
        n = np.array([-u[1], u[0]])
        r0, r1 = draw(st.floats(1e-6, 60.0)), draw(st.floats(1e-6, 60.0))
        off = draw(st.sampled_from([0.0, 1e-300, 1e-15, 1e-9, 1e-3, 0.4]))
        if kind == "through":
            a, b = o - r0 * u, o + r1 * u
        elif kind == "next":
            a, b = o - r0 * u + off * n, o + r1 * u + off * n
        elif kind == "collinear":
            a, b = o + r0 * u, o + (r0 + r1) * u
        elif kind == "along":  # on a beam's line, or a hair to its side
            a, b = o + r0 * u + off * n, o + (r0 + r1) * u - off * n
        elif kind == "grazing":  # an end on the beam, or a few ulps to its side
            a = o + r0 * u + draw(st.sampled_from([0.0, 1.0, -1.0, 4.0, -4.0])) * 2.0**-53 * r0 * n
            b = a + draw(st.sampled_from([-1.0, 1.0])) * r1 * n
        elif kind == "zero":
            a = b = o + r0 * u
        elif kind == "long":
            a = o + off * n - draw(st.floats(0.0, 5e3)) * u
            b = a + draw(st.floats(281.0, 5e3)) * draw(st.sampled_from([u, n]))
        else:
            a, b = (o + np.array(draw(st.tuples(st.floats(-60, 60), st.floats(-60, 60))))
                    for _ in range(2))
        walls.append((*a, *b))
    noise = draw(st.sampled_from([0.0, 0.02]))
    lidar = LidarConfig(beams=beams, max_range=max_range, noise_sigma=noise)
    return WorldModel(walls=walls), (o[0], o[1], heading), lidar


@settings(max_examples=300, deadline=None)
@given(hard_casts(), st.integers(0, 3))
def test_lidar_beam_windows_match_full_cast_on_hard_geometry(case, seed):
    _cast_equals_full_cast(*case, seed)


def test_lidar_beam_windows_keep_the_beams_that_graze_a_segment_end():
    # A segment end on a beam, or an ulp or a few to its side: whether the
    # cast accepts that beam turns on the rounding of s, which the window's
    # widening must cover; with neither the stretch nor the angle margin,
    # casts here differ. On segments 1e-8 long the stretch is under 1e-11
    # rad, and at a heading near 1e6 a beam's slot taken from its index
    # rather than its direction is off by up to about 6e-11 rad.
    rng = np.random.default_rng(28)
    for beams in (7, 720):
        for _ in range(600):
            heading = rng.choice([0.0, 1e6]) + rng.uniform(-4.0, 4.0)
            k = rng.integers(beams)
            beam = heading + k * (2.0 * np.pi / beams)
            u = np.array([np.cos(beam), np.sin(beam)])
            n = np.array([-u[1], u[0]])
            r0 = rng.uniform(1.0, 20.0)
            ulps = rng.choice([0.0, 1.0, 2.0, 4.0, 8.0]) * rng.choice([-1.0, 1.0])
            a = r0 * u + ulps * 1e-16 * r0 * n
            length = rng.choice([1e-8, 1e-5, rng.uniform(0.1, 20.0)])
            b = a + rng.choice([-1.0, 1.0]) * length * n
            lidar = LidarConfig(beams=beams, max_range=50.0, noise_sigma=0.0)
            _cast_equals_full_cast(WorldModel(walls=[(*a, *b)]), (0.0, 0.0, heading), lidar, 0)


def test_lidar_beam_windows_hold_few_pairs_on_the_default_drive(monkeypatch):
    # At the start pose the windows hold under 10 % of the kept segments'
    # (segment, beam) pairs, so the cast does not fall back to all beams.
    windows = []

    def spy(rel, vec, phi):
        first, count = beam_windows(rel, vec, phi)
        windows.append((len(rel), len(phi), int(count.sum())))
        return first, count

    beam_windows = scenario._beam_windows
    monkeypatch.setattr(scenario, "_beam_windows", spy)
    script, world, config = default_scenario()
    pose = script.pose_at(0.0)
    for i, lidar in enumerate(config.lidars):
        _cast_equals_full_cast(world, pose, lidar, i)
    assert len(windows) == 2
    for kept, beams, pairs in windows:
        assert kept > 30 and beams == 720
        assert 0 < pairs < 0.1 * kept * beams


def test_lidar_drops_returns_noise_pushes_onto_or_behind_the_sensor():
    # With 1 km noise about half the default-world returns from the start
    # pose get a range <= 0; kept, each would be a hit in the lidar's own
    # cell. The cloud holds exactly the positive ranges, unclamped.
    world = default_world()
    exact = LidarConfig(noise_sigma=0.0, mount=(1.0, 0.0))
    noisy = dataclasses.replace(exact, noise_sigma=1000.0)
    base = simulate_lidar(world, (0.0, 0.0, 0.0), exact, np.random.default_rng(0))
    cloud = _cast_equals_full_cast(world, (0.0, 0.0, 0.0), noisy, 5)
    angles = np.arange(noisy.beams) * (2.0 * np.pi / noisy.beams)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    noise = np.random.default_rng(5).normal(0.0, 1000.0, size=noisy.beams)
    rel = base.points - base.origin
    beam = np.rint(np.arctan2(rel[:, 1], rel[:, 0]) / (2.0 * np.pi / noisy.beams))
    beam = beam.astype(np.int64) % noisy.beams
    ranges = np.hypot(rel[:, 0], rel[:, 1]) + noise[beam]
    keep = ranges > 0.0
    assert 0 < np.count_nonzero(~keep) < len(keep)
    want = base.origin + dirs[beam[keep]] * ranges[keep, None]
    assert cloud.points.shape == want.shape
    np.testing.assert_allclose(cloud.points, want, atol=1e-6)


# -- camera simulation --------------------------------------------------------------


@pytest.mark.parametrize("max_range", [0.3, 5e-324])
def test_camera_samples_nothing_beyond_its_max_range(max_range):
    # A ring at the 0.4 m range step would lie beyond max_range, its
    # confidence extrapolated past confidence_far (to -inf at 5e-324).
    camera = CameraConfig(max_range=max_range)
    assert camera.polar_shape() == (61.0, 0.0)
    obs = simulate_camera(default_world(), (0.0, 0.0, 0.0), camera)
    assert len(obs.points) == len(obs.labels) == len(obs.confidences) == 0


def test_camera_labels_and_confidence():
    world = WorldModel(
        regions=[
            __import__("apgm.world", fromlist=["SemanticRegion"]).SemanticRegion(
                Rect(0.0, -10.0, 60.0, 10.0).as_polygon(), "road"
            )
        ]
    )
    cfg = CameraConfig(range_step=1.0, angle_step_rad=math.radians(30.0))
    obs = simulate_camera(world, (0.0, 0.0, 0.0), cfg)
    on_axis = np.isclose(obs.points[:, 1], 0.0, atol=1e-9)
    five = on_axis & np.isclose(obs.points[:, 0], 5.0, atol=1e-9)
    assert five.sum() == 1
    i = int(np.flatnonzero(five)[0])
    assert obs.labels[i] == "road"
    assert obs.confidences[i] == pytest.approx(0.9 - (5.0 / 40.0) * 0.5, abs=1e-12)


def test_camera_unknown_outside_regions():
    obs = simulate_camera(WorldModel(), (0.0, 0.0, 0.0), CameraConfig())
    assert set(obs.labels) == {"unknown"}


def test_camera_frustum_has_no_rear_samples():
    obs = simulate_camera(WorldModel(), (0.0, 0.0, 0.0), CameraConfig())
    assert np.all(obs.points[:, 0] > 0.0)
    ang = np.abs(np.arctan2(obs.points[:, 1], obs.points[:, 0]))
    assert np.all(ang <= math.radians(30.0) + 1e-9)
    assert np.all(np.hypot(obs.points[:, 0], obs.points[:, 1]) <= 40.0 + 1e-9)


@pytest.mark.parametrize(
    "polygon,error",
    [
        ([(0.0, 0.0), (1.0, math.nan), (1.0, 1.0)], NonFiniteInputError),
        ([(0.0, 0.0), (math.inf, 0.0), (1.0, 1.0)], NonFiniteInputError),
        ([(0.0, 0.0), (1.0, 1.0)], ValueError),
        ([0.0, 1.0, 2.0], ValueError),
    ],
)
def test_semantic_region_rejects_bad_polygon(polygon, error):
    with pytest.raises(error):
        SemanticRegion(np.array(polygon), "road")


def test_semantic_region_polygon_is_read_only():
    vertices = Rect(0.0, 0.0, 2.0, 1.0).as_polygon()
    region = SemanticRegion(vertices, "road")
    with pytest.raises(ValueError, match="read-only"):
        region.polygon[0, 0] = -5.0
    vertices[0, 0] = -5.0  # the caller's array is copied, not frozen
    assert region.cut == (0.0, 0.0, 2.0, 1.0)


# -- reference layouts -----------------------------------------------------------------


def test_uniform_reference_matches_enumeration_oracle():
    e = 12.8
    for horizon, step in ((20.0, 7), (100.0, 6)):
        got = uniform_patched_cell_count((e / 2, e / 2), (0.0, 0.0), horizon, e, step)
        count = 0
        span = int(math.ceil(horizon / e)) + 2
        for ix in range(-span, span + 1):
            for iy in range(-span, span + 1):
                # nearest point of the patch square to the disc center
                nx = min(max(e / 2, ix * e), (ix + 1) * e)
                ny = min(max(e / 2, iy * e), (iy + 1) * e)
                if math.hypot(nx - e / 2, ny - e / 2) <= horizon:
                    count += 1
        assert got == count * 4**step


def test_uniform_reference_minimum_is_vehicle_patch():
    assert uniform_patched_cell_count((6.0, 6.0), (0.0, 0.0), 0.0, 12.8, 7) == 16384


def test_reference_layouts_per_mode():
    center = (6.4, 6.4)
    assert uniform_reference_cells(
        parking_profile(), center, GridConfig()
    ) == uniform_patched_cell_count(center, (0.0, 0.0), 20.0, 12.8, 7)
    assert uniform_reference_cells(
        road_profile(), center, GridConfig()
    ) == uniform_patched_cell_count(center, (0.0, 0.0), 100.0, 12.8, 6)


@pytest.mark.parametrize(
    "datum,center,horizon",
    [
        ((3.0, 5.0), (0.0, 0.0), 20.0),
        ((6.4, -3.2), (0.0, 0.0), 20.0),
        ((-1.7, 2.3), (31.13, -4.87), 20.0),
        ((6.4, -3.2), (130.0, 0.0), 100.0),
        ((1e6, -2.5e5), (1e6 + 3.3, -2.5e5 + 40.2), 33.0),
        ((0.0, 0.0), (5.5, 7.25), 20.0),
        # Patch (0, -1) lies 20 m away measured from its corner, as the
        # cull measures it, and just beyond measured from the pose offset.
        ((-1.7, 2.3), (31.1, -4.9), 20.0),
    ],
)
def test_uniform_reference_counts_the_maps_own_patches(datum, center, horizon):
    # The uniform layout covers the patches patch_in_horizon keeps around
    # the pose, on the lattice anchored at the map's datum, also where a
    # patch lies exactly on the horizon.
    grid = GridConfig(datum=datum)
    profile = RequirementProfile(
        {"occupancy": TypeRequirement(True, horizon, 0.1)}
    ).with_pose((*center, 0.0))
    span = int(math.ceil(horizon / grid.edge_length)) + 2
    base = GridMap(grid).patch_index_of(center)
    patches = sum(
        patch_in_horizon((base[0] + i, base[1] + j), grid, profile, "occupancy")
        for i in range(-span, span + 1)
        for j in range(-span, span + 1)
    )
    assert uniform_reference_cells(profile, center, grid) == patches * 4**7


# -- runner ---------------------------------------------------------------------------


def test_zero_length_run():
    script, world, config = default_scenario()
    script = dataclasses.replace(script, duration_s=0.0)
    result = run_scenario(script, world, config)
    assert result.records == []
    assert result.grid.cell_count() == 0


def test_invalid_script_raises_config_error():
    script, _, _ = default_scenario()
    with pytest.raises(ConfigError, match="first mode must start"):
        dataclasses.replace(script, mode_times=[(5.0, "road")])  # misses t=0


def test_unknown_mode_raises_config_error():
    script, world, config = default_scenario()
    script = dataclasses.replace(script, mode_times=[(0.0, "hover")])
    with pytest.raises(ConfigError, match="undefined mode 'hover'"):
        run_scenario(script, world, config)


def test_step_11_demand_raises_config_error():
    # Caught at entry, before a layer is built: even a 1 mm horizon may
    # reach over 2 pi patches of 4^11 cells, above the 2^24-cell bound.
    script, world, config = default_scenario()
    fine = TypeRequirement(True, 1e-3, 12.8 / 2**11)
    config.modes["parking"] = RequirementProfile({"occupancy": fine})
    with pytest.raises(ConfigError, match="needs step 11: its 0.001 m horizon"):
        run_scenario(script, world, config)


@pytest.mark.parametrize("cell", [5e-324, 1e-310])
def test_unreachable_cell_size_raises_config_error(cell):
    # edge / cell overflows to inf; the step search refuses it by name.
    script, world, config = default_scenario()
    tiny = TypeRequirement(True, 20.0, cell)
    config.modes["parking"] = RequirementProfile({"occupancy": tiny})
    with pytest.raises(ConfigError, match="mode 'parking': type 'occupancy': cell"):
        run_scenario(script, world, config)


# One bad value per sensor field: (sensor, field, value, INI key, INI value,
# diagnostic). Each used to escape as a bare error, run silently, or fail
# only on the first cycle.
BAD_SENSOR_FIELDS = [
    ("camera", "fov_half_angle_rad", math.nan, "fov_half_angle_deg", "nan", "fov half"),
    ("camera", "max_range", -40.0, "max_range", "-40", "max_range must be"),
    ("camera", "range_step", 0.0, "range_step", "0", "range_step must be"),
    ("camera", "range_step", -0.4, "range_step", "-0.4", "range_step must be"),
    ("camera", "angle_step_rad", 0.0, "angle_step_deg", "0", "angle_step_rad must be"),
    ("camera", "confidence_near", 1.5, "confidence_near", "1.5", "confidence_near must"),
    ("camera", "confidence_far", -0.1, "confidence_far", "-0.1", "confidence_far must"),
    ("lidar", "beams", 0, "beams", "0", "beam count must be positive"),
    ("lidar", "max_range", 0.0, "max_range", "0", "max_range must be positive"),
    ("lidar", "max_range", math.nan, "max_range", "nan", "max_range must be positive"),
    ("lidar", "noise_sigma", -0.1, "noise_sigma", "-0.1", "noise_sigma must be"),
    ("lidar", "mount", (math.nan, 0.0), "mount_x", "nan", "mount must be finite"),
    ("lidar", "mu_hit", 1.5, "mu_hit", "1.5", "mu_hit must be in"),
    ("lidar", "mu_free", 0.0, "mu_free", "0", "mu_free must be in"),
    # Valid steps that would build ~2.4e12 (and inf) polar samples a frame.
    ("camera", "range_step", 1e-9, "range_step", "1e-9", "range_step and angle_step_rad ask"),
    ("camera", "range_step", 1e-320, "range_step", "1e-320", "ask for inf samples"),
    ("camera", "angle_step_rad", 1e-9, "angle_step_deg", "5.7e-8", "angle_step_rad ask"),
    ("lidar", "beams", 16385, "beams", "16385", "beams must be at most 16384"),
]


@pytest.mark.parametrize("sensor,field,value,key,raw,message", BAD_SENSOR_FIELDS)
def test_bad_sensor_field_raises_config_error(sensor, field, value, key, raw, message):
    # The part refuses the value when built, before any run can see it.
    part = CameraConfig() if sensor == "camera" else LidarConfig()
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(part, **{field: value})


@pytest.mark.parametrize("value", [(1.0,), (1.0, 2.0, 3.0)])
def test_offsets_refuse_other_than_two_values(value):
    with pytest.raises(ConfigError, match="mount must hold two values"):
        LidarConfig(mount=value)
    with pytest.raises(ConfigError, match="datum must hold two values"):
        GridConfig(datum=value)


@pytest.mark.parametrize("sensor,field,value,key,raw,message", BAD_SENSOR_FIELDS)
def test_cli_validate_reports_bad_sensor_field(
    tmp_path, capsys, sensor, field, value, key, raw, message
):
    section = "camera" if sensor == "camera" else "lidar.front"
    path = tmp_path / "sensor.ini"
    path.write_text(
        f"[{section}]\n{key} = {raw}\n"
        "[mode.parking]\n"
        "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:parking\n"
    )
    assert cli_main(["validate-config", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_sensor_work_bounds_admit_their_limits():
    # Built, never run: the bounds admit the largest work they allow.
    assert LidarConfig(beams=MAX_LIDAR_BEAMS).beams == MAX_LIDAR_BEAMS
    ranges = MAX_CAMERA_SAMPLES // 61  # the default fov and step give 61 angles
    CameraConfig(max_range=float(ranges), range_step=1.0)
    with pytest.raises(ConfigError, match="samples per frame, above"):
        CameraConfig(max_range=float(ranges + 1), range_step=1.0)
    camera = CameraConfig()
    obs = simulate_camera(default_world(), (0.0, 0.0, 0.0), camera)
    assert camera.polar_shape() == (61.0, 100.0) and len(obs.points) == 6100


def _short_config(duration, beams=180):
    script, world, config = default_scenario()
    script = dataclasses.replace(script, duration_s=duration)
    config.lidars = [dataclasses.replace(lidar, beams=beams) for lidar in config.lidars]
    config.measure_timing = False
    return script, world, config


def test_parking_cycles_realize_requirements():
    script, world, config = _short_config(1.0)
    seen = []

    def on_cycle(record, grid, profile):
        for index, layer in grid.iter_layers():
            assert layer.type_name == "occupancy"
            assert layer.step == 7
            low = grid.patch_datum(index)
            dx = max(low[0] - profile.vehicle_pose[0], 0.0,
                     profile.vehicle_pose[0] - (low[0] + 12.8))
            dy = max(low[1] - profile.vehicle_pose[1], 0.0,
                     profile.vehicle_pose[1] - (low[1] + 12.8))
            assert math.hypot(dx, dy) <= 20.0
        seen.append(record.mode)

    run_scenario(script, world, config, on_cycle)
    assert seen and set(seen) == {"parking"}


def test_mode_switch_swaps_profile_exactly():
    script, world, config = _short_config(1.0)
    script = dataclasses.replace(
        script,
        keyframes=[(0.0, 0.0, 0.0, 0.0), (1.0, 2.0, 0.0, 0.0)],
        mode_times=[(0.0, "parking"), (0.5, "road")],
    )
    steps_by_mode = {}

    def on_cycle(record, grid, profile):
        steps = {layer.step for _, layer in grid.iter_layers()
                 if layer.type_name == "occupancy"}
        steps_by_mode.setdefault(record.mode, set()).update(steps)

    result = run_scenario(script, world, config, on_cycle)
    assert steps_by_mode["parking"] == {7}
    assert steps_by_mode["road"] == {6}
    t_modes = [(r.time_s, r.mode, r.horizon_m) for r in result.records]
    assert (0.4, "parking", 20.0) in t_modes
    assert (0.5, "road", 100.0) in t_modes


def test_on_cycle_gets_the_live_map_and_the_next_cycle_ages_it():
    script, world, config = _short_config(0.3)
    maps, kept = [], []

    def on_cycle(record, grid, profile):
        if not maps:
            kept.extend(l.masses.copy() for _, l in grid.iter_layers())
        elif len(maps) == 1:
            # Cycle 1 aged the map cycle 0 handed out, in place.
            assert any(np.any(m != 0.0) for m in kept)
            aged = [(m * np.float32(config.temporal_alpha)).tobytes() for m in kept]
            assert [l.masses.tobytes() for _, l in maps[0].iter_layers()] == aged
        maps.append(grid)

    result = run_scenario(script, world, config, on_cycle)
    assert len(maps) == 3 and maps[-1] is result.grid


# -- metrics CSV -----------------------------------------------------------------------


def test_write_metrics_empty(tmp_path):
    path = write_metrics([], tmp_path / "m.csv")
    assert path.read_text() == "time_s,mode,horizon_m,src,type,cells,bytes,fuse_ms\n"


def test_road_cycle_row_contract(tmp_path):
    script, world, config = _short_config(0.1)
    script = dataclasses.replace(
        script,
        keyframes=[(0.0, 100.0, 0.0, 0.0), (0.1, 100.2, 0.0, 0.0)],
        mode_times=[(0.0, "road")],
    )
    result = run_scenario(script, world, config)
    path = write_metrics(result.records, tmp_path / "m.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 7
    srcs = [line.split(",")[3] for line in lines[1:]]
    assert srcs == [
        "lidar_front",
        "lidar_rear",
        "camera",
        "fused",
        "fused",
        "ref_static",
        "ref_uniform",
    ]
    types = [line.split(",")[4] for line in lines[1:]]
    assert types[3:5] == ["occupancy", "semantic"]


def test_parking_cycle_row_contract(tmp_path):
    script, world, config = _short_config(0.1)
    result = run_scenario(script, world, config)
    path = write_metrics(result.records, tmp_path / "m.csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 5  # two lidars, fused occ, two references


def test_metrics_deterministic_across_runs(tmp_path):
    script, world, config = _short_config(0.5)
    a = write_metrics(run_scenario(script, world, config).records, tmp_path / "a.csv")
    b = write_metrics(run_scenario(script, world, config).records, tmp_path / "b.csv")
    assert a.read_bytes() == b.read_bytes()


def test_summarize_mentions_factors():
    script, world, config = _short_config(0.3)
    text = summarize(run_scenario(script, world, config).records)
    assert "factor vs static reference" in text
    assert "factor vs uniform-patched reference" in text


def test_per_cycle_fused_count_bounded_by_sources():
    # Without temporal accumulation the fused grid is the union of the
    # sensor grids: at least the largest source, at most their sum.
    script, world, config = _short_config(0.5)
    config.temporal_alpha = 0.0

    def on_cycle(record, grid, profile):
        sources = [
            st.cells
            for st in record.stats
            if st.type_name == "occupancy" and st.src.startswith("lidar")
        ]
        fused = record.fused_cells("occupancy")
        assert max(sources) <= fused <= sum(sources)

    run_scenario(script, world, config, on_cycle)


# -- rasters ---------------------------------------------------------------------------


def test_raster_empty_grid_uniform_grey():
    image = render_betp(GridMap(GridConfig()), "occupancy", (0.0, 0.0, 12.8, 12.8))
    assert image.shape == (1, 1)
    assert np.all(image == 127)


def test_raster_occupied_and_vacuous_values():
    grid = GridMap(GridConfig())
    layer = grid.get_or_create_layer((0, 0), "occupancy", 3)
    layer.masses[2, 5, 0] = 1.0
    image = render_betp(grid, "occupancy", (0.0, 0.0, 12.8, 12.8))
    assert image.shape == (8, 8)
    # cell (a=2, b=5): column 2, row counts down from the top (b=7)
    assert image[2, 2] == 255
    assert image[0, 0] == 127  # vacuous allocated cell


def test_export_raster_writes_pgm(tmp_path):
    grid = GridMap(GridConfig())
    grid.get_or_create_layer((0, 0), "occupancy", 2)
    path = export_raster(grid, "occupancy", (0.0, 0.0, 12.8, 12.8), tmp_path / "o.pgm")
    data = path.read_bytes()
    assert data.startswith(b"P5\n4 4\n255\n")
    assert len(data) == len(b"P5\n4 4\n255\n") + 16


@pytest.mark.parametrize("bound", [math.nan, math.inf, -math.inf])
def test_raster_refuses_a_non_finite_region(tmp_path, bound):
    grid = GridMap(GridConfig())
    for region in [(bound, 0.0, 12.8, 12.8), (0.0, 0.0, 12.8, bound)]:
        with pytest.raises(NonFiniteInputError):
            export_raster(grid, "occupancy", region, tmp_path / "o.pgm")
    assert not (tmp_path / "o.pgm").exists()


@pytest.mark.parametrize(
    "region", [(0.0, 0.0, 0.0, 12.8), (0.0, 5.0, 12.8, 5.0), (12.8, 0.0, 0.0, 12.8)]
)
def test_raster_refuses_a_region_without_extent(region):
    with pytest.raises(InputShapeError, match="positive extent"):
        render_betp(GridMap(GridConfig()), "occupancy", region)


@pytest.mark.parametrize("seed", range(8))
def test_raster_pixels_show_the_cell_that_cell_index_of_finds(seed):
    # Patches at mixed steps on an off-grid datum, rendered with every
    # pixel centre on or next to a cell edge: each pixel shows the cell
    # holding its centre, or grey where no layer holds it.
    rng = np.random.default_rng(seed)
    datum = tuple(rng.uniform(-1e4, 1e4, 2))
    grid = GridMap(GridConfig(datum=datum, edge_length=float(rng.uniform(0.5, 20.0))))
    for index in {tuple(rng.integers(-2, 3, 2).tolist()) for _ in range(6)}:
        layer = grid.get_or_create_layer(index, "occupancy", int(rng.integers(0, 4)))
        layer.masses[..., 0] = rng.uniform(0.0, 1.0, layer.masses.shape[:2])
    e = grid.config.edge_length
    px = e / (1 << max(layer.step for _, layer in grid.iter_layers()))
    x0, y1 = (d + e * k + px / 2 * s for d, k, s in zip(datum, (-3, 3), (-1, 1)))
    region = (x0, y1 - 6 * e, x0 + 6 * e, y1)
    image = render_betp(grid, "occupancy", region)
    for row, col in np.ndindex(image.shape):
        centre = (x0 + (col + 0.5) * px, y1 - (row + 0.5) * px)
        layer = grid.layer_at(grid.patch_index_of(centre), "occupancy")
        want = 127
        if layer is not None:
            _, (a, b) = grid.cell_index_of(centre, layer.step)
            want = math.floor((layer.masses[a, b, 0] + layer.omega()[a, b] / 2) * 255.0)
        assert image[row, col] == want


@pytest.mark.parametrize(
    "region", [(0.0, 0.0, 1e7, 1e7), (-1e308, 0.0, 1e308, 12.8), (0.0, 0.0, 1e9, 12.8)]
)
def test_raster_refuses_a_canvas_over_the_pixel_bound(region):
    # (0, 0, 1e7, 1e7) on an empty map asked for a 568 GiB canvas.
    with pytest.raises(InputShapeError):
        render_betp(GridMap(GridConfig()), "occupancy", region)


def test_raster_at_the_pixel_bound_is_allocated():
    # An empty map renders at step 0: one 12.8 m pixel per patch.
    side = 12.8 * 2**13
    image = render_betp(GridMap(GridConfig()), "occupancy", (0.0, 0.0, side, side))
    assert image.size == MAX_RASTER_PIXELS
    with pytest.raises(InputShapeError):
        render_betp(GridMap(GridConfig()), "occupancy", (0.0, 0.0, side, side + 12.8))


def test_resampling_demo_contrast():
    grid = GridMap(GridConfig(edge_length=3.2))
    layer = grid.get_or_create_layer((0, 0), "occupancy", 1)
    layer.masses[0, 0] = (0.9, 0.0)
    layer.masses[0, 1] = (0.0, 0.9)
    layer.masses[1, 0] = (0.0, 0.9)
    layer.masses[1, 1] = (0.0, 0.9)
    images = compare_resampling_demo(
        grid, region=(0.0, 0.0, 3.2, 3.2), block_sizes=(2,)
    )
    ours = int(images["merge2x2_resampled"][0, 0])
    baseline = int(images["merge2x2_dstrc"][0, 0])
    assert ours == math.floor(0.9 * 255)
    assert baseline < ours


def test_resampling_demo_agreeing_blocks():
    grid = GridMap(GridConfig(edge_length=3.2))
    layer = grid.get_or_create_layer((0, 0), "occupancy", 1)
    layer.masses[..., 1] = 0.9  # all free
    images = compare_resampling_demo(
        grid, region=(0.0, 0.0, 3.2, 3.2), block_sizes=(2,)
    )
    assert images["merge2x2_resampled"][0, 0] < 64
    assert images["merge2x2_dstrc"][0, 0] < 64

    vac = GridMap(GridConfig(edge_length=3.2))
    vac.get_or_create_layer((0, 0), "occupancy", 1)
    images = compare_resampling_demo(
        vac, region=(0.0, 0.0, 3.2, 3.2), block_sizes=(2,)
    )
    assert images["merge2x2_resampled"][0, 0] == 127
    assert images["merge2x2_dstrc"][0, 0] == 127


# -- CLI -------------------------------------------------------------------------------


def test_cli_validate_ok(capsys):
    assert cli_main(["validate-config", "configs/default.ini"]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_validate_missing_file():
    assert cli_main(["validate-config", "/nonexistent.ini"]) == 2


def test_cli_validate_broken_config(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:warp\n"
        "[mode.parking]\noccupancy_cell_size_m = 0.3\n"
    )
    assert cli_main(["validate-config", str(bad)]) == 2


# SHA-256 of each image, recorded with the np.prod/np.median merge for every
# block size: the 2x2 merge network must leave the one-step images (2x2)
# and the three-step images (8x8) byte-identical.
DEMO_DIGESTS = {
    "merge2x2_dstrc.pgm": "6669602eb434d21c9babfb59127660f8249ef7ae00250b71cb3af6e6bbebbed9",
    "merge2x2_resampled.pgm": "a1880c5322e4354337b8b3c3601b435402689c2b9770acd1e3f34cf5171dd89a",
    "merge8x8_dstrc.pgm": "6d87e0bca280d566e4d5bfd92526ab40e880c9834e2182a1d2455b1001c52624",
    "merge8x8_resampled.pgm": "fc749cecd736d4c0d24e1e4ab8809595896d968343b21b018a13db97525b7517",
    "original.pgm": "9ca7216041599a3a8316bcb2c1369acc3de7d86258b4682f9849dd1b27fbf436",
}


def test_cli_demo_resample(tmp_path):
    out = tmp_path / "demo"
    assert cli_main(["demo-resample", "--out", str(out)]) == 0
    digests = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.glob("*.pgm")
    }
    assert digests == DEMO_DIGESTS


def test_cli_run_round_trip(tmp_path):
    cfg = tmp_path / "short.ini"
    cfg.write_text(
        "[run]\nduration_s = 0.5\ncycle_s = 0.1\nseed = 3\ntiming = false\n"
        "[lidar.front]\nbeams = 180\n[lidar.rear]\nbeams = 180\n"
        "[mode.parking]\noccupancy_horizon_m = 20\noccupancy_cell_size_m = 0.1\n"
        "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:parking\n"
    )
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--dump-rasters"]) == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "time_s,mode,horizon_m,src,type,cells,bytes,fuse_ms"
    assert len(metrics) == 1 + 5 * 5
    assert (out / "final.apgm").exists()
    assert (out / "rasters" / "occupancy.pgm").exists()

    from apgm import load_grid

    loaded = load_grid(out / "final.apgm")
    assert loaded.cell_count() > 0


def test_cli_rasters_frame_the_last_cycle(tmp_path):
    # The run stops where `road` would start, so its last cycle (0.4 s) ran
    # `parking`: one occupancy raster of +-20 m at 0.1 m, no semantic one.
    text = (
        "[run]\nduration_s = 0.5\ncycle_s = 0.1\nseed = 3\ntiming = false\n"
        "[lidar.front]\nbeams = 180\n[lidar.rear]\nbeams = 180\n"
        "[mode.parking]\noccupancy_horizon_m = 20\noccupancy_cell_size_m = 0.1\n"
        "[mode.road]\noccupancy_horizon_m = 100\noccupancy_cell_size_m = 0.2\n"
        "semantic_active = true\nsemantic_horizon_m = 40\nsemantic_cell_size_m = 0.2\n"
        "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:parking 0.5:road\n"
    )
    cfg = tmp_path / "switch.ini"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli_main(["run", "--config", str(cfg), "--out", str(out), "--dump-rasters"]) == 0
    assert [p.name for p in (out / "rasters").iterdir()] == ["occupancy.pgm"]
    assert (out / "rasters" / "occupancy.pgm").read_bytes().startswith(b"P5\n400 400\n")
    # A run without cycles has no last cycle to frame.
    cfg.write_text(text.replace("duration_s = 0.5", "duration_s = 0"))
    empty = tmp_path / "empty"
    assert cli_main(["run", "--config", str(cfg), "--out", str(empty), "--dump-rasters"]) == 0
    assert not (empty / "rasters").exists()
