"""Scenario files: built-in defaults come from the dataclasses and profiles."""

import dataclasses
from pathlib import Path

import pytest

from apgm.cli import main as cli_main
from apgm.config import load_scenario, validate_file
from apgm.requirements import RequirementProfile, TypeRequirement, required_step
from apgm.scenario import (
    ScenarioConfig,
    default_scenario,
    default_script,
    parking_profile,
    road_profile,
    run_scenario,
)

DEFAULT_INI = Path(__file__).resolve().parents[1] / "configs" / "default.ini"


def test_default_ini_equals_builtin_defaults():
    # The file's header states that every value in it is a built-in default.
    script, _, config = load_scenario(DEFAULT_INI)
    assert config == ScenarioConfig()
    assert script == default_script()
    assert config.modes == {"parking": parking_profile(), "road": road_profile()}


def test_minimal_file_takes_builtin_defaults(tmp_path):
    path = tmp_path / "minimal.ini"
    path.write_text(
        "[mode.parking]\n\n"
        "[timeline]\n"
        "keyframes = 0:0:0:0 15:30:0:0\n"
        "modes = 0:parking\n",
        encoding="utf-8",
    )
    script, _, config = load_scenario(path)
    assert config.modes == {"parking": parking_profile()}
    assert config == dataclasses.replace(ScenarioConfig(), modes=config.modes)
    defaults = default_script()
    assert (script.duration_s, script.cycle_s) == (
        defaults.duration_s,
        defaults.cycle_s,
    )


def test_bad_timeline_entries_are_reported(tmp_path):
    path = tmp_path / "bad.ini"
    path.write_text(
        "[mode.parking]\n\n"
        "[timeline]\n"
        "keyframes = 0:0:0:0 1:x:0:0 2:0:0\n"
        "modes = 0:parking y:parking\n",
        encoding="utf-8",
    )
    problems = validate_file(path)
    for entry in ("'1:x:0:0'", "'2:0:0'", "'y:parking'"):
        assert any(entry in p for p in problems)


def _write_ini(path, sections):
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        ),
        encoding="utf-8",
    )
    return path


# One bad value per case: (section, key, INI value, diagnostic). Each used to
# pass validation and fail the run, crash validation, or exit 3.
BAD_VALUES = [
    ("run", "duration_s", "nan", "duration_s must be finite"),
    ("run", "duration_s", "inf", "duration_s must be finite"),
    ("run", "duration_s", "1e19", "< 2**53 cycles"),
    ("run", "cycle_s", "nan", "cycle_s must be finite"),
    ("run", "cycle_s", "inf", "cycle_s must be finite"),
    ("timeline", "keyframes", "0:nan:0:0 1:2:0:0", "keyframe values must be finite"),
    ("timeline", "modes", "0:parking nan:parking", "mode times must be"),
    ("timeline", "modes", "nan:parking", "first mode must start"),
    ("grid", "datum_x", "nan", "[grid] datum must be finite"),
    ("grid", "edge_length", "nan", "[grid] edge_length must be finite"),
    ("grid", "edge_length", "-1", "[grid] edge_length must be finite"),
    ("mode.parking", "occupancy_horizon_m", "nan", "[mode.parking] occupancy: horizon_m"),
    ("mode.parking", "occupancy_horizon_m", "-1", "[mode.parking] occupancy: horizon_m"),
    (
        "mode.parking",
        "occupancy_cell_size_m",
        "nan",
        "[mode.parking] occupancy: max_cell_size_m",
    ),
    ("grid", "max_step", "40", "[grid] max_step must be in [0, 31]"),
    (
        "mode.parking",
        "semantic_fov_half_angle_deg",
        "nan",
        "[mode.parking] semantic: fov_half_angle_rad",
    ),
    (
        "mode.parking",
        "semantic_fov_half_angle_deg",
        "400",
        "[mode.parking] semantic: fov_half_angle_rad",
    ),
    ("run", "seed", "-1", "seed must be a nonnegative integer"),
    # Cell sizes whose step no float ratio reaches: edge / cell overflows.
    (
        "mode.parking",
        "occupancy_cell_size_m",
        "5e-324",
        "mode 'parking': type 'occupancy': cell size 5e-324 m unreachable",
    ),
    (
        "mode.parking",
        "occupancy_cell_size_m",
        "1e-310",
        "mode 'parking': type 'occupancy': cell size 1e-310 m unreachable",
    ),
    ("grid", "edge_length", "1e308", "unreachable from edge length 1e+308 m"),
    # Demands whose work has no bound: a 1e12 m horizon, and a step-20
    # layer (2^40 cells) once max_step allows it (see WITH_KEYS).
    (
        "mode.parking",
        "occupancy_horizon_m",
        "1e12",
        "mode 'parking': type 'occupancy': horizon 1000000000000.0 m may reach",
    ),
    (
        "mode.parking",
        "occupancy_cell_size_m",
        repr(12.8 / 2**20),
        "mode 'parking': type 'occupancy': cell size 1.220703125e-05 m needs step 20",
    ),
]
# Keys a BAD_VALUES case sets alongside its own, by (section, key, value).
WITH_KEYS = {
    ("mode.parking", "occupancy_cell_size_m", repr(12.8 / 2**20)): {
        "grid": {"max_step": "31"}
    },
}


@pytest.mark.parametrize("section,key,raw,message", BAD_VALUES)
def test_cli_validate_reports_bad_value(tmp_path, capsys, section, key, raw, message):
    sections = {
        "run": {},
        "grid": {},
        "mode.parking": {},
        "timeline": {"keyframes": "0:0:0:0 1:2:0:0", "modes": "0:parking"},
    }
    sections[section][key] = raw
    for name, keys in WITH_KEYS.get((section, key, raw), {}).items():
        sections[name].update(keys)
    path = _write_ini(tmp_path / "bad.ini", sections)
    assert cli_main(["validate-config", str(path)]) == 2
    assert message in capsys.readouterr().err


# (edge length, cell size, exit code). The accepted cell sizes are the
# edge over a power of two, coarser ones included (they run at step 0).
CELL_SIZES = [
    ("12.8", "25.6", 0),
    ("12.8", "51.2", 0),
    ("12.8", "20", 2),
    ("12.8", "0.3", 2),
    ("1e308", "1e-10", 2),
]


@pytest.mark.parametrize("edge,cell,code", CELL_SIZES)
def test_cli_validate_pins_accepted_cell_sizes(tmp_path, capsys, edge, cell, code):
    path = _write_ini(
        tmp_path / "cell.ini",
        {
            "run": {"duration_s": "0.1", "timing": "false"},
            "grid": {"edge_length": edge},
            "lidar.front": {"beams": "90"},
            "lidar.rear": {"beams": "90"},
            "mode.parking": {
                "occupancy_cell_size_m": cell,
                "semantic_cell_size_m": cell,
            },
            "timeline": {"keyframes": "0:0:0:0 1:2:0:0", "modes": "0:parking"},
        },
    )
    assert cli_main(["validate-config", str(path)]) == code
    err = capsys.readouterr().err
    if code:
        assert "mode 'parking': type 'occupancy':" in err
        return
    steps = set()

    def on_cycle(record, grid, profile):
        steps.update(layer.step for _, layer in grid.iter_layers())

    run_scenario(*load_scenario(path), on_cycle=on_cycle)
    assert steps == {0}


def test_diagnostics_name_only_what_the_file_holds(tmp_path):
    # The refused script must not be replaced by the built-in one, whose
    # 'road' mode this file does not define; and the keyframe problem
    # belongs to [timeline], not [run].
    path = _write_ini(
        tmp_path / "mixed.ini",
        {
            "camera": {"max_range": "-1", "range_step": "0"},
            "mode.parking": {},
            "timeline": {"keyframes": "0:nan:0:0 1:2:0:0", "modes": "0:parking"},
        },
    )
    assert validate_file(path) == [
        "[camera] max_range must be finite and positive",
        "[camera] range_step must be finite and positive",
        "keyframe values must be finite",
    ]


def test_cli_run_reports_negative_seed(tmp_path, capsys):
    path = tmp_path / "ok.ini"
    path.write_text(
        "[mode.parking]\n[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:parking\n",
        encoding="utf-8",
    )
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out")]
    assert cli_main(argv + ["--seed", "-1"]) == 2
    assert "seed must be a nonnegative integer" in capsys.readouterr().err


def test_cli_validate_reports_unknown_keys(tmp_path, capsys):
    path = tmp_path / "typos.ini"
    path.write_text(
        "[mode.parking]\noccupancy_horizon = 50\n"
        "[run]\nsede = 3\n"
        "[camra]\nmax_range = 5\n"
        "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:parking\n",
        encoding="utf-8",
    )
    assert cli_main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    for where in ("[mode.parking] occupancy_horizon", "[run] sede", "[camra] max_range"):
        assert f"{where}: unknown key" in err


# Steps 4 (0.8 m) and 9 (0.025 m): one switch resamples a layer by 5 steps.
FAR_STEPS = (
    "[mode.road]\noccupancy_cell_size_m = 0.8\n"
    "[mode.parking]\noccupancy_cell_size_m = 0.025\n"
    "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:road 0.2:parking\n"
)


def test_cli_validate_accepts_far_step_switch(tmp_path, capsys):
    path = tmp_path / "far.ini"
    path.write_text(FAR_STEPS, encoding="utf-8")
    assert cli_main(["validate-config", str(path)]) == 0


def test_run_realizes_far_step_switches():
    script, world, config = default_scenario()
    script = dataclasses.replace(
        script,
        duration_s=0.6,
        mode_times=[(0.0, "road"), (0.2, "parking"), (0.4, "road")],
    )
    config.measure_timing = False
    config.lidars = [dataclasses.replace(lidar, beams=180) for lidar in config.lidars]
    for label, cell_size in (("road", 0.8), ("parking", 0.025)):
        demand = TypeRequirement(True, 6.0, cell_size)
        config.modes[label] = RequirementProfile({"occupancy": demand})
    steps = []

    def on_cycle(record, grid, profile):
        grid.check()
        want = required_step(profile, "occupancy", grid.config.edge_length)
        layers = [layer for _, layer in grid.iter_layers()]
        assert layers and all(layer.step == want for layer in layers)
        steps.append(want)

    run_scenario(script, world, config, on_cycle=on_cycle)
    assert steps == [4, 4, 9, 9, 4, 4]
