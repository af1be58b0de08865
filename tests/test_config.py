"""Scenario files: built-in defaults come from the dataclasses and profiles."""

import dataclasses
from pathlib import Path

import pytest

from apgm.cli import main as cli_main
from apgm.config import load_scenario, validate_file
from apgm.errors import ConfigError
from apgm.requirements import RequirementProfile, TypeRequirement
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
]


@pytest.mark.parametrize("section,key,raw,message", BAD_VALUES)
def test_cli_validate_reports_bad_value(tmp_path, capsys, section, key, raw, message):
    sections = {
        "run": {},
        "grid": {},
        "mode.parking": {},
        "timeline": {"keyframes": "0:0:0:0 1:2:0:0", "modes": "0:parking"},
    }
    sections[section][key] = raw
    path = tmp_path / "bad.ini"
    path.write_text(
        "".join(
            f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
            for name, keys in sections.items()
        ),
        encoding="utf-8",
    )
    assert cli_main(["validate-config", str(path)]) == 2
    assert message in capsys.readouterr().err


# Resampling takes at most MAX_STEP_DELTA (4) steps per change: the runner
# would fail at the first switch from 0.8 m (step 4) to 0.025 m (step 9).
FAR_STEPS = (
    "[mode.road]\noccupancy_cell_size_m = 0.8\n"
    "[mode.parking]\noccupancy_cell_size_m = 0.025\n"
    "[timeline]\nkeyframes = 0:0:0:0 1:2:0:0\nmodes = 0:road 0.2:parking\n"
)
FAR_STEPS_MESSAGE = "switch 'road' -> 'parking' changes the occupancy step 4 -> 9"


def test_cli_validate_reports_step_change_above_cap(tmp_path, capsys):
    path = tmp_path / "far.ini"
    path.write_text(FAR_STEPS, encoding="utf-8")
    assert cli_main(["validate-config", str(path)]) == 2
    assert FAR_STEPS_MESSAGE in capsys.readouterr().err


def test_run_refuses_step_change_above_cap():
    script, world, config = default_scenario()
    for label, cell_size in (("road", 0.8), ("parking", 0.025)):
        demand = TypeRequirement(True, 20.0, cell_size)
        config.modes[label] = RequirementProfile({"occupancy": demand})
    with pytest.raises(ConfigError, match=FAR_STEPS_MESSAGE):
        run_scenario(script, world, config)
