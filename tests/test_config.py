"""Scenario files: built-in defaults come from the dataclasses and profiles."""

import dataclasses
from pathlib import Path

from apgm.config import load_scenario, validate_file
from apgm.scenario import (
    ScenarioConfig,
    default_script,
    parking_profile,
    road_profile,
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
