"""Scenario files: built-in defaults come from the dataclasses and profiles."""

import configparser
import contextlib
import dataclasses
import io
import math
import re
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    ("grid", "max_step", "10", "[grid] max_step: unknown key"),
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
    # Sizes that overflow a float product: refused, not a crash.
    ("grid", "edge_length", "1e-300", "mode 'parking': type 'occupancy': edge 1e-300"),
    (
        "mode.parking",
        "occupancy_horizon_m",
        "1e200",
        "mode 'parking': type 'occupancy': horizon 1e+200 m may reach inf patches",
    ),
    # Demands whose work has no bound: a 1e12 m horizon, and horizons that
    # may hold more than 2^24 cells at the demanded step: 29M cells for a
    # 20 m horizon at step 10, over 26M at step 11 for any horizon, and a
    # 2^40-cell layer at step 20.
    (
        "mode.parking",
        "occupancy_horizon_m",
        "1e12",
        "mode 'parking': type 'occupancy': horizon 1000000000000.0 m may reach",
    ),
    (
        "mode.parking",
        "occupancy_cell_size_m",
        "0.0125",
        "mode 'parking': type 'occupancy': cell size 0.0125 m needs step 10: its "
        "20.0 m horizon may hold 2.92e+07 cells, above 16777216",
    ),
    (
        "mode.parking",
        "occupancy_cell_size_m",
        repr(12.8 / 2**11),
        "mode 'parking': type 'occupancy': cell size 0.00625 m needs step 11",
    ),
    (
        "mode.parking",
        "occupancy_cell_size_m",
        repr(12.8 / 2**20),
        "mode 'parking': type 'occupancy': cell size 1.220703125e-05 m needs step 20",
    ),
    # A drive whose cells leave the +-2^31 range: 1e12 m is 10^13 cells of
    # 0.1 m from the datum, and 1e308 m overflows to inf.
    ("grid", "datum_x", "1e12", "mode 'parking': type 'occupancy': the drive reaches"),
    ("grid", "datum_x", "1e308", "mode 'parking': type 'occupancy': the drive reaches"),
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


def _default_with(path, changes):
    """``configs/default.ini`` on a 2-cycle drive, with ``changes``
    ({section: {key: value}}) applied."""
    parser = configparser.ConfigParser()
    parser.read(DEFAULT_INI, encoding="utf-8")
    parser["run"].update(duration_s="0.2", timing="false")
    for section, keys in changes.items():
        parser[section].update(keys)
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def test_cli_validate_refuses_10_to_the_12_cells_per_scan(tmp_path, capsys):
    # 0.003125 m cells (step 12) to 1,800 m: under 2^16 patches, but each
    # holds 2^24 cells, about 10^12 cells in all.
    changes = {"mode.parking": {"occupancy_cell_size_m": "0.003125",
                                "occupancy_horizon_m": "1800"}}
    path = _default_with(tmp_path / "huge.ini", changes)
    assert cli_main(["validate-config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "mode 'parking': type 'occupancy': cell size 0.003125 m needs step 12" in err


# -- whatever validate-config accepts runs in bounded time and memory ---------

def _numeric_keys(path):
    parser = configparser.ConfigParser()
    parser.read(path, encoding="utf-8")
    for section in parser.sections():
        for key, raw in parser[section].items():
            with contextlib.suppress(ValueError):
                float(raw)
                yield section, key


# Every numeric key of configs/default.ini, each set alone, except the two
# that set the run's length; and the [mode.parking] semantic demand, which
# the file leaves at its default.
GATE_KEYS = [
    key
    for key in _numeric_keys(DEFAULT_INI)
    if key not in {("run", "duration_s"), ("run", "cycle_s")}
] + [("mode.parking", f"semantic_{k}") for k in ("horizon_m", "cell_size_m")]
INT_KEYS = {"beams", "seed"}
FLOAT_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -1.0, 1e-300, 1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
INT_VALUES = st.one_of(
    st.sampled_from([-1, 0, 1, 1 << 14, (1 << 14) + 1, 1 << 64]), st.integers()
)
GATE_CASES = st.sampled_from(GATE_KEYS).flatmap(
    lambda key: st.tuples(st.just(key), INT_VALUES if key[1] in INT_KEYS else FLOAT_VALUES)
)
# The gate drives one parking and one road cycle, so both modes' demands
# and the camera run. A run of an accepted file stays under these. The
# costliest accepted values known, 0.025 m parking cells (step 9: 7.3M
# cells within the 20 m horizon) and 102.4 m patches (step 10), take under
# 1 s and peak near 110 and 150 MB under tracemalloc on a 2-core x86-64 VM.
GATE_TIMELINE = {"modes": "0:parking 0.1:road"}
GATE_SECONDS = 30.0
GATE_PEAK_BYTES = 512 << 20
# Problems name the section, or the mode and type of a cross-part rule.
_NAMED = re.compile(r"(\[[\w.]+\] |mode '\w+': type '\w+': )")


@settings(max_examples=100, deadline=None)
@given(GATE_CASES)
@example((("grid", "edge_length"), 1e-300))
@example((("mode.parking", "occupancy_horizon_m"), 1e200))
@example((("mode.parking", "occupancy_horizon_m"), 1e12))
@example((("mode.parking", "occupancy_cell_size_m"), 0.0125))  # step 10
@example((("mode.parking", "occupancy_cell_size_m"), 12.8 / 2**11))  # step 11
@example((("mode.parking", "occupancy_cell_size_m"), 0.025))  # step 9
@example((("grid", "edge_length"), 102.4))  # step 10
@example((("grid", "datum_x"), 1e12))
@example((("grid", "datum_x"), 1e308))
@example((("lidar.front", "noise_sigma"), 1e308))
@example((("lidar.front", "max_range"), 1.797693134860681e308))
@example((("lidar.front", "noise_sigma"), -0.0))
@example((("run", "seed"), -1))
@example((("run", "temporal_alpha"), 1.5))
@example((("camera", "max_range"), 5e-324))
def test_accepted_files_run_in_bounded_time_and_memory(case):
    (section, name), value = case
    with tempfile.TemporaryDirectory() as tmp:
        changes = {"timeline": GATE_TIMELINE, section: {name: repr(value)}}
        path = _default_with(Path(tmp) / "gate.ini", changes)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli_main(["validate-config", str(path)])
        if code == 2:
            lines = err.getvalue().splitlines()
            assert lines and all(_NAMED.match(line) for line in lines), lines
            return
        assert code == 0, err.getvalue()
        script, world, config = load_scenario(path)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        run_scenario(script, world, config)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert seconds < GATE_SECONDS and peak < GATE_PEAK_BYTES, (seconds, peak)
