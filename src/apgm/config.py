"""Scenario configuration files (INI sections, documented in the README).

``load_scenario`` turns a file into the (script, world, config) triple the
runner consumes. A missing key takes its value from ``ScenarioConfig()``
and ``default_script()``; every ``[mode.*]`` section starts from
``parking_profile()``. Each part refuses bad fields when built, and the
loader labels those problems with their section. Only once every part is
built does it apply ``validate_scenario``'s cross-part rules, so no
diagnostic names a default standing in for a refused part. All problems
are raised as one :class:`ConfigError`.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from pathlib import Path

from .errors import ConfigError
from .requirements import RequirementProfile, TypeRequirement
from .scenario import (
    ScenarioConfig,
    ScenarioScript,
    default_script,
    parking_profile,
    validate_scenario,
)
from .world import WorldModel, default_world

WORLD_PRESETS = {
    "default": default_world,
    "empty": WorldModel,
}


class _Reader:
    """Typed section access that records problems instead of raising."""

    def __init__(self, parser: configparser.ConfigParser):
        self.parser = parser
        self.problems: list[str] = []
        self.asked: set[tuple[str, str]] = set()

    def get(self, section, key, cast, default):
        self.asked.add((section, key))
        if not self.parser.has_option(section, key):
            return default
        raw = self.parser.get(section, key)
        try:
            return cast(raw)
        except (TypeError, ValueError):
            self.problems.append(f"[{section}] {key}: cannot parse {raw!r}")
            return default

    def angle(self, section, key, default_rad):
        """An angle given in degrees, returned in radians."""
        deg = self.get(section, key, float, None)
        return default_rad if deg is None else math.radians(deg)

    def pair(self, section, prefix, default):
        """The float pair ``(<prefix>_x, <prefix>_y)``."""
        return tuple(
            self.get(section, f"{prefix}_{axis}", float, v)
            for axis, v in zip("xy", default)
        )

    def fields(self, section, d, keys, where=None, **values):
        """Dataclass ``d`` with each field in ``keys`` read from the key of
        the same name, cast like its default, and with ``values`` set;
        problems are labelled ``where``, by default the section."""
        for key in keys:
            default = getattr(d, key)
            values[key] = self.get(section, key, type(default), default)
        return self.replace(f"[{section}] " if where is None else where, d, **values)

    def replace(self, where, d, **values):
        """``d`` with ``values`` set, or ``d`` and its problems, each
        prefixed with ``where``, if it refuses them."""
        try:
            return dataclasses.replace(d, **values)
        except ConfigError as exc:
            self.problems += [f"{where}{p}" for p in exc.problems]
            return d


def _as_bool(raw: str) -> bool:
    value = raw.strip().lower()
    if value in {"1", "true", "yes", "on"}:
        return True
    if value in {"0", "false", "no", "off"}:
        return False
    raise ValueError(raw)


def _parse_items(raw: str, casts, form: str, problems: list[str]) -> list[tuple]:
    """``a:b:...`` items separated by spaces or commas, one cast per field."""
    items = []
    for chunk in raw.replace(",", " ").split():
        parts = chunk.split(":")
        try:
            if len(parts) != len(casts):
                raise ValueError(chunk)
            items.append(tuple(cast(p) for cast, p in zip(casts, parts)))
        except ValueError:
            problems.append(f"[timeline] {chunk!r} is not {form}")
    return items


def _profile_from(reader: _Reader, section: str) -> RequirementProfile:
    """A mode's demands, each key defaulting to the parking profile's."""

    def type_req(prefix: str, d: TypeRequirement) -> TypeRequirement:
        return reader.replace(
            f"[{section}] {prefix}: ",
            d,
            active=reader.get(section, f"{prefix}_active", _as_bool, d.active),
            horizon_m=reader.get(section, f"{prefix}_horizon_m", float, d.horizon_m),
            max_cell_size_m=reader.get(
                section, f"{prefix}_cell_size_m", float, d.max_cell_size_m
            ),
            fov_half_angle_rad=reader.angle(
                section, f"{prefix}_fov_half_angle_deg", d.fov_half_angle_rad
            ),
        )

    return RequirementProfile(
        {t: type_req(t, d) for t, d in parking_profile().demands.items()}
    )


def load_scenario(path) -> tuple[ScenarioScript, WorldModel, ScenarioConfig]:
    """Parse and validate a scenario file; raises ConfigError on problems."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"no such config file: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    reader = _Reader(parser)

    defaults = ScenarioConfig()
    datum = reader.pair("grid", "datum", defaults.grid.datum)
    grid = reader.fields("grid", defaults.grid, ("edge_length",), datum=datum)

    preset = reader.get("world", "preset", str, "default")
    if preset not in WORLD_PRESETS:
        reader.problems.append(
            f"[world] preset: unknown {preset!r}, known: {sorted(WORLD_PRESETS)}"
        )
        preset = "default"
    world = WORLD_PRESETS[preset]()

    lidars = [
        reader.fields(
            section,
            d,
            ("beams", "max_range", "noise_sigma", "mu_hit", "mu_free"),
            mount=reader.pair(section, "mount", d.mount),
        )
        for section, d in zip(("lidar.front", "lidar.rear"), defaults.lidars)
    ]
    cam = defaults.camera
    camera = reader.fields(
        "camera",
        cam,
        ("max_range", "range_step", "confidence_near", "confidence_far"),
        fov_half_angle_rad=reader.angle(
            "camera", "fov_half_angle_deg", cam.fov_half_angle_rad
        ),
        angle_step_rad=reader.angle("camera", "angle_step_deg", cam.angle_step_rad),
    )

    modes = {}
    for section in parser.sections():
        if section.startswith("mode."):
            modes[section.removeprefix("mode.")] = _profile_from(reader, section)
    if not modes:
        reader.problems.append("no [mode.*] sections defined")

    timeline = {}  # a key left out keeps default_script()'s value
    for key, field, casts, form in (
        ("keyframes", "keyframes", (float,) * 4, "t:x:y:heading"),
        ("modes", "mode_times", (float, str), "time:label"),
    ):
        raw = reader.get("timeline", key, str, None)
        if raw is not None:
            timeline[field] = _parse_items(raw, casts, form, reader.problems)
    script = reader.fields(
        "run",
        default_script(),
        ("duration_s", "cycle_s"),
        where="",  # ScenarioScript labels its problems [run] or [timeline]
        **timeline,
    )
    config = reader.fields(
        "run",
        defaults,
        ("seed", "temporal_alpha"),
        grid=grid,
        lidars=lidars,
        camera=camera,
        modes=modes,
        measure_timing=reader.get("run", "timing", _as_bool, defaults.measure_timing),
    )

    for section in parser.sections():
        for key in parser.options(section):
            if (section, key) not in reader.asked:
                reader.problems.append(f"[{section}] {key}: unknown key")
    problems = reader.problems or validate_scenario(script, config)
    if problems:
        raise ConfigError(*problems)
    return script, world, config


def validate_file(path) -> list[str]:
    """Diagnostics for a config file; empty list means it is usable."""
    try:
        load_scenario(path)
    except ConfigError as exc:
        return exc.problems
    return []
