"""Correctness checks on the program's outputs.

``check_cycle`` runs in the ``on_cycle`` hook on every cycle, with the
benchmark's clock paused. ``reference_problems`` compares a short run at
the reference seed with digests recorded from the seed code by
``record_reference.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from apgm import patch_in_horizon, required_step, run_scenario, write_metrics

# float32 storage: a cell's singleton masses may exceed 1 by rounding only.
MASS_TOL = 1e-5
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def check_cycle(grid, profile) -> list[str]:
    """Invariants of the live map after one cycle; empty when all hold."""
    problems = []
    config = grid.config
    steps = {
        t: required_step(profile, t, config.edge_length)
        for t in profile.active_types()
    }
    for index, layer in grid.iter_layers():
        where = f"{layer.type_name} layer at {index}"
        m = layer.masses
        if not np.isfinite(m).all():
            problems.append(f"{where}: non-finite mass")
            continue
        if m.min() < 0.0 or m.max() > 1.0 + MASS_TOL:
            problems.append(f"{where}: mass outside [0, 1]")
        if m.sum(axis=-1).max() > 1.0 + MASS_TOL:
            problems.append(f"{where}: singleton masses sum above 1")
        if layer.type_name not in steps:
            problems.append(f"{where}: type not demanded")
            continue
        if layer.step != steps[layer.type_name]:
            problems.append(
                f"{where}: step {layer.step}, demanded {steps[layer.type_name]}"
            )
        if not patch_in_horizon(index, config, profile, layer.type_name):
            problems.append(f"{where}: patch outside the demand")
    return problems


def mass_sums(grid) -> dict[str, float]:
    """Total stored singleton mass per information type."""
    sums = {t: 0.0 for t in grid.config.types}
    for _, layer in grid.iter_layers():
        sums[layer.type_name] += float(layer.masses.sum(dtype=np.float64))
    return sums


def csv_digest(records, scratch: Path) -> str:
    path = write_metrics(records, scratch / "metrics.csv")
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def run_reference(workload, seed: int, cycles: int, scratch: Path, on_cycle=None):
    """The first ``cycles`` cycles of an episode with the timing column off.

    Returns (csv sha256, final-map mass sums per type).
    """
    script, world, config = workload.scenario(seed, cycles)
    config.measure_timing = False
    result = run_scenario(script, world, config, on_cycle=on_cycle)
    return csv_digest(result.records, scratch), mass_sums(result.grid)


def reference_problems(workload, digest: str, sums: dict[str, float]) -> list[str]:
    ref = load_reference()
    want = ref["workloads"][workload.name]
    problems = []
    if digest != want["csv_sha256"]:
        problems.append(f"metrics CSV digest {digest} != reference")
    for type_name, expected in want["mass_sums"].items():
        got = sums.get(type_name, 0.0)
        if not math.isclose(got, expected, rel_tol=ref["mass_rel_tol"], abs_tol=1e-9):
            problems.append(
                f"{type_name} mass sum {got!r} != reference {expected!r}"
            )
    return problems
