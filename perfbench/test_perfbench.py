"""Smoke tests of the benchmark on a few cycles.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import cycle_bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _check_output(stdout: str, declared: list[dict]) -> dict:
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert any(
            line.split()[1:2] == [m["name"]] and line.endswith(" " + m["unit"])
            for line in lines[:-1]
        ), f"{m['name']} not printed with its unit"
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert {"python", "numpy", "using_numba", "nproc", "cpu_model", "seed", "blas_threads"} <= set(env)
    return result["metrics"]


def test_end_to_end_metrics_printed_with_units():
    out = _run("--workload", "road", "--seed", "3", "--seconds", "0",
               "--trace", "0", "--cycles", "3")
    assert out.returncode == 0, out.stderr
    metrics = _check_output(out.stdout, SPEC["end_to_end"])
    assert metrics["ok_frac"]["value"] == 1.0


def test_per_layer_metrics_printed_with_units():
    # Cycle 3 switches to road mode, so the semantic path runs too.
    out = _run("--workload", "switching", "--seed", "3", "--seconds", "0",
               "--trace", "1", "--cycles", "5")
    assert out.returncode == 0, out.stderr
    metrics = _check_output(out.stdout, SPEC["per_layer"])
    assert metrics["sensors.measurement_grid_semantic.calls_per_cycle"]["value"] > 0
    assert metrics["resample.resample_layer.calls_per_cycle"]["value"] > 0


def test_corrupted_layer_counts_as_failed(tmp_path):
    def corrupt(record, grid, profile):
        _, layer = next(iter(grid.iter_layers()))
        layer.masses[0, 0, 0] = 2.0

    outcome = cycle_bench.run_benchmark(
        WORKLOADS["parking"], 1, 0.0, False, ROOT, tmp_path, cycles=3, inject=corrupt
    )
    assert not outcome.correct
    failed_frac = 1.0 - outcome.metrics["ok_frac"][0]
    assert failed_frac > 0.0
    assert outcome.failed / outcome.attempted == pytest.approx(failed_frac)


def test_fails_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "parking", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
