"""Scenario-cycle benchmark: episodes, timing, output checks, set-up.

A run repeats one workload episode through the public ``apgm.run_scenario``
until the time is up. Each cycle is timed from outside, between two calls
of the ``on_cycle`` hook; the hook's own work (output checks and the
calibration pass) falls outside both ends, so the clock is paused while
it runs. Cycle times are process CPU times normalised by the calibration
pass that follows each cycle (see ``calibration.py``).
"""

from __future__ import annotations

import math
import os
import platform
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import apgm
from apgm import load_grid, run_scenario, save_grid

import layer_trace
from calibration import REFERENCE_S, calibration_s
from output_checks import check_cycle, load_reference, reference_problems, run_reference

# Two episodes of every workload hold at least 68 timed cycles, so the
# 85th percentile has at least TAIL_BEYOND cycles beyond it.
MIN_EPISODES = 2
TAIL_PERCENTILE = 85
TAIL_BEYOND = 10
SETUP_SAMPLES = 5
SNAPSHOT_REPEATS = 3
MAX_PROBLEMS = 20  # problems kept in the result

# Child process for one set-up sample: interpreter start, imports,
# scenario build, validation and kernel warm-up (a zero-cycle run). It
# prints its CPU time so far.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import apgm
from workloads import WORKLOADS
script, world, config = WORKLOADS[sys.argv[3]].scenario(int(sys.argv[4]), cycles=0)
apgm.run_scenario(script, world, config)
print(repr(time.process_time()))
"""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "using_numba": bool(apgm.kernels.USING_NUMBA),
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "seed": seed,
    }


@dataclass
class Episode:
    traced: bool
    # Per timed cycle (all but the first): CPU time, the calibration pass
    # after it, wall time and live-map cells.
    cpu_s: list[float] = field(default_factory=list)
    cal_s: list[float] = field(default_factory=list)
    wall_s: list[float] = field(default_factory=list)
    cells: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    grid: object = None
    elapsed_s: float = 0.0

    def normalised_s(self) -> np.ndarray:
        return np.array(self.cpu_s) * REFERENCE_S / np.array(self.cal_s)


def run_episode(workload, seed, cycles=None, tracer=None, inject=None) -> Episode:
    """One run_scenario call, timing each cycle from the on_cycle hook."""
    script, world, config = workload.scenario(seed, cycles)
    ep = Episode(traced=tracer is not None)
    last = None  # (cpu, wall) at the end of the previous hook

    def on_cycle(record, grid, profile):
        nonlocal last
        cpu, wall = time.process_time(), time.perf_counter()
        if tracer is not None:
            tracer.end_cycle(cpu)
        if last is not None:
            ep.cpu_s.append(cpu - last[0])
            ep.wall_s.append(wall - last[1])
            ep.cal_s.append(calibration_s())
            ep.cells.append(grid.cell_count())
        if inject is not None:
            inject(record, grid, profile)
        problems = check_cycle(grid, profile)
        ep.attempted += 1
        if problems:
            ep.failed += 1
            ep.problems.extend(f"t={record.time_s:.1f}: {p}" for p in problems)
        ep.grid = grid
        last = (time.process_time(), time.perf_counter())
        if tracer is not None:
            tracer.begin_cycle(last[0], timed=True)

    t0 = time.perf_counter()
    if tracer is not None:
        tracer.begin_cycle(time.process_time(), timed=False)
    try:
        run_scenario(script, world, config, on_cycle=on_cycle)
    except Exception as exc:  # a raising cycle is a failed cycle, not a crash
        ep.attempted += 1
        ep.failed += 1
        ep.problems.append(f"cycle raised {exc!r}")
    if tracer is not None:
        tracer.drop_open_cycle()
    ep.elapsed_s = time.perf_counter() - t0
    return ep


def run_episodes(workload, seed, seconds, cycles=None, traced=False, inject=None):
    """Repeat the episode while another fits in ``seconds``; at least twice.

    With ``traced``, episodes alternate untraced, traced, untraced, ...
    and the traced ones share one tracer. Returns (episodes, tracer).
    """
    tracer = layer_trace.Tracer() if traced else None
    episodes: list[Episode] = []
    start = time.perf_counter()
    while True:
        if traced and len(episodes) % 2 == 1:
            with layer_trace.instrument(tracer):
                ep = run_episode(workload, seed, cycles, tracer, inject)
        else:
            ep = run_episode(workload, seed, cycles, None, inject)
        episodes.append(ep)
        used = time.perf_counter() - start
        if len(episodes) >= MIN_EPISODES and used + ep.elapsed_s > seconds:
            return episodes, tracer


def tail_percentile(n: int) -> int:
    """TAIL_PERCENTILE, or lower if fewer than TAIL_BEYOND lie beyond it."""
    if n <= 2 * TAIL_BEYOND:
        return 50
    return min(TAIL_PERCENTILE, math.floor(100.0 * (n - TAIL_BEYOND) / n))


def setup_times(workload, seed: int, root: Path) -> list[float]:
    """Normalised CPU time from process start to first cycle, per child (s)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        cal = float(np.median([calibration_s() for _ in range(3)]))
        out = subprocess.run(
            [
                sys.executable,
                "-c",
                _SETUP_CHILD,
                str(root / "src"),
                str(Path(__file__).resolve().parent),
                workload.name,
                str(seed),
            ],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.split()[-1]) * REFERENCE_S / cal)
    return samples


def snapshot_round_trip(grid, scratch: Path):
    """Median save/load CPU times (s), file bytes and problems on a map."""
    path = scratch / "final.apgm"
    saves, loads, problems = [], [], []
    for _ in range(SNAPSHOT_REPEATS):
        t0 = time.process_time()
        save_grid(grid, path)
        t1 = time.process_time()
        loaded = load_grid(path)
        t2 = time.process_time()
        saves.append(t1 - t0)
        loads.append(t2 - t1)
    same = sorted(loaded.patches) == sorted(grid.patches) and all(
        np.array_equal(layer.masses, loaded.layer_at(index, layer.type_name).masses)
        for index, layer in grid.iter_layers()
    )
    if not same:
        problems.append("snapshot round trip changed the map")
    return float(np.median(saves)), float(np.median(loads)), path.stat().st_size, problems


@dataclass
class Outcome:
    """What main() prints: metrics plus the records that explain them."""

    metrics: dict[str, tuple[float, str]]
    attempted: int
    failed: int
    problems: list[str]
    detail: dict
    spans: list | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0


def _reference_check(workload, scratch: Path, tracer=None):
    """Reference window at the reference seed; (attempted, failed, problems)."""
    ref = load_reference()
    failing: list[list[str]] = []
    attempted = 0

    def on_cycle(record, grid, profile):
        nonlocal attempted
        attempted += 1
        problems = check_cycle(grid, profile)
        if problems:
            failing.append(problems)

    def run():
        return run_reference(
            workload, ref["seed"], ref["window_cycles"], scratch, on_cycle
        )

    if tracer is not None:
        with layer_trace.instrument(tracer):
            digest, sums = run()
    else:
        digest, sums = run()
    problems = reference_problems(workload, digest, sums)
    failed = attempted if problems else len(failing)
    return attempted, failed, [p for ps in failing for p in ps] + problems


def _speed_scale(episodes) -> float:
    """REFERENCE_S over the median calibration pass of these episodes."""
    return REFERENCE_S / float(np.median([c for ep in episodes for c in ep.cal_s]))


def run_benchmark(
    workload, seed: int, seconds: float, trace: bool, root: Path, scratch: Path,
    cycles: int | None = None, inject=None,
) -> Outcome:
    """One benchmark run; end-to-end metrics, or per-layer ones with ``trace``."""
    setup = [] if trace else setup_times(workload, seed, root)
    episodes, tracer = run_episodes(workload, seed, seconds, cycles, trace, inject)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    problems = [p for ep in episodes for p in ep.problems]
    ref_attempted, ref_failed, ref_problems = _reference_check(
        workload, scratch, layer_trace.Tracer() if trace else None
    )
    attempted += ref_attempted
    failed += ref_failed
    problems += ref_problems

    plain = [ep for ep in episodes if not ep.traced and ep.cpu_s]
    if not plain:
        raise RuntimeError("no cycle was timed: " + "; ".join(problems[:3]))
    times = np.concatenate([ep.normalised_s() for ep in plain])
    pct = tail_percentile(len(times))
    detail = {
        "episodes": len(episodes),
        "episode_cycles": cycles or workload.episode_cycles,
        "timed_cycles": len(times),
        "tail_percentile": pct,
        "wall_ms_p50": float(np.median([w for ep in plain for w in ep.wall_s])) * 1e3,
        "cpu_ms_p50": float(np.median([c for ep in plain for c in ep.cpu_s])) * 1e3,
        "calibration_ms_p50": REFERENCE_S / _speed_scale(plain) * 1e3,
        "cycle_ms": [round(t * 1e3, 3) for t in times],
    }
    if not trace:
        metrics = {
            "cycle_ms_p50": (float(np.median(times)) * 1e3, "ms"),
            "cycle_ms_tail": (float(np.percentile(times, pct)) * 1e3, "ms"),
            "cycles_per_s": (1.0 / float(np.mean(times)), "1/s"),
            "setup_s": (float(np.median(setup)), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "fused_cells_mean": (
                float(np.mean([c for ep in plain for c in ep.cells])),
                "cells",
            ),
            "ok_frac": (1.0 - failed / attempted, "fraction"),
        }
        detail["setup_s"] = setup
        return Outcome(metrics, attempted, failed, problems[:MAX_PROBLEMS], detail)

    traced = [ep for ep in episodes if ep.traced]
    scale = _speed_scale(traced)
    metrics = layer_trace.layer_metrics(tracer, scale)
    traced_times = np.concatenate([ep.normalised_s() for ep in traced])
    metrics["tracing.overhead_ms"] = (
        (float(np.median(traced_times)) - float(np.median(times))) * 1e3,
        "ms",
    )
    checks = layer_trace.consistency_problems(tracer)
    kernel_metrics, replay_problems = layer_trace.replay_kernels(tracer.captured, scale)
    metrics.update(kernel_metrics)
    save_s, load_s, nbytes, snap_problems = snapshot_round_trip(episodes[-1].grid, scratch)
    metrics["snapshot.save_grid.ms"] = (save_s * scale * 1e3, "ms")
    metrics["snapshot.save_grid.bytes"] = (float(nbytes), "B")
    metrics["snapshot.load_grid.ms"] = (load_s * scale * 1e3, "ms")
    for extra in (checks, replay_problems, snap_problems):
        attempted += 1
        if extra:
            failed += 1
            problems += extra
    t0 = tracer.cycles[0][1] if tracer.cycles else 0.0
    spans = [
        [s[0], round((s[1] - t0) * 1e3, 4), round((s[2] - t0) * 1e3, 4), s[3], s[4]]
        for s in tracer.spans
    ]
    return Outcome(metrics, attempted, failed, problems[:MAX_PROBLEMS], detail, spans)
