"""In-memory span tracer for the traced run.

The tracer rebinds the public layer functions the runner calls, in every
``apgm`` module that imported them, to wrappers that record a span (name,
start, end, parent, cycle id) and the layer's work counts. The library's
code is not changed, and ``instrument`` restores every binding on exit.

Cycle ``c`` spans from the end of the ``on_cycle`` hook of cycle ``c - 1``
to the start of its own hook; the benchmark's hook marks both ends. The
first cycle of each episode also holds the runner's validation and kernel
warm-up, so it is not counted; per-cycle figures are means over the
remaining ("timed") cycles. Span times are process CPU seconds, like the
benchmark's cycle times, and per-layer times are scaled by the same
calibration (see ``calibration.py``).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Span fields, in order.
NAME, START, END, PARENT, CYCLE, EXCLUDED = range(6)


@dataclass(frozen=True)
class Probe:
    """How one layer is traced.

    ``skip(args)`` lets a call through untraced; ``before(args)`` takes
    state the counts need from before the call; ``after(tracer, state,
    args, result)`` records work counts. Count time is excluded from the
    enclosing span's self time.
    """

    skip: Callable | None = None
    before: Callable | None = None
    after: Callable | None = None


def _traverse_after(tr, _, args, result):
    tr.count("kernels.traverse_rays", "rays", len(args[0]))
    tr.count("kernels.traverse_rays", "cells", len(result[0]))
    nbytes = sum(a.nbytes for a in args[:4]) + result[0].nbytes + result[1].nbytes
    tr.count("kernels.traverse_rays", "bytes_computed", nbytes)
    if tr.capturing:
        tr.captured["traverse_rays"].append(
            ([a.copy() for a in args[:4]] + [args[4]], [r.copy() for r in result])
        )


def _nonzero_rows(x):
    # Column by column: ``x.any(axis=1)`` is several times slower on the
    # narrow (n, k) mass rows.
    nz = x[:, 0] != 0
    for j in range(1, x.shape[1]):
        nz |= x[:, j] != 0
    return nz


def _combine_after(tr, _, args, result):
    a, b, out, conflict = args
    tr.count("kernels.combine_masses", "cells", len(a))
    nbytes = a.nbytes + b.nbytes + out.nbytes + conflict.nbytes
    tr.count("kernels.combine_masses", "bytes_computed", nbytes)
    vacuous = len(a) - int(np.count_nonzero(_nonzero_rows(a) & _nonzero_rows(b)))
    tr.count("kernels.combine_masses", "vacuous_cells", vacuous)
    if tr.capturing:
        tr.captured["combine_masses"].append(
            (
                [a.copy(), b.copy(), np.empty_like(out), np.empty_like(conflict)],
                [out.copy(), conflict.copy()],
            )
        )


def _occupancy_after(tr, _, args, grid):
    free = sum(
        int(np.count_nonzero(layer.masses[..., 1])) for _, layer in grid.iter_layers()
    )
    tr.count("sensors.measurement_grid_occupancy", "free_cells", free)


def _fuse_counter(args):
    return args[2] if len(args) > 2 else None


def _fuse_before(args):
    counter = _fuse_counter(args)
    return counter.cells if counter is not None else 0


def _fuse_after(tr, before, args, grid):
    tr.count("fusion.fuse_grids", "patches", len(grid.patches))
    counter = _fuse_counter(args)
    if counter is not None:
        tr.count("fusion.fuse_grids", "conflict_cells", counter.cells - before)


def _requirements_after(tr, _, args, report):
    for key in ("patches_deleted", "layers_deleted", "layers_resampled"):
        tr.count("requirements.apply_requirements", key, getattr(report, key))


def _same_step(args):
    # resample_layer returns its input unchanged when the step already
    # matches; fusion makes that call for every layer, so only calls that
    # change the step are traced.
    return args[1] == args[0].step


# Layer name -> probe. The name is "<apgm module>.<public function>".
LAYERS = {
    "scenario.simulate_lidar": Probe(),
    "scenario.simulate_camera": Probe(),
    "sensors.measurement_grid_occupancy": Probe(after=_occupancy_after),
    "sensors.measurement_grid_semantic": Probe(),
    "kernels.traverse_rays": Probe(after=_traverse_after),
    "kernels.combine_masses": Probe(after=_combine_after),
    "fusion.discount_grid": Probe(),
    "fusion.fuse_grids": Probe(before=_fuse_before, after=_fuse_after),
    "resample.resample_layer": Probe(skip=_same_step),
    "requirements.apply_requirements": Probe(after=_requirements_after),
}
RUNNER = "scenario.run_scenario"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        # [cycle id, start, end, timed, excluded]
        self.cycles: list[list] = []
        self.counts: dict[tuple[str, str], float] = defaultdict(float)
        self.captured: dict[str, list] = defaultdict(list)
        self.capturing = False
        self._stack: list[int] = []
        self._cycle: list | None = None
        self._next_id = 0

    # -- cycle boundaries, marked by the benchmark's on_cycle hook ----------

    def begin_cycle(self, t: float, timed: bool) -> None:
        self._cycle = [self._next_id, t, None, timed, 0.0]
        self._next_id += 1
        self.cycles.append(self._cycle)
        # Kernel inputs are sampled from the first timed cycle traced.
        self.capturing = timed and not self.captured

    def end_cycle(self, t: float) -> None:
        self._cycle[2] = t
        self._cycle = None
        self.capturing = False

    def drop_open_cycle(self) -> None:
        """Forget the cycle begun after an episode's last hook (or cut short)."""
        if self._cycle is not None:
            self.cycles.remove(self._cycle)
            self._cycle = None
            self.capturing = False

    # -- spans -----------------------------------------------------------

    def count(self, layer: str, key: str, value: float) -> None:
        if self._cycle is not None and self._cycle[3]:
            self.counts[(layer, key)] += value

    def wrap(self, name: str, fn, probe: Probe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if probe.skip is not None and probe.skip(args):
                return fn(*args, **kwargs)
            state = probe.before(args) if probe.before is not None else None
            parent = stack[-1] if stack else -1
            cycle = self._cycle[0] if self._cycle is not None else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, cycle, 0.0]
            spans.append(span)
            stack.append(idx)
            span[START] = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.process_time()
                stack.pop()
            if probe.after is not None:
                probe.after(self, state, args, result)
                spent = time.process_time() - span[END]
                if parent >= 0:
                    spans[parent][EXCLUDED] += spent
                elif self._cycle is not None:
                    self._cycle[4] += spent
            return result

        return traced


def _public_function(name: str):
    module, attr = name.split(".")
    return attr, getattr(sys.modules[f"apgm.{module}"], attr)


@contextmanager
def instrument(tracer: Tracer):
    """Rebind every layer function to its traced wrapper while active."""
    saved = []
    for name, probe in LAYERS.items():
        attr, fn = _public_function(name)
        wrapper = tracer.wrap(name, fn, probe)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "apgm" and getattr(module, attr, None) is fn:
                saved.append((module, attr, fn))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


# -- aggregation ---------------------------------------------------------------


def consistency_problems(tracer: Tracer, tol_s: float = 1e-6) -> list[str]:
    """Top-level spans must lie inside their cycle and not overlap.

    Then top-level span time plus the runner's self time is the cycle
    time, to ``tol_s`` per cycle.
    """
    problems = []
    top: dict[int, list] = defaultdict(list)
    for s in tracer.spans:
        if s[PARENT] == -1 and s[CYCLE] >= 0:
            top[s[CYCLE]].append(s)
    for cid, start, end, _, _ in tracer.cycles:
        prev_end = start
        for s in sorted(top[cid], key=lambda s: s[START]):
            if s[START] < prev_end - tol_s or s[END] > end + tol_s:
                problems.append(f"cycle {cid}: span {s[NAME]} outside or overlapping")
            prev_end = s[END]
    return problems


def layer_metrics(tracer: Tracer, scale: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per timed cycle, as {name: (value, unit)}.

    Times are multiplied by ``scale``, the calibration factor.
    """
    timed = {c[0] for c in tracer.cycles if c[3]}
    n = max(len(timed), 1)
    child_time = defaultdict(float)
    for s in tracer.spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    busy = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    top = defaultdict(float)
    for i, s in enumerate(tracer.spans):
        if s[CYCLE] not in timed:
            continue
        dur = s[END] - s[START]
        busy[s[NAME]] += dur
        own[s[NAME]] += dur - child_time[i] - s[EXCLUDED]
        calls[s[NAME]] += 1
        if s[PARENT] == -1:
            top[s[CYCLE]] += dur
    cycle_time = sum(c[2] - c[1] for c in tracer.cycles if c[3])
    busy[RUNNER] = cycle_time
    own[RUNNER] = sum(c[2] - c[1] - top[c[0]] - c[4] for c in tracer.cycles if c[3])
    # One untimed (first) cycle per episode, so one per run_scenario call.
    calls[RUNNER] = sum(1 for c in tracer.cycles if not c[3])

    out: dict[str, tuple[float, str]] = {}
    for name in list(LAYERS) + [RUNNER]:
        out[f"{name}.ms_per_cycle"] = (busy[name] * scale * 1e3 / n, "ms")
        out[f"{name}.self_ms_per_cycle"] = (own[name] * scale * 1e3 / n, "ms")
        out[f"{name}.calls_per_cycle"] = (calls[name] / n, "1/cycle")
    c = tracer.counts
    for layer, key, unit in (
        ("kernels.traverse_rays", "rays", "1/cycle"),
        ("kernels.traverse_rays", "cells", "1/cycle"),
        ("kernels.traverse_rays", "bytes_computed", "B/cycle"),
        ("kernels.combine_masses", "cells", "1/cycle"),
        ("kernels.combine_masses", "bytes_computed", "B/cycle"),
        ("fusion.fuse_grids", "patches", "1/cycle"),
        ("fusion.fuse_grids", "conflict_cells", "1/cycle"),
        ("requirements.apply_requirements", "patches_deleted", "1/cycle"),
        ("requirements.apply_requirements", "layers_deleted", "1/cycle"),
        ("requirements.apply_requirements", "layers_resampled", "1/cycle"),
    ):
        out[f"{layer}.{key}"] = (c[(layer, key)] / n, unit)
    emitted = c[("kernels.traverse_rays", "cells")]
    free = c[("sensors.measurement_grid_occupancy", "free_cells")]
    out["sensors.measurement_grid_occupancy.unique_frac"] = (
        free / emitted if emitted else 0.0,
        "fraction",
    )
    rows = c[("kernels.combine_masses", "cells")]
    vac = c[("kernels.combine_masses", "vacuous_cells")]
    out["kernels.combine_masses.vacuous_frac"] = (vac / rows if rows else 0.0, "fraction")
    return out


def replay_kernels(captured, scale: float, repeats: int = 5) -> tuple[dict, list[str]]:
    """Time the captured kernel calls again through the public kernel names.

    Both kernels return two arrays whose first has one row per cell
    (emitted cell or combined row). Returns ({metric: (ns per cell, "ns")},
    problems), times multiplied by ``scale``; a replay whose output differs
    from the traced call's is a problem.
    """
    from apgm import kernels

    out, problems = {}, []
    for name, calls in captured.items():
        fn = getattr(kernels, name)
        times = []
        for _ in range(repeats):
            t0 = time.process_time()
            results = [fn(*args) for args, _ in calls]
            times.append(time.process_time() - t0)
        for (_, want), got in zip(calls, results):
            if not all(np.array_equal(w, g) for w, g in zip(want, got)):
                problems.append(f"{name} replay differs from the traced call")
        cells = sum(len(want[0]) for _, want in calls)
        out[f"kernels.{name}.ns_per_cell"] = (
            float(np.median(times)) * scale / max(cells, 1) * 1e9,
            "ns",
        )
    return out, problems
