"""Time each fast path of the scenario cycle against its general path.

A fast path is a branch whose general path returns the same bits. For each
one listed in README's fast-path table this script captures the inputs of
the layer that takes the branch over one episode of each perfbench
workload, builds that layer a second time with the branch removed (by
editing its source text in memory; no file changes), checks that both
builds return the same bits on every captured call and times them in one
process, call by call in turn, over several rounds:

    PYTHONPATH=src python3 tools/time_fast_paths.py [--seed 7] [--rounds 10]
        [--workload parking] [--path kernels.traverse_rays]

Per path and workload it prints the median over the rounds of the process
CPU ms per call with and without the branch, and in how many rounds the
branch was the faster side. Run it from the repository root.

A replay locates a cost and checks bits; it does not decide whether a
branch stays. It runs one layer's captured calls back to back, so it misses
what the rest of the cycle does to the caches and the heap: folding each
``fuse_grids`` call once, without the 8,192-row flush, replays 5-10 %
faster, yet it slows the ``switching`` cycle by about 10 %. Alternating
perfbench pairs with and without the branch decide (README, Fast paths).
"""

from __future__ import annotations

import __future__
import argparse
import copy
import inspect
import statistics
import sys
import textwrap
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from apgm import fusion, kernels, requirements, resample, run_scenario, scenario, sensors
from apgm.evidence import ConflictCounter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


@dataclass(frozen=True)
class FastPath:
    name: str  # as README's fast-path table gives it
    owner: object  # module or class holding the function to rebuild
    attr: str
    old: str  # source text of the branch
    new: str  # its replacement in the general path
    layer: str  # captured layer the timing replays


def _rebuild(owner, attr: str, old: str, new: str):
    """``owner.attr`` compiled again with ``old`` replaced by ``new``."""
    fn = getattr(owner, attr)
    source = textwrap.dedent(inspect.getsource(fn))
    if source.count(old) != 1:
        raise SystemExit(f"{attr}: the branch text is not in its source once")
    namespace = dict(fn.__globals__)
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(old, new), inspect.getfile(fn), "exec", flags), namespace)
    return namespace[attr]


@contextmanager
def _bound(owner, attr: str, fn):
    saved = owner.__dict__[attr]
    setattr(owner, attr, fn)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


PATHS = [
    FastPath(
        "ray-prefilter",
        kernels,
        "traverse_rays",
        "        ratio = np.where(n_M < _CLEAR_CELLS, ad_M / ad_m, np.nan)\n"
        "        x = np.repeat(q_m, n_m) + k\n"
        "        x *= np.repeat(ratio, n_m)\n"
        "        x -= np.repeat(q_M, n_m)\n"
        "        c = np.floor(x)\n"
        "        x -= c\n"
        "        clear = (x > _CLEAR_MARGIN) & (x < 1.0 - _CLEAR_MARGIN)\n"
        "        del x\n"
        "        c = c.astype(np.int64)\n"
        "        c += 1\n",
        "        c = np.zeros(len(k), dtype=np.int64)\n"
        "        clear = np.zeros(len(k), dtype=bool)\n",
        "traverse_rays",
    ),
    FastPath(
        "segment-cull",
        scenario,
        "simulate_lidar",
        "keep = _segments_in_range(rel, vec, config.max_range)",
        "keep = np.ones(len(rel), dtype=bool)",
        "simulate_lidar",
    ),
    FastPath(
        "single-input-copy",
        fusion,
        "_or_layers",
        "    if len(resampled) == 1:\n"
        "        return Layer(\n"
        "            first.type_name, first.frame, r_fused, resampled[0].masses.copy()\n"
        "        )\n",
        "",
        "fuse_grids",
    ),
    FastPath(
        "fold-flush",
        fusion._HeldRowFold,
        "add",
        "if n >= FOLD_SLICE:",
        "if False:",
        "fuse_grids",
    ),
    FastPath(
        "strided-2x2-merge",
        resample,
        "resample_layer",
        'elif delta == -1 and layer.type_name == "occupancy":',
        "elif False:",
        "resample_layer",
    ),
    FastPath(
        "multi-label-fold",
        sensors,
        "measurement_grid_semantic",
        "mixed = np.flatnonzero(np.count_nonzero(label_mass, axis=1) > 1)",
        "mixed = np.arange(len(label_mass))",
        "measurement_grid_semantic",
    ),
]


# -- capture ---------------------------------------------------------------------

# Layer name: (the bindings its callers call it through, the arguments a
# call keeps, or None to skip it, and a replay of a kept call). A replay
# gets fresh copies of what the call consumes.
LAYERS = {
    "traverse_rays": (
        [(sensors, "traverse_rays")],
        lambda a: a,
        lambda a: kernels.traverse_rays(*a),
    ),
    "simulate_lidar": (
        [(scenario, "simulate_lidar")],
        lambda a: (a[0], a[1], a[2], copy.deepcopy(a[3])),
        lambda a: scenario.simulate_lidar(a[0], a[1], a[2], copy.deepcopy(a[3])),
    ),
    "fuse_grids": (
        [(fusion, "fuse_grids")],
        lambda a: a[:2],
        lambda a: fusion.fuse_grids(a[0], a[1], ConflictCounter()),
    ),
    "resample_layer": (
        # Fusion merges the aged map's layers at a switch to a coarser
        # step; apply_requirements resamples the rest.
        [(fusion, "resample_layer"), (requirements, "resample_layer")],
        lambda a: (copy.deepcopy(a[0]), a[1]) if a[0].step != a[1] else None,
        lambda a: resample.resample_layer(*a),
    ),
    "measurement_grid_semantic": (
        [(scenario, "measurement_grid_semantic")],
        lambda a: a[:3],
        lambda a: sensors.measurement_grid_semantic(*a, ConflictCounter()),
    ),
}


def capture(workload, seed: int) -> dict[str, list]:
    """Every call's arguments, per layer, over one episode."""
    calls = {name: [] for name in LAYERS}
    saved = []
    for name, (bindings, keep, _) in LAYERS.items():
        for owner, attr in bindings:
            fn = owner.__dict__[attr]

            def recording(*args, _fn=fn, _calls=calls[name], _keep=keep):
                kept = _keep(args)
                if kept is not None:
                    _calls.append(kept)
                return _fn(*args)

            saved.append((owner, attr, fn))
            setattr(owner, attr, recording)
    try:
        run_scenario(*workload.scenario(seed))
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
    return calls


# -- replay ----------------------------------------------------------------------


def _bits(value):
    """A comparable form of any layer's result, float bits included."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if hasattr(value, "patches"):  # GridMap
        return tuple(
            (index, name, layer.step, _bits(layer.masses))
            for index, patch in sorted(value.patches.items())
            for name, layer in sorted(patch.layers.items())
        )
    if hasattr(value, "points"):  # PointCloud
        return (_bits(value.origin), _bits(value.points))
    if hasattr(value, "masses"):  # Layer
        return (value.type_name, value.step, _bits(value.masses))
    return value


def measure(path: FastPath, calls, rounds: int):
    """(ms per call with the branch, without it, rounds the branch won)."""
    call = LAYERS[path.layer][2]
    general = _rebuild(path.owner, path.attr, path.old, path.new)
    with _bound(path.owner, path.attr, general):
        without = [_bits(call(a)) for a in calls]
    if without != [_bits(call(a)) for a in calls]:
        raise SystemExit(f"{path.name}: the general path returns other bits")
    # Sides alternate call by call, each going first on every other call,
    # so the machine's drift and a warm cache favour neither.
    times = {True: [], False: []}
    for r in range(rounds):
        spent = {True: 0.0, False: 0.0}
        for i, args in enumerate(calls):
            for fast in (True, False) if (r + i) % 2 == 0 else (False, True):
                with nullcontext() if fast else _bound(path.owner, path.attr, general):
                    t0 = time.process_time()
                    call(args)
                    spent[fast] += time.process_time() - t0
        for fast, t in spent.items():
            times[fast].append(t)
    wins = sum(a < b for a, b in zip(times[True], times[False]))
    per_call = [1e3 * statistics.median(times[f]) / len(calls) for f in (True, False)]
    return per_call[0], per_call[1], wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--path", choices=[p.name for p in PATHS], action="append")
    args = parser.parse_args(argv)
    paths = [p for p in PATHS if args.path is None or p.name in args.path]
    print("path | workload | calls | ms/call with | without | rounds won")
    for name in args.workload or list(WORKLOADS):
        calls = capture(WORKLOADS[name], args.seed)
        for path in paths:
            if not calls[path.layer]:
                continue
            fast, slow, wins = measure(path, calls[path.layer], args.rounds)
            print(
                f"{path.name} | {name} | {len(calls[path.layer])} | {fast:.3f} | "
                f"{slow:.3f} | {wins}/{args.rounds}",
                flush=True,
            )
        del calls
    return 0


if __name__ == "__main__":
    sys.exit(main())
