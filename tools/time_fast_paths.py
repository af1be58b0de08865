"""Pair end-to-end perfbench runs with and without fast paths.

A fast path is a branch whose general path returns the same bits. README's
Fast paths rule keeps one only where alternating end-to-end pairs with and
without it resolve, and this script runs those pairs. It copies the
checkout's ``src/``, ``perfbench/``, ``tests/`` and ``pyproject.toml``
twice into a temporary directory and, in one copy, replaces the text of
each given branch with its general path. That copy must pass
``tests/test_golden.py`` before any run is timed, so an edit that changes
an output bit stops the script. Then, for ``--pairs`` consecutive seeds
from ``--seed``, it runs ``BENCHMARK.json``'s command once in each copy,
one run at a time; the copy with the branches goes first on even pairs:

    python3 tools/time_fast_paths.py --workload parking --path ray-prefilter
        [--path beam-window ...] [--pairs 5] [--seed 7]

The ``--path``s given are removed together, as a change that deletes
several branches is paired. For each end-to-end metric the script prints
both sides' runs, their medians and numpy linear quartiles, the parent's
IQR (the distance between its quartiles), the change of the median and
the pairs in which the side without the branches was worse, then the
rule's verdict on ``cycle_ms_p50`` and ``cycle_ms_tail``. The last line is
one JSON object in the layout of a ``BENCH_25.json``
``rows[*].workloads[*]`` entry. Any run that fails, is not correct or
reports failed cycles stops the script with that run's stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "perfbench", "tests", "pyproject.toml")
# The rule reads the cycle times. perfbench's peak_rss_mb is listed but not
# counted: a run keeps every episode's final map, so it grows with the
# episodes a side fits into the run (ROADMAP item 3).
TIMES = ("cycle_ms_p50", "cycle_ms_tail")
UNCOUNTED = ("peak_rss_mb",)
WORSE_SHARE = 0.8


@dataclass(frozen=True)
class FastPath:
    name: str  # as README's fast-path table gives it
    file: str  # relative to the checkout root
    old: str  # text of the branch; occurs once in the file
    new: str  # its replacement in the general path


PATHS = [
    FastPath(
        "ray-prefilter",
        "src/apgm/kernels.py",
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
    ),
    FastPath(
        "beam-window",
        "src/apgm/scenario.py",
        "first, count = _beam_windows(rel, vec, phi[order])",
        "first, count = np.zeros(len(rel), dtype=np.int64), np.full(len(rel), config.beams)",
    ),
    FastPath(
        "single-input-copy",
        "src/apgm/fusion.py",
        "        if len(resampled) == 1:\n"
        "            fused[i] = Layer(\n"
        "                first.type_name, first.frame, r_fused, resampled[0].masses.copy()\n"
        "            )\n"
        "            continue\n",
        "",
    ),
    FastPath(
        "strided-2x2-merge",
        "src/apgm/resample.py",
        'elif delta == -1 and layer.type_name == "occupancy":',
        "elif False:",
    ),
    FastPath(
        "multi-label-fold",
        "src/apgm/sensors.py",
        "mixed = np.flatnonzero(np.count_nonzero(label_mass, axis=1) > 1)",
        "mixed = np.arange(len(label_mass))",
    ),
    FastPath(
        "region-select",
        "src/apgm/world.py",
        "meets = ~((px.max() < left) | (px.min() >= right)"
        " | (py.max() < bottom) | (py.min() >= top))",
        "meets = np.ones(len(self.regions), dtype=bool)",
    ),
]


def compare(parent, without, better: str) -> dict:
    """One metric's runs on both sides, summarised as README's rule reads
    them: a side is worse in a pair when its run is worse in the metric's
    ``better`` direction, and the metric resolves when the side without the
    branches is worse in at least 80 % of the pairs and its median differs
    from the parent's by more than the parent's IQR."""
    p, w = np.asarray(parent, dtype=float), np.asarray(without, dtype=float)
    worse = int(np.count_nonzero(w > p if better == "lower" else w < p))
    p_median, w_median = float(np.median(p)), float(np.median(w))
    p_q, w_q = np.percentile(p, [25, 75]), np.percentile(w, [25, 75])
    iqr = float(p_q[1] - p_q[0])
    return {
        "parent": p.tolist(),
        "without": w.tolist(),
        "parent_median": p_median,
        "without_median": w_median,
        "parent_quartiles": p_q.tolist(),
        "without_quartiles": w_q.tolist(),
        "median_change_pct": 100 * (w_median - p_median) / p_median,
        "without_worse_pairs": f"{worse}/{len(p)}",
        "parent_iqr": iqr,
        "resolved": worse >= WORSE_SHARE * len(p) and abs(w_median - p_median) > iqr,
    }


def remove(paths: list[FastPath], copy: Path) -> None:
    """Write each path's general form over its branch in ``copy``."""
    for path in paths:
        file = copy / path.file
        text = file.read_text(encoding="utf-8")
        if text.count(path.old) != 1:
            sys.exit(f"{path.name}: the branch text does not occur once in {path.file}")
        file.write_text(text.replace(path.old, path.new), encoding="utf-8")


def _run(command: list[str], copy: Path, env: dict) -> dict:
    """The last stdout line of one perfbench run in ``copy``."""
    done = subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)
    result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else None
    if result is None or not result["correct"] or result["failed"]:
        sys.exit(f"{copy.name}: {' '.join(command)} failed\n{done.stderr}")
    return result


def _numbers(values) -> str:
    return " ".join(f"{v:.6g}" for v in values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in bench["workloads"]]
    )
    parser.add_argument(
        "--path", required=True, action="append", choices=[p.name for p in PATHS]
    )
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    seeds = [args.seed + i for i in range(args.pairs)]
    runs = {"parent": [], "without": []}
    first_side = []
    with tempfile.TemporaryDirectory() as scratch:
        copies = {side: Path(scratch, side) for side in runs}
        for copy in copies.values():
            for name in COPIED:
                if (ROOT / name).is_dir():
                    shutil.copytree(
                        ROOT / name,
                        copy / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"),
                    )
                else:
                    shutil.copy2(ROOT / name, copy / name)
        remove([p for p in PATHS if p.name in args.path], copies["without"])
        # The benchmark command's interpreter runs the golden drives too.
        done = subprocess.run(
            [bench["command"][0], "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "tests/test_golden.py"],
            cwd=copies["without"], env=env, capture_output=True, text=True,
        )
        if done.returncode:
            sys.exit(f"without {', '.join(args.path)} the golden drives differ\n{done.stdout}")
        print(f"without {', '.join(args.path)}: tests/test_golden.py passed", flush=True)
        for i, seed in enumerate(seeds):
            order = ("parent", "without") if i % 2 == 0 else ("without", "parent")
            first_side.append(order[0])
            command = [
                *bench["command"], "--workload", args.workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            for side in order:
                runs[side].append(_run(command, copies[side], env))
            p50 = {side: runs[side][-1]["metrics"]["cycle_ms_p50"]["value"] for side in runs}
            print(
                f"pair {i + 1}/{args.pairs} seed {seed}, {order[0]} first: cycle_ms_p50 "
                f"{p50['parent']:.6g} with, {p50['without']:.6g} without",
                flush=True,
            )

    metrics = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        stats = compare(
            [r["metrics"][name]["value"] for r in runs["parent"]],
            [r["metrics"][name]["value"] for r in runs["without"]],
            metric["better"],
        )
        resolved = stats.pop("resolved")
        if name in TIMES:
            stats["resolved"] = resolved
        if name in UNCOUNTED:
            stats["counted"] = False
        metrics[name] = {"unit": metric["unit"], **stats}
        print(
            f"{name} ({metric['unit']}, {metric['better']} is better)\n"
            f"  with    {_numbers(stats['parent'])}: median {stats['parent_median']:.6g}, "
            f"quartiles {_numbers(stats['parent_quartiles'])}, IQR {stats['parent_iqr']:.3g}\n"
            f"  without {_numbers(stats['without'])}: median {stats['without_median']:.6g}, "
            f"quartiles {_numbers(stats['without_quartiles'])}\n"
            f"  median change {stats['median_change_pct']:+.2f} %, without worse in "
            f"{stats['without_worse_pairs']} pairs"
            + (f", resolved: {resolved}" if name in TIMES else "")
            + (", not counted" if name in UNCOUNTED else "")
        )
    resolved_by = [name for name in TIMES if metrics[name]["resolved"]]
    print(
        f"verdict on {', '.join(TIMES)}: "
        + (f"the branches stay (resolved by {', '.join(resolved_by)})" if resolved_by
           else "not resolved; the branches go unless peak RSS at equal work resolves")
    )
    print(
        json.dumps(
            {
                "seeds": seeds,
                "first_side": first_side,
                "attempted_cycles": {s: [r["attempted"] for r in runs[s]] for s in runs},
                "failed": {s: sum(r["failed"] for r in runs[s]) for s in runs},
                "correct": True,
                "metrics": metrics,
                "resolved_by": resolved_by,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
