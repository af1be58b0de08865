#!/usr/bin/env python3
"""Scenario-cycle benchmark for apgm.

Run from the root of a checkout; it imports the library from ``src/``:

    python3 perfbench/run.py --workload parking --seed 1 --seconds 36 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a traced run. Each metric is printed by name with its unit; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The full result,
with the environment record and (traced) the spans, is written to
``.perfbench_out/`` in the checkout. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"


BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_blas_threads() -> None:
    # Must run before numpy is imported to take effect.
    n = str(len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = n


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cycles", type=int, default=None,
        help="cycles per episode (default: the workload's); for quick checks",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "apgm" / "__init__.py").is_file():
        print(f"no library source at {ROOT / 'src' / 'apgm'}", file=sys.stderr)
        return 2
    _cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))

    import apgm
    import cycle_bench
    from workloads import WORKLOADS

    if Path(apgm.__file__).resolve().parent != ROOT / "src" / "apgm":
        print(f"imported apgm from {apgm.__file__}, not the checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as scratch:
        outcome = cycle_bench.run_benchmark(
            workload, args.seed, args.seconds, bool(args.trace), ROOT,
            Path(scratch), cycles=args.cycles,
        )
    env = cycle_bench.environment(args.seed)
    env["blas_threads"] = {var: os.environ[var] for var in BLAS_VARS}
    record = {
        "workload": workload.name,
        "trace": args.trace,
        "env": env,
        "detail": outcome.detail,
        "problems": outcome.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in outcome.metrics.items()},
    }
    if outcome.spans is not None:
        record["span_fields"] = ["name", "start_ms", "end_ms", "parent", "cycle"]
        record["spans"] = outcome.spans
    out_file = OUT_DIR / f"{workload.name}_seed{args.seed}_trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    for name, (value, unit) in outcome.metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    for problem in outcome.problems:
        print(f"problem: {problem}")
    print("env " + json.dumps(env))
    print(
        f"detail episodes={outcome.detail['episodes']} "
        f"timed_cycles={outcome.detail['timed_cycles']} "
        f"tail=p{outcome.detail['tail_percentile']} written={out_file.relative_to(ROOT)}"
    )
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": record["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
