#!/usr/bin/env python3
"""Record the output references the benchmark checks against.

Runs each workload's reference window at the reference seed and writes
the metrics-CSV digest and final-map mass sums to ``reference.json``.
Run it from the repository root, only on code whose outputs are known to
be right:

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from output_checks import REFERENCE_FILE, run_reference  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
WINDOW_CYCLES = 8
MASS_REL_TOL = 1e-6


def main() -> None:
    out = {}
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        for name, workload in WORKLOADS.items():
            digest, sums = run_reference(workload, SEED, WINDOW_CYCLES, Path(tmp))
            out[name] = {"csv_sha256": digest, "mass_sums": sums}
            print(name, digest, sums)
    REFERENCE_FILE.write_text(
        json.dumps(
            {
                "seed": SEED,
                "window_cycles": WINDOW_CYCLES,
                "mass_rel_tol": MASS_REL_TOL,
                "workloads": out,
            },
            indent=2,
        )
        + "\n"
    )


if __name__ == "__main__":
    main()
