"""Per-cycle digests of the live map over four fixed drives.

Each drive runs 36 cycles at lidar seed 3 with the timing column off and
records a SHA-256 of every cycle's live map (patches in sorted order;
per patch its layers by type name, with step and raw mass bytes) and of
the metrics CSV. ``test_golden.py`` compares a fresh run against the
recorded file, so a change that should keep every output bit for bit can
be checked without running the previous code.

Recording adds only the drives the file does not hold yet and leaves every
entry it holds as it is; to re-record a drive whose outputs are meant to
change, delete its entry first. Record (from the repository root, with the
code whose outputs are the reference on the path):

    PYTHONPATH=src python3 tests/record_golden.py tests/golden_digests.json
"""

from __future__ import annotations

import hashlib
import json
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np

from apgm import (
    GridConfig,
    ScenarioConfig,
    ScenarioScript,
    default_world,
    run_scenario,
    write_metrics,
)

SEED = 3
CYCLES = 36
CYCLE_S = 0.1
# Default-script poses: 2 m/s out of the first lot, 13.3 m/s down the
# corridor from x = 30 m, into the second lot.
_ROUTE = [
    (0.0, 0.0, 0.0, 0.0),
    (15.0, 30.0, 0.0, 0.0),
    (45.0, 430.0, 0.0, 0.0),
    (60.0, 460.0, 0.0, 0.0),
]
_TOGGLING = [(round(3 * j * CYCLE_S, 9), ("parking", "road")[j % 2]) for j in range(12)]
# name: (keyframes, mode times, grid datum)
DRIVES = {
    "parking": (_ROUTE[:2], [(0.0, "parking")], (0.0, 0.0)),
    "road": (
        [(0.0, 30.0, 0.0, 0.0), (30.0, 430.0, 0.0, 0.0)],
        [(0.0, "road")],
        (0.0, 0.0),
    ),
    # Parking and road alternate every 3 cycles: cull, resample, re-allocate.
    "toggling": (_ROUTE, _TOGGLING, (0.0, 0.0)),
    # The same on patches anchored away from the origin: builder windows,
    # patch indices, culling and the uniform reference at a datum.
    "toggling_datum": (_ROUTE, _TOGGLING, (6.4, -3.2)),
}


def map_digest(grid) -> str:
    h = hashlib.sha256()
    for index in sorted(grid.patches):
        layers = grid.patches[index].layers
        h.update(struct.pack("<qqI", index[0], index[1], len(layers)))
        for name in sorted(layers):
            layer = layers[name]
            h.update(name.encode("utf-8") + struct.pack("<I", layer.step))
            h.update(np.ascontiguousarray(layer.masses, dtype="<f4").tobytes())
    return h.hexdigest()


def drive_digests(name: str) -> dict:
    """{"maps": [one digest per cycle], "csv_sha256": digest} for a drive."""
    keyframes, mode_times, datum = DRIVES[name]
    script = ScenarioScript(list(keyframes), list(mode_times), CYCLES * CYCLE_S, CYCLE_S)
    config = ScenarioConfig(GridConfig(datum=datum), seed=SEED, measure_timing=False)
    maps: list[str] = []

    def on_cycle(record, grid, profile):
        maps.append(map_digest(grid))

    result = run_scenario(script, default_world(), config, on_cycle=on_cycle)
    with tempfile.TemporaryDirectory() as tmp:
        csv = write_metrics(result.records, Path(tmp) / "metrics.csv").read_bytes()
    return {"maps": maps, "csv_sha256": hashlib.sha256(csv).hexdigest()}


def main(out: str) -> None:
    """Add the drives missing from ``out``; never rewrite an entry in it."""
    path = Path(out)
    record = {"seed": SEED, "cycles": CYCLES, "drives": {}}
    if path.exists():
        record = json.loads(path.read_text())
        if (record["seed"], record["cycles"]) != (SEED, CYCLES):
            raise SystemExit(
                f"{out} holds seed {record['seed']}, {record['cycles']} cycles; "
                f"this recorder runs seed {SEED}, {CYCLES} cycles"
            )
    missing = [name for name in DRIVES if name not in record["drives"]]
    if not missing:
        return
    for name in missing:
        record["drives"][name] = drive_digests(name)
    path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    default = Path(__file__).with_name("golden_digests.json")
    main(sys.argv[1] if len(sys.argv) > 1 else str(default))
