"""Machine-speed calibration for the benchmark's timings.

The machine the benchmark was tuned on is shared: over tens of seconds
the same cycle's CPU time moved by up to 1.8x with nothing else running in
the container, and the host takes CPU time away (steal). Timings are
therefore taken as process CPU time, which leaves out stolen time, and
scaled by a fixed calibration workload measured right after each sample:

    normalised = cpu_time * REFERENCE_S / calibration_time

The calibration is a fixed mix of interpreter and numpy work that does
not touch apgm, so a change to the library does not move it. A normalised
millisecond is a CPU millisecond on a machine where the calibration takes
``REFERENCE_S``; the raw figures are kept in each run's detail record.
"""

from __future__ import annotations

import time

import numpy as np

# About the calibration's CPU time on the tuning machine (2-core Xeon VM)
# when it was quiet; it only sets the scale of the normalised unit.
REFERENCE_S = 0.004

_ROWS = np.linspace(0.0, 1.0, 100_000).reshape(-1, 2)


def calibration_s() -> float:
    """Process CPU time (s) of one pass of the calibration workload."""
    t0 = time.process_time()
    acc = 0
    for i in range(16_000):  # interpreter loop, like the ray traversal
        acc += i * i
    x = _ROWS * 1.5  # numpy passes over narrow mass-like rows, like fusion
    y = (x * x).sum(axis=-1)
    (x / (y[:, None] + 1.0)).max()
    return time.process_time() - t0
