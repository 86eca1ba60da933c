"""Host-speed calibration for the end-to-end throughput and set-up time.

The machine the benchmark was written on is shared with other tenants, and
its speed drifts by up to 2x in phases that last from seconds to minutes.
Timing the package alone cannot tell such a phase from a regression, so
every workload and set-up process also times a fixed task that never
touches the package, and the end-to-end times are scaled by
``REFERENCE_S / calibration time``: they read as if the host ran the task
in ``REFERENCE_S``.  A change to the package moves them in full; a phase
that slows the host slows the task too and cancels.

The task is interpreted float arithmetic and string formatting, the kind of
work the command line does for every row.  Of the tasks tried on the
reference host (this one, plain float loops, small and grid-sized numpy
calls, BLAS products, and mixes of them), it tracked the fast-phase
repetition time of all three workloads about as well as any, and it needs
nothing beyond the standard library.
"""

from __future__ import annotations

import math
import time

# The task's time (shortest of REPEATS) in the fast phases of the reference
# host: a 2-vCPU Intel Xeon virtual machine, Python 3.11.  Only a scale: it
# sets the units, not the ratio between two results.
REFERENCE_S = 0.010
REPEATS = 5


def _task() -> int:
    x = 0.0
    rows = []
    for i in range(8000):
        x = math.sin(x + i * 1e-3) + 0.5 * x
        rows.append(f"{i},{x!r},{x * x:.6g}")
    return len(",".join(rows))


def calibrate() -> float:
    """The shortest of REPEATS timed runs of the task, in seconds."""
    best = math.inf
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _task()
        best = min(best, time.perf_counter() - t0)
    return best
