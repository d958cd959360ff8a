"""Host-speed reference: a fixed kernel timed next to every timed command.

The benchmark runs on a few cores of a shared host.  The same command's
wall time drifts there by up to 2x over seconds to minutes as other
tenants come and go, and that drift is common to all code in the
process: a fixed kernel of interpreter and small-matrix work slows with
it.  So the benchmark times this kernel before and after each timed
command and reports times at the kernel's reference speed:

    scaled_s = wall_s * REFERENCE_S / kernel_s

``kernel_s`` is the mean of the kernel times just before and just after
the command, or the median of all the run's readings on a workload
whose calls do not follow the kernel from one reading to the next
(``Workload.host_scaling``).  A change in the program moves ``wall_s`` and not
``kernel_s``; a change in host load moves both.  The kernel uses only
the standard library and numpy, never the program, so no change to the
program can speed it up or slow it down, unless the program leaves
threads running between commands.  The raw wall times are printed
next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Kernel seconds that scaled times are expressed at: about its median on
#: the 2-vCPU host the benchmark was written on (numpy 2, OpenBLAS 0.3).
REFERENCE_S = 0.010

#: Kernel repeats per reading; the median drops a single interruption.
REPEATS = 3

_RNG = np.random.default_rng(0)
_M = _RNG.standard_normal((60, 60))
_M = _M @ _M.T + 60.0 * np.eye(60)


def _kernel() -> float:
    start = time.perf_counter()
    s = 0.0
    for i in range(60000):
        s += (i % 7) * 0.5
    for _ in range(60):
        np.linalg.solve(_M, _M[:, :8])
        np.linalg.eigvalsh(_M[:20, :20])
    return time.perf_counter() - start


def kernel_seconds() -> float:
    """Seconds of one kernel run now: the median of REPEATS runs."""
    return statistics.median(_kernel() for _ in range(REPEATS))


def scaled(wall_s: float, kernel_s: float) -> float:
    return wall_s * REFERENCE_S / kernel_s
