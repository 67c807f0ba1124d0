"""Timing that follows the program, not the neighbours' load.

On a shared machine one CPU's speed changes from second to second: on a
2-core Intel Xeon virtual machine shared with other tenants, a fixed
kernel switches between two speeds 1.7x apart, in phases of 0.1 s to
20 s, and the share of slow phases differs from one minute to the next.
No number of iterations averages that away: the median wall time of a
30-second run of ``pde_oracle`` varied by 24% (interquartile range over
median) between runs.

``SpeedSampler`` runs a fixed pure-Python kernel from a SIGALRM timer every
``INTERVAL`` seconds and records how long it took.  An interval's wall time
times ``REFERENCE_KERNEL_S`` over the median kernel time during it is that
interval in reference seconds: seconds on a core where the kernel takes
``REFERENCE_KERNEL_S``, about its time on an idle core of that machine.

Python runs the handler between bytecodes, typically just after a long
numpy call has pushed the interpreter's data out of the caches, so a
kernel timed straight away runs slower after a memory-heavy call than
after a light one: 1.16x to 1.32x its steady time, depending on the
workload.  Each tick therefore runs the kernel once untimed and times a
second run, which then depends on the core's speed and not on the
program's memory footprint.  ``neutrality.py`` checks this.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL = 0.01
REFERENCE_KERNEL_S = 50e-6


def kernel() -> float:
    x = 0.0
    for k in range(400):
        x += math.erfc(k * 1e-3) * (k & 7)
    return x


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class SpeedSampler:
    """Context manager; ``durations`` holds one kernel time per tick."""

    def __init__(self):
        self.durations = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        kernel()  # refills the caches the program's last call evicted
        self.durations.append(time_kernel())

    def __enter__(self):
        kernel()  # the first call pays one-time interpreter costs
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.durations)

    def reference_seconds(self, seconds: float, mark: int) -> float:
        """``seconds`` measured since ``mark``, in reference seconds (one
        fresh kernel timing if the interval was too short for a tick)."""
        kernel_s = statistics.median(self.durations[mark:] or [time_kernel()])
        return seconds * REFERENCE_KERNEL_S / kernel_s
