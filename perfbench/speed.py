"""CPU-speed gauge used to normalize the end-to-end times.

On a shared host the speed of a virtual CPU drifts by up to 1.8x within
seconds, because other tenants contend for the physical core.  Steal
time stays near zero, so the drift shows in CPU time as well as in wall
time, and the virtual CPUs drift independently of each other.

While it is open, the gauge pins the calling thread to the CPU it is on
and runs a sampler thread pinned to the same CPU.  Every ``PERIOD_S`` the
sampler times a short calibration burst that mixes interpreter work and
small numpy calls, as the program's hot loops do.  A stretch of op time
is scaled to the reference speed with the bursts that ran inside it::

    normalized = measured * REFERENCE_S / mean(burst times in the stretch)

``REFERENCE_S`` is the burst's typical time on the machine the bounds
were set on (2 vCPUs of an Intel Xeon at 2.0 GHz), so normalized and
measured times agree there on average; both are printed.  The sampler
takes about 2% of the CPU from the ops, the same share on every commit.
"""

from __future__ import annotations

import bisect
import os
import threading
import time

import numpy as np

REFERENCE_S = 3.0e-4
PERIOD_S = 0.02
MIN_BURSTS = 5
_REPEATS = 6
_A = np.linspace(-1.0, 1.0, 24).reshape(8, 3)
_B = np.cos(_A)


def burst_s() -> float:
    """Seconds one calibration burst takes now."""
    t0 = time.perf_counter()
    for _ in range(_REPEATS):
        c = np.cross(_A, _B)
        d = c / np.sqrt(float(np.linalg.norm(c)))
        float(np.vdot(d, _A))
    return time.perf_counter() - t0


def _current_cpu():
    try:
        with open("/proc/thread-self/stat") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


class Gauge:
    """Context manager sampling this CPU's speed from a pinned thread."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self.cpu = None
        self._stop = threading.Event()
        self._thread = None
        self._affinity = None

    def __enter__(self):
        cpu = _current_cpu()
        if cpu is not None and hasattr(os, "sched_setaffinity"):
            self._affinity = os.sched_getaffinity(0)
            try:
                os.sched_setaffinity(0, {cpu})
                self.cpu = cpu
            except OSError:
                self._affinity = None
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()  # inherits this thread's CPU mask
        return self

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            start = time.perf_counter()
            duration = burst_s()
            self.durations.append(duration)
            self.starts.append(start)  # appended last: a start has a duration

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        if self._affinity is not None:
            os.sched_setaffinity(0, self._affinity)

    def factor(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean burst time in [t0, t1].

        Widens the stretch around its middle until it holds MIN_BURSTS.
        """
        n = len(self.starts)
        lo = bisect.bisect_left(self.starts, t0, 0, n)
        hi = bisect.bisect_right(self.starts, t1, 0, n)
        if hi - lo < MIN_BURSTS:
            mid = bisect.bisect_left(self.starts, (t0 + t1) / 2, 0, n)
            lo = max(0, min(mid - MIN_BURSTS // 2, n - MIN_BURSTS))
            hi = min(n, lo + MIN_BURSTS)
        chosen = self.durations[lo:hi] or [burst_s()]
        return REFERENCE_S * len(chosen) / sum(chosen)
