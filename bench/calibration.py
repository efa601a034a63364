"""Host-speed calibration: reported times are scaled to a reference host.

The benchmark runs on a few cores of a shared host whose speed drifts by
tens of percent over seconds to minutes, for every kind of work alike:
interpreter start, Python bytecode and numpy kernels slow down together.
To measure the program rather than the host, a fixed kernel that never
touches salbound is timed throughout each run, and every operation's wall
time is scaled by REF_S over the median of the kernel samples taken near
it.  A reported second is therefore a second on a host on which the kernel
takes REF_S; the raw wall times are reported beside the scaled ones.

The kernel has three equal parts, so that no single kind of work sets the
scale: a Python loop that allocates nothing (a loop that allocates runs at
a speed that depends on the process's heap, not the host), a small matrix
product and a sort.  Each sample is the faster of two back-to-back passes,
so that caches left cold by the operation before it do not count.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

REF_S = 0.0035  # one kernel pass on the reference host
EVERY_S = 0.25  # at most one sample per this much wall time
WINDOW_S = 2.5  # samples within this distance of an operation set its scale
MIN_SAMPLES = 5  # at least this many nearest samples per scale

_SMALL_INTS = [i % 97 for i in range(4096)]  # cached ints: the loop allocates nothing
_MATRIX = np.random.default_rng(0).normal(size=(64, 64))
_VECTOR = np.random.default_rng(1).normal(size=20_000)


def kernel_seconds() -> float:
    """Wall time of one pass of the fixed calibration kernel."""
    start = time.perf_counter()
    s = 0
    for _ in range(15):
        for x in _SMALL_INTS:
            s ^= x
    for _ in range(120):
        np.dot(_MATRIX, _MATRIX)
    for _ in range(11):
        np.sort(_VECTOR)
    return time.perf_counter() - start


class Calibrator:
    """Calibration samples along a run, and the scale they give each moment."""

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        took = min(kernel_seconds(), kernel_seconds())
        self.at.append((start + time.perf_counter()) / 2)
        self.seconds.append(took)

    def maybe_sample(self) -> None:
        """Take a sample unless one was taken less than EVERY_S ago."""
        if not self.at or time.perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, at: float) -> float:
        """REF_S over the median kernel time of the samples nearest to ``at``."""
        lo = bisect.bisect_left(self.at, at - WINDOW_S)
        hi = bisect.bisect_right(self.at, at + WINDOW_S)
        while hi - lo < min(MIN_SAMPLES, len(self.at)):
            # widen towards the nearer side until enough samples are in
            if lo > 0 and (hi == len(self.at) or at - self.at[lo - 1] <= self.at[hi] - at):
                lo -= 1
            else:
                hi += 1
        return REF_S / statistics.median(self.seconds[lo:hi])
