"""Machine speed, measured with a fixed reference kernel during a run.

On a shared machine, other tenants slow every instruction by up to 1.8x for
minutes at a time, so raw timings of one commit spread by 30-60% between
runs.  The benchmark therefore times a fixed kernel, which never calls the
library, on a timer throughout a run, and reports every time scaled by
``REFERENCE_S / kernel time``: seconds at the reference speed.  The run
record keeps the raw times and every kernel sample.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

#: seconds between kernel samples, and the half-width of the window of
#: samples averaged for one measurement; the machine switches between a fast
#: and a slow state every 50-300 ms, so one sample is a poor estimate
SAMPLE_EVERY_S = 0.25
WINDOW_S = 2.0


_ARRAY = np.arange(2048)


def kernel() -> None:
    """Interpreter work, small-array numpy calls and big-integer arithmetic,
    the three kinds of work the workloads do.  It allocates almost no
    objects that the cyclic garbage collector tracks, so collections do not
    time it."""
    table = list(range(4096))
    out = []
    for i in range(20_000):
        j = table[(i * 7919) & 4095]
        if j & 1:
            out.append(j)
    y = _ARRAY.copy()
    for _ in range(200):
        y[(y & 3) == 1] += 1
    v = 3 ** 3000
    acc = 0
    for i in range(2000):
        acc = (acc + v * i) % (v * 13)


#: the kernel's time in the fast state of the machine that defined the
#: benchmark (an Intel Xeon 2-vCPU VM, Python 3.11.7, numpy 2.4.6); a
#: constant, so scaled times of different runs and commits compare
REFERENCE_S = 0.006


class Speed:
    """Kernel timings through a run.

    Inside ``sampling()`` a wall-clock timer runs the kernel every
    SAMPLE_EVERY_S seconds, also in the middle of a long library call, so
    every measurement has samples around it.  ``clock()`` is a clock that
    stops while the kernel runs, so measurements leave the kernel out.
    """

    def __init__(self) -> None:
        self.points: list[tuple[float, float]] = []
        self.spent = 0.0

    def sample(self, *_signal) -> None:
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        self.points.append((t1, t1 - t0))
        self.spent += t1 - t0

    def clock(self) -> float:
        return perf_counter() - self.spent

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken from
        WINDOW_S before ``start`` to WINDOW_S after ``end``."""
        near = [k for t, k in self.points if start - WINDOW_S <= t <= end + WINDOW_S]
        return REFERENCE_S / statistics.mean(near)
