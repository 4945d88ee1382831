"""Core-speed calibration: a fixed kernel timed while the benchmark runs.

On a shared host the speed of the core this process runs on changes by up to
1.8x, for spans from under a second to tens of seconds.  Wall time still
equals CPU time, so the process is not descheduled; the core itself runs
slower, for example while other tenants load the hardware it shares.  A
run's median then depends on which speeds the run happened to meet.

So a fixed kernel (an einsum contraction, an FFT pair, an interpreter loop
and many calls on small arrays, the mix idrig's reports make, all with
preallocated outputs so it never allocates) is timed every
``INTERVAL`` seconds from a ``SIGALRM`` handler, in the middle of idrig's
work.  Each timed interval is rescaled to the speed at which the kernel takes
``REFERENCE_S``, using the kernel timings taken inside it and the nearest
one on each side; the handler's own time is subtracted first.  The rescaled
figure is still seconds of idrig work; what it removes is the speed of the
core, which no change to idrig can move.  The raw wall times are kept too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# one kernel run at the reference speed: a round figure inside the kernel's
# usual range, 4 to 7 ms, on a 2-core Xeon sandbox (OpenBLAS 0.3.31, numpy 2.4)
REFERENCE_S = 0.005
INTERVAL = 0.1


class CoreSpeed:
    """The calibration kernel, its inputs and outputs, and the samples taken of it."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((4, 4, 16, 24, 24))
        self._b = rng.standard_normal((4, 4, 16, 24, 24))
        self._out = np.empty_like(self._a)
        self._wave = self._a.astype(complex)
        self._spec = np.empty_like(self._wave)
        self._back = np.empty_like(self._wave)
        self._small = rng.standard_normal((2, 512))
        self._small_out = np.empty(512)
        self.starts = []        # perf_counter at each sample's start
        self.seconds = []       # each sample's duration
        for _ in range(3):      # the first runs touch the pages and plan the FFT
            self.kernel()

    def kernel(self):
        started = time.perf_counter()
        np.einsum("ab...,bc...->ac...", self._a, self._b, out=self._out)
        np.fft.fft(self._wave, axis=-1, out=self._spec)
        np.fft.ifft(self._spec, axis=-1, out=self._back)
        total = 0
        for i in range(20000):
            total += i * i
        x, y = self._small
        out = self._small_out
        for _ in range(200):
            np.multiply(x, y, out=out)
            np.add(out, x, out=out)
            np.sqrt(np.abs(out, out=out), out=out)
        return time.perf_counter() - started

    def sample(self):
        """Seconds the kernel takes now: the median of three runs."""
        return statistics.median(self.kernel() for _ in range(3))

    def _record(self, *_):
        started = time.perf_counter()
        self.kernel()
        self.starts.append(started)
        self.seconds.append(time.perf_counter() - started)

    def __enter__(self):
        self._record()
        self._previous = signal.signal(signal.SIGALRM, self._record)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._record()

    def rescale(self, start, end):
        """(busy, rescaled) seconds of the wall interval [start, end] sampled while entered.

        busy is the interval minus the samples taken inside it; rescaled is
        busy at the reference speed.
        """
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        busy = (end - start) - sum(self.seconds[lo:hi])
        near = self.seconds[max(lo - 1, 0):hi + 1]
        return busy, busy * REFERENCE_S / statistics.fmean(near)


def rescaled(seconds, before, after):
    """`seconds` measured between kernel timings `before` and `after`, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (before + after))
