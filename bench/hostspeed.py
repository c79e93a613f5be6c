"""Host-speed sampler: a fixed reference kernel timed all through a run.

On a shared host the speed the worker gets drifts by 20-40% in phases that
last from seconds to minutes, longer than a run, so no statistic taken over
one run's passes alone is steady from run to run.  The sampler measures that
drift as it happens: a timer signal interrupts the worker every
``INTERVAL_S`` and runs ``kernel()`` twice, timing the second run.  The
kernel is a fixed mix of the kinds of work hurwitz does and never changes
with the program.  Work timed in units of the kernel's mean time over the
same stretch (``ref``) is then steady across host phases, and only changes
when the program does.  The first, untimed run matters: a kernel timed
straight after the workload evicted its caches slowed down by less than the
workload in slow phases, a warm one by about as much.

All time spent in the handler is kept in ``stolen``; ``clock()`` leaves it
out, so spans timed with it hold only the work they time.
"""

from __future__ import annotations

import cmath
import math
import signal
import time

import numpy as np

INTERVAL_S = 0.25

_RNG = np.random.default_rng(20050419)
_SYM = _RNG.standard_normal((8, 8))
_SYM = _SYM + _SYM.T


def _stencil(f, h: float) -> complex:
    return ((f(-2 * h) - f(2 * h)) + 8.0 * (f(h) - f(-h))) / (12.0 * h)


def kernel() -> None:
    """One fixed unit of reference work, about 7 ms on a 2-core VM.

    Scalar interpreter work with closures, as in the finite-difference
    stencils, and small-array numpy calls, as in the per-point algebra.
    """
    total = 0.0
    for k in range(1000):
        beta = 0.001 * k
        c, s = math.cos(beta), math.sin(beta)
        total += math.factorial(k % 7) * c ** 3 * s ** 2 / (1.0 + k)
        z = complex(c, s)
        total += abs(_stencil(lambda t: cmath.exp(1j * (beta + t)) * z, 1e-3))
    for _ in range(200):
        v = np.zeros(4, dtype=complex)
        v[1] = math.sin(total)
        total += float(np.abs(v @ v.conj()))
        total += float(np.linalg.eigvalsh(_SYM)[0])
    if not math.isfinite(total):
        raise RuntimeError("reference kernel diverged")


class HostSpeed:
    """Samples ``kernel()`` every ``INTERVAL_S`` while running."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()  # refills the caches the workload took; only the rerun is timed
        t1 = time.perf_counter()
        kernel()
        t2 = time.perf_counter()
        self.samples.append(t2 - t1)
        self.stolen += t2 - t0

    def start(self) -> None:
        if self._previous is None:
            for _ in range(5):  # warm caches and numpy's dispatch
                kernel()
            self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def pause(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def stop(self) -> None:
        self.pause()
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def clock(self) -> float:
        """``time.perf_counter()`` less the time spent in samples so far."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:  # no sample ran between the two reads
                return now - stolen

    def ref_s(self) -> float:
        """Mean kernel time over the samples taken so far."""
        if not self.samples:
            raise RuntimeError("no host-speed samples were taken")
        return sum(self.samples) / len(self.samples)
