"""Job times in units of a reference computation timed during the job.

The benchmark's host shares its cores with other work.  A core switches,
many times a minute, between running at full speed and running at a half
to two thirds of it, and in some minutes it never reaches full speed; the
same job's wall time differs by a factor of two from one run to the next,
and process time equals wall time, so neither clock separates the program
from the host.  The sampler below measures the core's speed while a job
runs.  Every ``INTERVAL_S`` of the process's CPU time a ``SIGPROF`` handler
runs ``reference()``, a fixed exact elimination in ``Fraction`` arithmetic
like the library's own, and times it.  Between two samples the job does
about ``1 / t`` references' worth of work per second, where ``t`` is the
time one reference took there; so the job's time in ``ref`` units is its
wall time, less the time spent in the handler, times the mean of ``1 / t``
over its samples.  The host's speed cancels; the program's does not, since
the reference never calls the library.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.01  # CPU time between samples; one sample takes about 0.7 ms
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 + 13 * (i == j), j + 2) for j in range(6)]
           for i in range(6)]


def reference() -> Fraction:
    """Determinant of a fixed 6x6 rational matrix by exact elimination."""
    a = [row[:] for row in _MATRIX]
    det = Fraction(1)
    for c in range(len(a)):
        pivot = a[c][c]
        det *= pivot
        for r in range(c + 1, len(a)):
            f = a[r][c] / pivot
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


class RefClock:
    """Samples ``reference()`` while started; see the module docstring."""

    def __init__(self):
        self.samples: list[float] = []
        self.means: list[float] = []  # time of one reference, per job (harmonic mean)
        signal.signal(signal.SIGPROF, self._sample)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        self.samples = []
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        if not self.samples:  # a job too short to be sampled: take one sample at its end
            self._sample(None, None)
        self.means.append(statistics.harmonic_mean(self.samples))

    def refs(self, wall_s: float) -> float:
        """The last job's time in refs, from a wall time that includes every sample."""
        return (wall_s - sum(self.samples)) / self.means[-1]
