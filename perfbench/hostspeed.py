"""Host-speed sampling, to report times at a fixed reference host speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.9x over
minutes and flickers within seconds (README.md, "Noise").  While a job runs,
a SIGALRM handler interrupts the process every ``PERIOD_S`` seconds, between
two bytecodes of whatever runs, and times a fixed micro-task.  A stretch of
wall time, minus the time the handler took in it, is scaled by
``NOMINAL_S`` over the mean micro-task seconds sampled in it: its length on a
reference host on which the micro-task takes ``NOMINAL_S``.

The micro-task calls nothing of phi4local: the handler may interrupt the
program anywhere, for example while it holds the symtree intern lock.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

import numpy as np

PERIOD_S = 0.2
# The micro-task: exact rational sums and dict updates, as in the algebra
# layers, and in-place numpy sweeps, as in the field layer.  NOMINAL_S is its
# time on the reference host (README.md, "Noise").
NOMINAL_S = 0.0024
PY_STEPS = 600
NP_SWEEPS = 60


class HostSpeed:
    """Samples of the micro-task's seconds, taken while the timer runs."""

    def __init__(self):
        # Made once and updated in place, so that the task's speed does not
        # depend on what the allocator holds after a job.
        grid = np.random.default_rng(0).standard_normal((64, 64))
        self._arrays = (grid, np.empty_like(grid), np.empty_like(grid))
        self.samples = []   # seconds of each micro-task
        self.spent = 0.0    # seconds spent in the handler

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self) -> int:
        """Start of a stretch, for ``scale``."""
        return len(self.samples)

    def scale(self, mark: int) -> float:
        """Factor from wall seconds to reference-host seconds over the
        stretch since ``mark``; a stretch without samples takes one now."""
        got = self.samples[mark:] or [self._task()]
        return NOMINAL_S / statistics.mean(got)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self._task())
        # Re-armed only now, so that handlers never nest.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        self.spent += time.perf_counter() - t0

    def _task(self) -> float:
        grid, x, y = self._arrays
        t0 = time.perf_counter()
        memo = {}
        acc = Fraction(0)
        for i in range(1, PY_STEPS):
            key = ((i * 7919) % 1009, i & 7)
            memo[key] = memo.get(key, 0) + i
            acc += Fraction(i % 17, i % 13 + 1)
        np.copyto(x, grid)
        for _ in range(NP_SWEEPS):
            np.add(x[:, ::-1], x[::-1, :], out=y)
            y *= 0.25
            x *= 0.5
            x += y
        return time.perf_counter() - t0
