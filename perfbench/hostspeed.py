"""Host speed, measured with a fixed kernel that does not touch cavscreen.

The benchmark runs on a few cores of a shared host.  Neighbours on that
host slow every instruction down, for seconds to minutes at a time: the
same work can take 1.8 times as long at one moment as at another, and
that spread swamps the differences between commits the benchmark exists
to show.  So every time the benchmark reports is scaled to a host of
fixed speed: a time ``t`` measured while one pass of ``Kernel`` took
``k`` seconds is reported as ``t * REFERENCE_S / k``.  The kernel mixes
the kinds of work cavscreen's layers do: interpreted Python, dense BLAS,
streaming memory traffic, scattered reads from a table larger than a
core's caches, and a fixed HiGHS linear program shaped like the
concavification LP.  The LP matters most: HiGHS code slows about twice
as much as the rest in a slow spell, so a kernel without it leaves the
LP-bound operations half corrected.

The kernel and ``REFERENCE_S`` are part of the benchmark's definition;
changing either changes every time it reports.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.optimize import linprog

# Seconds one kernel pass is taken to last on the reference host; about
# its time between operations on a 2-vCPU x86_64 cloud host (Python 3.11,
# numpy 2.4, one BLAS thread).
REFERENCE_S = 0.040
# Seconds of operation time between two kernel passes in a timed run.
EVERY_S = 0.2
# Kernel passes whose median scales one operation: those nearest to it.
NEAREST = 9


class Kernel:
    """One call runs the kernel once and returns its duration in seconds."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.random((160, 160))
        self._src = rng.random(500_000)
        self._dst = np.empty_like(self._src)
        self._table = rng.random(2_000_000)
        self._rows = rng.integers(0, len(self._table), 300_000)
        # Weights on 2,000 points of the 4-state simplex that maximise a
        # fixed payoff and average to a fixed belief, as in concavification.
        self._points = rng.dirichlet(np.ones(4), size=2_000)
        self._payoff = 0.3 * (self._points * np.log(self._points)).sum(axis=1)
        self._payoff += self._points.max(axis=1)
        self._belief = np.array([0.1, 0.2, 0.3, 0.4])
        assert self._solve().status == 0

    def _solve(self):
        return linprog(-self._payoff, A_eq=self._points.T, b_eq=self._belief, bounds=(0, None),
                       method="highs")

    def __call__(self) -> float:
        start = time.perf_counter()
        s = 0
        for i in range(60_000):
            s += i * i
        for _ in range(12):
            self._a @ self._a
        for _ in range(12):
            np.copyto(self._dst, self._src)
        self._table.take(self._rows)
        self._solve()
        return time.perf_counter() - start


def scale(times, stamps, samples) -> list[float]:
    """Each time in ``times`` at reference speed.

    ``stamps`` are the ``time.perf_counter()`` readings at the middle of
    each measured interval; ``samples`` are ``(stamp, kernel seconds)``
    pairs from the same clock.  A time is scaled by the median of the
    NEAREST kernel passes closest to it in time.
    """
    marks = np.array([s for s, _ in samples])
    kernel = [k for _, k in samples]
    out = []
    for t, stamp in zip(times, stamps):
        near = np.argsort(np.abs(marks - stamp), kind="stable")[:NEAREST]
        out.append(t * REFERENCE_S / statistics.median(kernel[i] for i in near))
    return out
