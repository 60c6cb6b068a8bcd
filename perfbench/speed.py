"""Host-speed gauge: fixed reference computations timed next to every call.

On a shared host the same code runs at different speeds from one moment to
the next.  On the 2-core host the benchmark was tuned on, speed switched
between two levels about 1.6x apart and stayed at one level for anything
from a second to several minutes, so a whole 30-second run could fall into
either; the median of a call over a run moved by 35-55% between runs.  The
gauge times a short fixed computation before the first call of a pass and
after every call.  A call's time divided by its pass's gauge level (the
median of those samples) stays put when the host switches level; multiplied
by the gauge's reference time it reads as seconds on that host at its
slower level.

Each part of the gauge stands for one kind of work cfmac does:

- ``interp``: an interpreter loop (argument handling, Python-level loops);
- ``small``: many numpy calls on tiny arrays (the solvers, the MI core);
- ``array``: a random gather from an 8 MB table (the simulation's big arrays).

Each workload mixes the three, and so does one gauge sample.  Over 45-second
windows of a recording of all three workloads on a host switching level,
the pass time spread (interquartile range over median) 10-16% between
windows as measured and 1.5-4% normalised by this gauge.  Single parts, or
mixes without the interpreter loop, did worse on at least one workload.
The gauge never calls cfmac, so a change to the program cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

# Time of one sample (all three parts) on the 2-core host the benchmark was
# tuned on, at its slower speed level.  A fixed constant: it only sets the
# scale, so that a normalised figure reads close to that host's seconds.
REFERENCE_S = 0.0030


class Gauge:
    """The reference computations, on arrays built once from a fixed seed."""

    def __init__(self):
        rng = np.random.default_rng(12345)
        self.table = rng.random(1 << 20)  # 8 MB, beyond the private caches
        self.index = rng.integers(0, self.table.size - 4, size=1 << 15)
        self.tiny = rng.random(8)

    def _interp(self) -> int:
        x = 0
        for i in range(12000):
            x += i * i & 1023
        return x

    def _small(self) -> float:
        v = self.tiny
        for _ in range(120):
            v = np.cumsum(v) / (1.0 + v.max())
        return float(v[0])

    def _array(self) -> float:
        return sum(float(self.table[self.index + k].sum()) for k in range(4))

    def sample(self) -> float:
        """Seconds for one run of the three parts now."""
        t0 = time.perf_counter()
        self._interp()
        self._small()
        self._array()
        return time.perf_counter() - t0
