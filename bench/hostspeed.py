"""A fixed reference kernel that measures how fast the host runs now.

The benchmark's host is a share of a busy machine: the same fixed
loop runs up to 2x slower from one second to the next, and its speed
drifts by about 20% over tens of minutes.  CPU time moves with wall
time, so the slowdowns are the host's, not scheduling.  To keep those
swings out of the figures, a worker times this kernel next to every op
(one trial or one threshold search) and scales the op's time by
``REF_S / t_ref``, where ``t_ref`` is the kernel's time at the op's
ends.  A scaled time is the op's time on a host where the kernel takes
``REF_S``, a speed within the range of the machine the benchmark was
written on, so scaled and raw figures are of one size.

The kernel mixes interpreted Python (dict lookups and int arithmetic)
with numpy fancy indexing and bitwise ops on 30,000-element arrays,
the two kinds of work the decoder and the density evolution are made
of.  It calls nothing of pecldpc, so a change to the package cannot
speed it up or slow it down.
"""

from __future__ import annotations

import statistics
import time

# a round figure near the time of one reference() call on a 2-core
# Intel Xeon VM (Python 3.11.7, numpy 2.4.6), which takes 3 to 5 ms
# there as the host's speed swings
REF_S = 0.0050


class Reference:
    def __init__(self):
        # numpy is imported here, not at module level: the worker imports
        # this module before set-up, whose time includes numpy's import
        import numpy as np

        self._or = np.bitwise_or
        rng = np.random.default_rng(0)
        self._a = rng.integers(0, 16, 30_000)
        self._b = rng.integers(0, 16, 30_000)
        self._table = rng.integers(0, 1 << 16, (16, 16))
        self._dict = {i: i * 3 for i in range(256)}
        self()  # first call pays numpy's one-off costs

    def __call__(self) -> float:
        """Run the kernel once; return its wall time in seconds."""
        t0 = time.perf_counter()
        d, s = self._dict, 0
        for i in range(15_000):
            s += d[i & 255] ^ (i >> 2)
        a, b, table = self._a, self._b, self._table
        for _ in range(5):
            m = table[a, b] & table[b, a]
            s += int(self._or.reduce(m[:100]))
        return time.perf_counter() - t0

    def median(self, k: int) -> float:
        """Median of k calls."""
        return statistics.median(self() for _ in range(k))


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """An interval's time at the reference speed, from the kernel's
    times just before and just after it.  It takes the faster of the
    two: an interruption only ever slows one kernel call down."""
    return seconds * REF_S / min(ref_before, ref_after)
