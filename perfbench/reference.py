"""A fixed reference computation that reads the machine's current speed.

On a shared host the same code can run at half speed, for seconds or for
minutes at a time.  The benchmark times this kernel between ops (and in
every set-up interpreter) and reports each time scaled by ``factor`` of the
kernel time around it: seconds on the machine at its nominal speed.  The kernel does the
kind of work greenlab's panel loop does -- small numpy evaluations, a dot
product, a heap -- and uses nothing from greenlab, so no change to the
program moves it.
"""

from __future__ import annotations

import heapq
import math
from time import perf_counter

import numpy as np

NOMINAL_S = 0.00095      # fastest kernel time on the machine named in README.md
REPEATS = 2
STEPS = 400
# A slow stretch slows this kernel more than it slows greenlab: over eight
# recorded 30-s runs of verify-all, half of them slow, scaling each check by
# the EXPONENT-th power of the kernel's slowdown left the least spread
# (0.85: 4%; 1.0: 10%).
EXPONENT = 0.85

_NODES = np.linspace(-0.99, 0.99, 15)
_WEIGHTS = np.full(15, 2.0 / 15)
_BUF = np.empty(15)


def _kernel(steps: int = STEPS) -> float:
    # numpy writes into one buffer: where fresh temporaries land in memory
    # changes their speed, and the kernel must not depend on that
    heap: list[tuple[float, int]] = []
    total = 0.0
    for i in range(steps):
        np.multiply(_NODES, 1.0 + i * 1e-9, out=_BUF)
        np.abs(_BUF, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
        v = float(np.dot(_WEIGHTS, _BUF))
        heapq.heappush(heap, (-v, i))
        if len(heap) > 8:
            heapq.heappop(heap)
        total += math.log1p(v)
    return total


def fastest(repeats: int = REPEATS) -> float:
    """Seconds of the fastest of ``repeats`` kernel runs."""
    best = math.inf
    for _ in range(repeats):
        t = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t)
    return best


def factor(kernel_s: float) -> float:
    """Factor from seconds timed next to a kernel run of ``kernel_s`` to
    seconds at nominal speed."""
    return (NOMINAL_S / kernel_s) ** EXPONENT
