"""Host-speed reference: a fixed kernel timed between benchmark passes.

The benchmark runs on shared virtual machines whose speed drifts by up to
1.8x over tens of seconds (the same pass, in the same process, has taken
2.8 s and 5.1 s of user time).  ``kernel`` is a fixed piece of work with
knnlab's mix of interpreter-bound loops over lists and dicts and small
NumPy calls; it does not import knnlab, so changes to the program do not
change it.  ``reference_s`` times it repeatedly for a short while and
returns the median call time.  Dividing a pass's wall time by the reference
taken just before and just after it gives the pass time in kernel units,
which follows the program's speed but not the host's.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20240601)
_PTS = _RNG.random((600, 2))
_KEYS = [(int(x * 40), int(y * 40)) for x, y in _PTS]


def kernel() -> float:
    """One fixed unit of work (about 10-20 ms on a 2-vCPU VM)."""
    parent = list(range(3000))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(1, 3000):
        ra, rb = find(i), find((i * 7919) % 3000)
        if ra != rb:
            parent[ra] = rb
    cells = {}
    for idx, key in enumerate(_KEYS):
        cells.setdefault(key, []).append(idx)
    best = 0.0
    for i in range(0, 600, 60):
        diff = _PTS[i:i + 60, None, :] - _PTS[None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = max(best, float(d2.max()))
        np.partition(d2, 5, axis=1)
        np.lexsort((d2[0], d2[1]))
    return best + len(cells)


def reference_s(seconds: float = 0.5) -> float:
    """Median time of one ``kernel`` call, over about ``seconds`` of calls."""
    times = []
    end = time.perf_counter() + seconds
    while len(times) < 3 or time.perf_counter() < end:
        t0 = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
