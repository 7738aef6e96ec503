"""A fixed reference computation that reads the machine's current speed.

The benchmark shares its host with other tenants, and the host's speed
changes by a third for minutes at a time: every instruction, in wall and in
CPU time alike, gets slower. The kernel below runs the same mix the program
runs (interpreted loops over dicts and ints, small numpy matrix products and
comparisons) and never touches the program, so its time moves only with the
machine. run.py divides measured times by it.
"""

from __future__ import annotations

import time

import numpy as np

REPEATS = 3  # back-to-back runs per sample; the fastest counts


def _kernel() -> int:
    counts: dict[int, int] = {}
    acc = 0
    for i in range(2000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i * i % 13
        acc += len(str(i))
    a = np.arange(4096, dtype=np.int64).reshape(64, 64) % 7
    for _ in range(3):
        b = (a @ a) % 7
        mask = np.einsum("ij,jk->ik", a, b) % 7 == 0
        a = (a + mask) % 7
    return acc + int(a.sum()) + len(counts)


def sample() -> float:
    """Seconds of the fastest of REPEATS back-to-back kernel runs."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best
