"""Host-speed probe: one fixed computation, timed next to the ops.

On the shared 2-core machine this benchmark was built on, other tenants
cause phases, from seconds to minutes long, in which every memory-heavy
Python computation runs up to 1.8x slower; a whole run can fall inside one.
Raw op times then differ between runs of the same code by far more than any
useful regression bound.  The probe below (a shuffle of a 5000-element pool,
300 dense length-200 vectors scanned, a 3000-entry dict of tuple keys) is
timed between ops, and each op time is scaled by ``NOMINAL_MS`` over the
probe times around it: the result is the op time at the speed the host has
when the probe takes ``NOMINAL_MS``.  The probe is part of the benchmark,
not of the program, so a change to ``src/`` moves the scaled times exactly as
it moves the raw ones.  Never change the probe or ``NOMINAL_MS``: every
scaled figure is relative to them.
"""

from __future__ import annotations

import random
import time

NOMINAL_MS = 3.6  # probe time in a quiet phase of the 2-core machine


def _work() -> int:
    rng = random.Random(12345)
    pool = list(range(1, 5001))
    rng.shuffle(pool)
    hits = 0
    for vec in [[3] * 200 for _ in range(300)]:
        for i, t in enumerate(vec, 1):
            if t <= 1:
                hits += i
    table = {}
    for i in range(3000):
        table[(i % 7, i)] = i
    return hits + len(table) + pool[0]


def probe_ms() -> float:
    t0 = time.perf_counter_ns()
    _work()
    return (time.perf_counter_ns() - t0) / 1e6
