"""Calibration: how long this machine takes, right now, for a fixed Python loop.

Both the parent and the measuring child time it, and run.py rescales every
reported time by it, because the speed of a shared machine drifts by tens
of percent over minutes.  It allocates nothing, so it cannot raise a
child's peak RSS.
"""
from __future__ import annotations

import time

LOOP = 1_000_000


def calibrate():
    """Median seconds of three runs of the loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(LOOP):
            total += i * i
        times.append(time.perf_counter() - start)
    return sorted(times)[1]
