"""Host speed, measured by a fixed reference computation beside the workload.

The benchmark shares its machine with other tenants.  Their load slows
every computation on it, by up to ~1.7x, in stretches that last from
seconds to minutes, so two runs of the same code a minute apart can
differ by more than any bound worth gating on.  The end-to-end timings
are therefore reported in *reference seconds*: wall seconds multiplied by
the host's speed at the time, measured by timing ``_reference`` (numpy
and interpreter work, like the workloads) right before and after each
measurement window.  ``REFERENCE_RATE`` is the reference's rate on an
idle core of the 2-core x86-64 container the benchmark was calibrated on,
so there one reference second is one second.  The reference is part of
the benchmark, not of the program, so no change to the program moves it.
"""

from __future__ import annotations

import time

import numpy as np

__all__ = ["REFERENCE_RATE", "speed"]

#: Reference computations per second on an idle core (see module doc).
REFERENCE_RATE = 4500.0

_ARRAY = np.random.default_rng(0).random(16384)


class _Counter:
    def __init__(self):
        self.table: dict = {}

    def add(self, key: int, value: int) -> None:
        self.table[key] = self.table.get(key, 0) + value


def _reference() -> dict:
    np.sort(_ARRAY)
    counter = _Counter()
    for i in range(1000):
        counter.add(i & 63, i)
    return counter.table


#: Reference computations per speed reading.
REPEATS = 4


def speed() -> float:
    """The host's current speed relative to ``REFERENCE_RATE`` (1.0 on an
    idle core, lower while other tenants load the machine)."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _reference()
    return REPEATS / (time.perf_counter() - start) / REFERENCE_RATE
