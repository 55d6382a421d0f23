"""How fast the host runs Python right now, from a fixed calibration loop.

The shared hosts this benchmark runs on change speed by up to 1.5x, per
core, second by second and from one minute to the next; a run can spend
all its time in the slow state.  The workloads therefore time a fixed
pure-Python loop every few items (before every submission, on
``corpus-engine``) and scale their times by ``REFERENCE_MS /
calibration``: the time on a host where the loop takes
``REFERENCE_MS``.  A change to the program moves the timed work and not
the loop, so it shows in full.

The loop mixes what the interpreter spends the campaigns' time on —
calls, attribute and dict reads, integer arithmetic, branches — and
allocates no container, so it never triggers a collection that would
walk the program's heap; the collector is paused around it all the same.
"""

from __future__ import annotations

import gc
import time

#: Calibration time (ms) of the reference host the scaled times refer to.
REFERENCE_MS = 0.1

_clock = time.perf_counter
_ROUNDS = 600


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 1


_CELL = _Cell()
_TABLE = {i: i * 3 for i in range(64)}


def _step(cell, table, i):
    value = table[i & 63] + cell.value
    if value & 1:
        return value >> 1
    return value * 3


def scaled(elapsed: float, calibration: float) -> float:
    """``elapsed`` at reference host speed, given the calibration (ms)
    taken just before it; ``elapsed`` keeps its unit."""
    return elapsed * REFERENCE_MS / calibration


def calibration_ms() -> float:
    """Time (ms) of one pass of the calibration loop."""
    cell, table, step = _CELL, _TABLE, _step
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = _clock()
        total = 0
        for i in range(_ROUNDS):
            total += step(cell, table, i)
        return (_clock() - start) * 1e3
    finally:
        if enabled:
            gc.enable()
