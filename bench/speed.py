"""A fixed reference workload that tracks the machine's current speed.

On a shared host the speed of the benchmark's cores drifts by up to 40% over
minutes, with other tenants' load, in CPU time as much as in wall time.  A
closed loop cannot average that out within one run.  So the loop runs
``reference()`` before every operation, outside the timed region, and the
operations' times are scaled by ``NOMINAL_S`` over the reference time
measured around them: they read as seconds on the machine at its nominal
speed.
The reference runs right after an operation, on caches that operation
left, like the next one; three references in a row tracked the program's
speed worse, as the second and third find their data cached.

The reference is exact ``Fraction`` arithmetic over a few MB of scattered
objects, the kind of work fairmix's exact LP and argmax do, written with the
standard library only, so no change to fairmix changes it.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

# About the median reference time, between operations, on a 2-vCPU Xeon
# (2.1 GHz) with Python 3.11 in a calm spell of its host.  It only sets the
# scale of the scaled times; the reference itself took 1.4-2.2 ms there.
NOMINAL_S = 0.0015
# A time is scaled by the median of the references of the WINDOW operations
# on each side of it, and of its own: one reference is itself noisy.
WINDOW = 4

_rng = random.Random("reference")
_VALUES = [Fraction(_rng.randint(1, 10**6), _rng.randint(1, 10**4)) for _ in range(16384)]
_PICKS = [_rng.randrange(1, len(_VALUES)) for _ in range(250)]
_EXPECTED = sum(_VALUES[j] * _VALUES[j - 1] for j in _PICKS)


def reference():
    """Wall time of the fixed reference workload, with the garbage collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        values, total = _VALUES, 0
        start = time.perf_counter()
        for j in _PICKS:
            total += values[j] * values[j - 1]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total != _EXPECTED:
        raise RuntimeError("the speed reference computed a wrong sum")
    return elapsed


def scaled(times, references):
    """Each time at the nominal speed, from the references taken before each one."""
    out = []
    for i, t in enumerate(times):
        local = statistics.median(references[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(t * NOMINAL_S / local)
    return out
