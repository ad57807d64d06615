"""Host-speed probe: scales measured computing time to a reference speed.

On a shared host the same code runs up to about twice as fast in one
minute as in another, in phases that last from seconds to minutes, so
that raw times of runs made a few minutes apart disagree more than any
regression a benchmark should catch.  The probe is a fixed loop of
interpreter work that uses nothing of the package.  The runner times it
between chunks of work, at least every ``PROBE_EVERY_S`` seconds, and
scales the computing time of the work between two probes by

    REFERENCE_S / (mean of the two probe times)

so a time is reported as it would read with the probe at
``REFERENCE_S``.  The probe keeps none of the objects it makes and runs
with the cyclic collector off, so the package's heap does not change its
time; only the host's speed does.  A later change of the package moves the
scaled times as it moves the raw ones; only the host's phases cancel.
"""

import gc
import time

REFERENCE_S = 0.006      # the probe's time on the host the baseline was measured on
PROBE_EVERY_S = 0.5
_REPEATS = 3


def _probe_once():
    """Integer arithmetic and dict stores, then short-lived tuples, lists and strings."""
    t0 = time.perf_counter()
    x = 0
    slots = {}
    for i in range(25_000):
        x = (x * 31 + i) % 1000003
        slots[i & 1023] = x
    for _ in range(12):
        rows = [(i, str(i), [i]) for i in range(300)]
        slots = {row[1]: row for row in rows}
    return time.perf_counter() - t0


def probe():
    """Seconds the probe takes now: the fastest of a few repeats.

    The cyclic collector is off meanwhile, so that no collection walks
    the package's objects inside the probe; everything the probe makes
    is freed by reference counting as it goes.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_probe_once() for _ in range(_REPEATS))
    finally:
        if enabled:
            gc.enable()


def factor(before, after):
    """Scale for computing time done between probes that took before and after seconds."""
    return REFERENCE_S / ((before + after) / 2)
