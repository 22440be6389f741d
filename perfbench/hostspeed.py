"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on shared 2-core machines whose speed drifts by up to
2x in bursts of seconds to minutes while other tenants load the host.
Timed on the same CPU right next to an op, a fixed pure-Python kernel
slows by about the same share as the op does, so the benchmark reports
each op time scaled to a nominal host speed::

    corrected = measured * NOMINAL_S / median reference time around the op

A change to phasecrash moves the measured op time and not the kernel,
so it moves the corrected time by the same share. The measured values
are printed and saved beside the corrected ones.
"""

import statistics
import time

#: Median ``reference()`` time on the 2-core x86_64 machine the
#: benchmark was tuned on (Python 3.11.7), in a quiet spell.
NOMINAL_S = 0.0021

_LOOPS = 13000


def reference():
    """Seconds of the fastest of three runs of a fixed dict-and-integer
    kernel; the minimum drops one-off interruptions, and a sustained
    slowdown still shows."""
    best = float("inf")
    for _ in range(3):
        t0 = time.monotonic()
        d = {}
        for k in range(_LOOPS):
            d[k % 997] = d.get(k % 997, 0) + k * k
        best = min(best, time.monotonic() - t0)
    return best


def factor(readings):
    """Scale for a time measured between, or among, the given reference
    readings."""
    return NOMINAL_S / statistics.median(readings)
