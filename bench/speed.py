"""Machine-speed probe: converts wall time into reference seconds.

On the shared reference machine the speed of a process switches between
levels up to 1.8 times apart. A level lasts from seconds to many minutes,
and CPU time grows with wall time on every level. Raw wall times of identical
runs then spread by 13 to 37 %, more than any useful regression bound.

While a worker runs, a SIGALRM handler runs a fixed pure-Python reference
task every ``PROBE_INTERVAL_S`` of wall time. The task does Fraction, dict
and float work and calls no hodiff code. The handler records how long the
task took. A stretch of wall time between two probes, less the probes
themselves, is divided by the local slowdown: the mean duration of the two
probes over ``REFERENCE_S``. A reference second is thus the work the machine
does in one second when the task takes ``REFERENCE_S``. Operations of the
same workload timed this way spread by about 5 % one by one and by about
1 % over 10 s, where their raw wall times spread by 55 % and 17 %.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.2
# the reference task's duration at full speed on the reference machine
REFERENCE_S = 0.0024


def reference_task():
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 2) * Fraction(3, i % 5 + 1)
        table[(i, i % 3)] = acc.numerator % 97
    x = 0.0
    for i in range(3000):
        x += (i * 0.5) ** 0.5
    return acc, x, table


class SpeedProbe:
    """Samples the machine's speed while active (use as a context manager)."""

    def __init__(self):
        self.starts: list[float] = []      # perf_counter at each probe's start
        self.durations: list[float] = []

    def _probe(self, _signum=None, _frame=None):
        start = time.perf_counter()
        reference_task()
        self.starts.append(start)
        self.durations.append(time.perf_counter() - start)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()
        return False

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Wall time spent in probes within [t0, t1]."""
        total = 0.0
        for start, dur in zip(self.starts, self.durations):
            total += max(0.0, min(t1, start + dur) - max(t0, start))
        return total

    def reference_seconds(self, t0: float, t1: float) -> float:
        """The wall interval [t0, t1], less probe time, in reference seconds."""
        starts, durs = self.starts, self.durations
        if len(starts) < 2:
            raise ValueError("the probe needs a sample at each end")
        total = 0.0
        # stretch k runs from the end of probe k to the start of probe k+1
        k = max(0, bisect.bisect_right(starts, t0) - 1)
        while k < len(starts) - 1 and starts[k] + durs[k] < t1:
            lo = max(t0, starts[k] + durs[k])
            hi = min(t1, starts[k + 1])
            if hi > lo:
                total += (hi - lo) * 2 * REFERENCE_S / (durs[k] + durs[k + 1])
            k += 1
        return total
