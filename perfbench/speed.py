"""Core-speed probe: run times expressed at a fixed reference core speed.

The benchmark's host is a shared virtual machine whose cores run the same
code up to about 30% faster or slower from one second to the next, for
stretches of a few seconds to minutes.  CPU time moves with wall time,
so neither can tell the program's cost from the host's state.

A ``SpeedProbe`` in the measured process times a fixed piece of work
every INTERVAL_S of wall clock, from a SIGALRM handler, so that it runs
on the same core, in the same stretch of time, as the program around it.
The work mixes what the program spends its time on: a pure-Python loop
and small numpy array operations.  (Either part alone tracked the run
times less closely, and a probe on the other core not at all.)  The mean
probe time over a stretch of a run says how fast the core was then, and
each stretch of a measured time is scaled to the time the same work takes
on a core where the probe takes REFERENCE_PROBE_S:

    scaled = (stretch - probe time inside it) * REFERENCE_PROBE_S / mean

The probe is part of the benchmark, not of the program, so a change to
the program moves the scaled time as much as the measured time.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

PROBE_LOOPS = 3000          # pure-Python additions
PROBE_ARRAY_OPS = 20        # numpy multiply-adds on PROBE_ARRAY_LEN floats
PROBE_ARRAY_LEN = 1000
INTERVAL_S = 0.02
WINDOW_PROBES = 12          # probes averaged for one window's speed (~0.25 s)
# about the probe time on the 2-core Xeon VM the benchmark was built on;
# any constant would do, it only fixes the unit of the scaled times
REFERENCE_PROBE_S = 300e-6


class SpeedProbe:
    def __init__(self, clock=time.perf_counter):
        self.samples: list[tuple[float, float]] = []    # (start, duration)
        self._clock = clock
        self._array = np.ones(PROBE_ARRAY_LEN)

    def _probe(self, _signum=None, _frame=None) -> None:
        t0 = self._clock()
        s = 0
        for i in range(PROBE_LOOPS):
            s += i
        a = self._array
        for _ in range(PROBE_ARRAY_OPS):
            a = a * 1.0000001 + 0.0
        self.samples.append((t0, self._clock() - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class SpeedScale:
    """Core-speed factor of one run, piecewise over windows of probes.

    The probes of a run are split, in time order, into windows of about
    WINDOW_PROBES; a window's factor is REFERENCE_PROBE_S over its mean
    probe time and holds from its first probe to the next window's first
    probe (the first and last windows extend to either end of time).
    Scaling each stretch of a span by its own window's speed follows the
    drift within a run, which one factor per run cannot.
    """

    def __init__(self, samples):
        self._probes = sorted(samples)
        n = len(self._probes)
        windows = max(1, n // WINDOW_PROBES)
        groups = [self._probes[n * k // windows: n * (k + 1) // windows]
                  for k in range(windows)] if n else []
        self._starts = [g[0][0] for g in groups]
        self._factors = [REFERENCE_PROBE_S / statistics.fmean(d for _, d in g)
                         for g in groups]

    def _window(self, t: float) -> int:
        return max(0, bisect.bisect_right(self._starts, t) - 1)

    def seconds(self, start: float, end: float) -> float:
        """Seconds from start to end, probe time taken out, at the
        reference core speed; end - start if the run has no probes."""
        if not self._factors:
            return end - start
        bounds = [float("-inf")] + self._starts[1:] + [float("inf")]
        total = 0.0
        for k, f in enumerate(self._factors):
            lo, hi = max(start, bounds[k]), min(end, bounds[k + 1])
            if hi > lo:
                total += (hi - lo) * f
        for t, d in self._probes:
            if start <= t < end:
                total -= d * self._factors[self._window(t)]
        return total
