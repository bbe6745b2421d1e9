"""A reference probe that measures how fast the host runs Python right now.

On a shared virtual machine the same single-threaded work can take 50% longer
for seconds at a time while neighbours load the host; CPU time drifts just as
wall time does, so neither alone is steady.  The benchmark times this fixed
pure-Python probe between instances and, from a timer signal, every
TICK_S within them, and rescales wall time by REFERENCE_PROBE_S over the probe
times seen in that interval.  The result is in reference seconds: wall
seconds on a host where the probe takes REFERENCE_PROBE_S (the fast state of
the 2-vCPU Xeon VM the bounds were set on).  A program that gets faster or
slower still moves the rescaled times one for one, because the probe runs
none of its code.
"""

import gc
import signal
import time

REFERENCE_PROBE_S = 70e-6
TICK_S = 0.05


def _reference_work():
    acc = 0
    table = {}
    for i in range(300):
        key = (i & 15, i % 7)
        acc = (acc * 31 + i) % 1000003
        table[key] = table.get(key, 0) + acc
    return acc


def probe(repeats=3):
    """Fastest of a few timings of the reference work, with the collector off
    so that the program's heap size cannot make the probe look slow."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _reference_work()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Meter:
    """Times intervals of work in reference seconds.

    Between intervals the caller takes a probe with mark(); while the meter
    runs, a SIGALRM handler takes a short probe every TICK_S.  The time the
    handler spends is subtracted from the interval it interrupted.
    """

    def __init__(self):
        self._samples = []
        self._busy = 0.0
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._samples.append(probe(repeats=2))
        self._busy += time.perf_counter() - t0

    def mark(self):
        """Probe now; returns the token that opens an interval."""
        self._samples.append(probe())
        return len(self._samples) - 1, time.perf_counter(), self._busy

    def elapsed(self, token):
        """(reference seconds, reference seconds per wall second) since the
        token's mark, closed by a probe."""
        first, t0, busy0 = token
        t1 = time.perf_counter()
        busy = self._busy - busy0
        self._samples.append(probe())
        inv = [1.0 / p for p in self._samples[first:]]
        scale = REFERENCE_PROBE_S * sum(inv) / len(inv)
        return (t1 - t0 - busy) * scale, scale
