"""Host-speed sampling, so that timings compare across a shared host's
fast and slow phases.

On a few cores of a shared host the same pure-Python loop runs up to half
again slower while neighbours load the caches and the sibling hardware
threads, in phases lasting seconds to minutes.  Process CPU time slows down
with it, so it does not help.  A ``Sampler`` therefore runs a fixed probe
kernel, which is benchmark code that shares nothing with the package, every
``PERIOD_S`` seconds from a timer signal in the calling thread.  It records
when each probe started and how long it took.  ``reference_s(t0, t1)``
converts a stretch of wall time measured between ``perf_counter`` readings
``t0`` and ``t1`` into seconds at the reference speed.  It removes the time
the probes took inside the stretch and scales each piece between probes by
``REFERENCE_PROBE_S`` over the median of the ``WINDOW`` probes nearest it.
The package's own speed is left in the result: a faster package gives
proportionally smaller reference times, the host's phase does not.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

import oracles

PERIOD_S = 0.1
WINDOW = 11  # probes in the median that sets the speed of one piece
WARMUP_PROBES = 5
# Median probe time on the reference machine (2-vCPU x86-64 VM, Python
# 3.11) in its fast phase.  Only a unit: a different value scales every
# reference time alike.
REFERENCE_PROBE_S = 0.0015
_PROBE_PERM = (6, 5, 4, 3, 1, 2)


def probe_kernel() -> int:
    """Fixed work, about 1.5 ms: |R(654312)| over a fresh memo of the
    interval below it (tuple building, dict lookups, small lists)."""
    return oracles.count_reduced_words(_PROBE_PERM, {})


class Sampler:
    """``with Sampler() as s:`` probes the host speed until the block ends.

    Probes are taken with the garbage collector paused, so their time does
    not depend on what the package keeps alive.  Not reentrant; one at a
    time per process.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def probe(self, *_signal_args) -> None:
        enabled = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe_kernel()
        t1 = time.perf_counter()
        if enabled:
            gc.enable()
        self.starts.append(t0)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "Sampler":
        for _ in range(WARMUP_PROBES):
            self.probe()
        self._previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.probe()  # the last piece gets a probe after it

    def _speed(self, i: int) -> float:
        """Reference probe time over the measured one, around probe i."""
        lo = max(0, min(i - WINDOW // 2, len(self.durations) - WINDOW))
        return REFERENCE_PROBE_S / statistics.median(self.durations[lo : lo + WINDOW])

    def reference_s(self, t0: float, t1: float) -> float:
        """Seconds at reference speed for the wall time from t0 to t1,
        with the probes taken in between left out."""
        total = 0.0
        at = t0
        i = bisect.bisect_left(self.starts, t0)
        while i < len(self.starts) and self.starts[i] < t1:
            total += (self.starts[i] - at) * self._speed(i)
            at = min(t1, self.starts[i] + self.durations[i])
            i += 1
        total += max(0.0, t1 - at) * self._speed(min(i, len(self.starts) - 1))
        return total

    def summary(self) -> dict:
        """Probe statistics for the info line, in milliseconds."""
        ms = sorted(1000 * d for d in self.durations)
        q = statistics.quantiles(ms, n=4) if len(ms) > 1 else ms * 3
        return {"probes": len(ms), "probe_ms_q1": q[0], "probe_ms_median": q[1],
                "probe_ms_q3": q[-1], "reference_probe_ms": 1000 * REFERENCE_PROBE_S}
