"""Host-speed calibration for a shared, noisy machine.

On a host shared with other tenants the same code can run 1.5-2x slower
for seconds or minutes at a time.  The reference kernel below is a fixed
mix of the kinds of work the library does (small int64 numpy products and
stacks, bytes keys in a dict, Python integer arithmetic) that does not call
the library, so no change to anyonbraid can change it.  It runs with the
cyclic garbage collector off, so that a collection over the library's live
heap cannot land inside a sample.  It runs at every
operation boundary and, every SAMPLE_INTERVAL_S, from a SIGALRM handler
inside a long operation; the time spent in the handler is taken out of the
operation's wall time.  The operation's calibrated time is its wall time
scaled by REF_NOMINAL_S over the reference time measured while it ran
(around it, for operations too short to be sampled; the median of three or
more samples, the mean of two): its time at the host
speed at which the reference takes REF_NOMINAL_S.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

REF_NOMINAL_S = 0.0037
SAMPLE_INTERVAL_S = 0.2


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel, with the cyclic GC off."""
    a = np.arange(64, dtype=np.int64).reshape(4, 4, 4) % 3 - 1
    seen = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for i in range(150):
            t = np.tensordot(a, a, axes=([2], [1]))
            a = np.stack([t[0, :, 0] - t[1, :, 3], t[0, :, 1] + t[1, :, 0],
                          t[2, :, 2] - t[3, :, 1], t[3, :, 3] + t[2, :, 1]]) % 5 - 2
            seen[a.tobytes()] = sum(((j * i) >> 1) & 3 for j in range(40))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _boundary_reference() -> float:
    return statistics.median(reference_seconds() for _ in range(3))


class Calibrator:
    """Times operations and converts their wall times to calibrated times.

    With `sampling` off (the traced run, whose self times a handler would
    distort) only the boundary references are used.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self._last = _boundary_reference()
        self._ticks: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self._ticks.append(reference_seconds())
        self._spent += time.perf_counter() - t0

    def measure(self, fn, *args):
        """(fn(*args), wall seconds without the sampling handler, samples)."""
        self._ticks, self._spent = [], 0.0
        if self.sampling:
            previous = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            if self.sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            seconds = time.perf_counter() - t0 - self._spent
        return out, seconds, self._ticks

    def calibrate(self, seconds: float, samples: list[float]) -> float:
        """Calibrated time of an operation measured just before this call."""
        before, self._last = self._last, _boundary_reference()
        refs = samples if len(samples) >= 2 else [before, self._last, *samples]
        ref = statistics.median(refs) if len(refs) >= 3 else statistics.fmean(refs)
        return seconds * REF_NOMINAL_S / ref
