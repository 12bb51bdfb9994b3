"""Wall times rescaled to a machine of fixed speed.

The VM this benchmark was tuned on changes speed by up to 2x from one
minute to the next, and process CPU time changes with it, so raw times
from two runs minutes apart cannot be compared.  A gauge is a fixed piece
of work that never touches jointgrid.  Every timed interval is bracketed
by gauge readings, and long intervals are also sampled once a second from
a SIGALRM handler.  The interval's time, minus the time the in-interval
samples took, is multiplied by the gauge's nominal time over the mean
reading: a time in seconds on a machine where the gauge takes its
nominal time.

Interpreter speed and LAPACK speed drift apart on this VM, so a workload
picks the gauge that matches the work that dominates it.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy

SAMPLE_EVERY_S = 1.0

class _Key:
    """A small object ordered by a Python-level ``__lt__`` on a tuple."""

    __slots__ = ("kind", "index")

    def __init__(self, kind: int, index: int):
        self.kind = kind
        self.index = index

    def key(self):
        return (self.kind, self.index)

    def __lt__(self, other):
        return self.key() < other.key()


_KEYS = [_Key(i % 7, (i * 31) % 1009) for i in range(3000)]
_MATRIX = numpy.random.default_rng(0).standard_normal((120, 60))


def python_gauge() -> float:
    """Sort 3000 objects through their Python ``__lt__``, both ways:
    interpreter-bound (calls, attribute loads, tuple compares), about 15 ms."""
    began = perf_counter()
    sorted(_KEYS)
    sorted(_KEYS, reverse=True)
    return perf_counter() - began


def lapack_gauge() -> float:
    """One full SVD of a 120x60 matrix: LAPACK-bound, about 1.2 ms."""
    began = perf_counter()
    numpy.linalg.svd(_MATRIX)
    return perf_counter() - began


# gauge name -> (gauge, nominal seconds)
GAUGES = {"python": (python_gauge, 0.015), "lapack": (lapack_gauge, 0.0012)}


class Interval:
    raw_s = 0.0  # wall time minus the time spent sampling the gauge
    scaled_s = 0.0


class Clock:
    def __init__(self, gauge: str):
        self.gauge, self.nominal_s = GAUGES[gauge]
        self.readings = [self.gauge()]

    @contextmanager
    def interval(self):
        """Time the body; the yielded Interval is filled in on exit."""
        readings = [self.readings[-1]]
        sampling_s = 0.0

        def sample(signum, frame):
            nonlocal sampling_s
            began = perf_counter()
            readings.append(self.gauge())
            sampling_s += perf_counter() - began

        timing = Interval()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        began = perf_counter()
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - began
            signal.signal(signal.SIGALRM, previous)
            readings.append(self.gauge())
            self.readings.extend(readings[1:])
            timing.raw_s = elapsed - sampling_s
            timing.scaled_s = timing.raw_s * self.nominal_s / statistics.fmean(readings)
