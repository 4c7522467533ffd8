"""Machine-speed calibration: a fixed reference kernel sampled during the run.

On a shared machine the speed of a core drifts by a quarter or more over
minutes, as other tenants come and go, and that drift is common to all
compute: CPU time and wall time both follow it.  No statistic inside one run
removes it.  What does is to time, in the same process and interleaved with
the workload, a reference kernel that never changes: the ratio of the
workload's time to the kernel's time stays put while both drift together.

``Sampler`` runs ``reference`` from a SIGPROF handler every ``INTERVAL_S``
of process CPU time, so the samples are spread evenly over the timed passes,
also inside a single long op.  Its ``clock`` is process CPU time minus the
time spent in the handler, so ops are timed without the samples.  The
kernel uses numpy and ``scipy.special`` only, none of quantcap and nothing
that keeps state between calls, so it is safe to run between any two
bytecodes of the workload.

A calibrated time is ``cpu_seconds * NOMINAL_S / median(samples)``: seconds
on a machine that runs the reference kernel in ``NOMINAL_S``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

import checker

#: CPU seconds between samples
INTERVAL_S = 0.3
#: the reference kernel's median CPU time on the machine the benchmark was
#: written on (a shared 2-core x86-64 host); any fixed value would do
NOMINAL_S = 0.020

_X = np.linspace(-12.0, 12.0, 2001)
_Q = (-1.1, -0.3, 0.0, 0.4, 1.2)
_SLOPE = 4.0 - _X**2
_SMALL_A = np.linspace(0.0, 1.0, 16)
_SMALL_B = np.linspace(1.0, 2.0, 16)
#: 4 MB, more than the per-core caches
_LARGE = np.linspace(0.0, 1.0, 1 << 19)


def reference():
    """The fixed kernel, one part for each kind of work in the workloads:
    ufuncs over a 2001-point grid and a bisection on it (a capacity solve),
    many numpy calls on tiny arrays (the bound search), a pass over a
    working set larger than the caches, and interpreted arithmetic.  A
    slow-down of any one kind moves the calibration, but by its share only."""
    value = 0.0
    for shift in (0.0, 0.1, 0.2, 0.3):
        w = checker.transition_rows(_X, np.add(_Q, shift), 1.0)
        d = checker.divergence_bits(w, w.mean(axis=0))
        value += checker.envelope_minimum(d, _SLOPE)[0]
    for i in range(1000):
        value += float(np.max(_SMALL_A * i + _SMALL_B))
    value += float(np.exp(-_LARGE).sum())
    total = 0
    for i in range(50000):
        total += i % 7
    return value + total


class Sampler:
    """Samples ``reference`` on a CPU-time timer while it is running."""

    def __init__(self, interval=INTERVAL_S):
        self.interval = interval
        self.samples = []
        self.spent = 0.0
        self._busy = False
        self._previous = None

    def clock(self):
        """CPU seconds of this thread, less the time spent sampling.

        Thread time, not process time: while a CPU-time timer is armed,
        Linux reads the process clock only to the scheduler tick.
        """
        return time.thread_time() - self.spent

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.thread_time()
        try:
            with np.errstate(all="ignore"):
                reference()
        finally:
            took = time.thread_time() - start
            self.samples.append(took)
            self.spent += took
            self._busy = False

    def __enter__(self):
        reference()  # first-call set-up is not a sample
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous)
        return False

    def factor(self):
        """Calibrated seconds per CPU second measured in this run."""
        if not self.samples:
            raise RuntimeError("no reference samples: the timed passes were too short")
        return NOMINAL_S / statistics.median(self.samples)
