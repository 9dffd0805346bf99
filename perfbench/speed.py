"""The speed of the CPU the benchmark runs on, and CPU times rescaled by it.

On a shared host the CPU given to the benchmark runs the same instructions up
to twice as slowly while other tenants load the machine, for seconds or
minutes at a time.  The process's CPU clock keeps counting through such a
stretch, so raw CPU times, like wall times, of the same code spread by a fifth
between runs.  A fixed probe (NumPy operations on a 32x32 array and a short
Python loop, the program's own mix) measures the current speed: it runs every
INTERVAL_S of the process's CPU time while a SpeedProbe is entered, and in a
burst whenever one is made.  A CPU time is rescaled by (REF_PROBE_S over the
harmonic mean of the probe times of the same stretch) ** SENSITIVITY, so it
reads as the CPU time of the same work on the reference CPU.  The timer
samples evenly in CPU time, and the work done in a slice of CPU time is
inversely proportional to the probe time in it, hence the harmonic mean.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.02  # CPU time between two probes
# The probe's median CPU time on an unloaded 2-core Intel Xeon virtual machine
# (2.0 GHz, Python 3.11, NumPy 2.4): the reference speed.
REF_PROBE_S = 70e-6
# A stretch with fewer probes than this is rescaled by the latest this many.
MIN_PROBES = 25
# How the program's CPU time grows with the probe time under load.  In ten-run
# sets on the host above, `escape` and `well` (32x32 grids, much of the time
# in the interpreter) grew with an exponent near 0.9-1, `decay` (64x64, more
# of it in NumPy loops) near 0.6; at 0.8 no workload spread more than 6 %.
SENSITIVITY = 0.8

_ARRAY = np.linspace(0.0, 1.0, 1024).reshape(32, 32)


def cpu_clock() -> float:
    """The calling thread's CPU time.  The process's CPU clock would do for a
    single-threaded program, but while a process-wide CPU timer is armed it
    advances only at scheduler ticks."""
    return time.thread_time()


def probe() -> float:
    """CPU time of one fixed piece of work."""
    start = cpu_clock()
    total = 0.0
    for _ in range(8):
        b = _ARRAY * 1.0001 + 0.5
        total += float(np.sum(b * b))
    x = 0
    for i in range(300):
        x += i * i
    return cpu_clock() - start


class SpeedProbe:
    """Probe times, from a burst at creation and from a CPU-time timer
    (SIGPROF) while entered."""

    def __init__(self):
        self.samples = [probe() for _ in range(MIN_PROBES)]

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(probe())

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def rescale(self, cpu_s: float, since: int | None = None) -> float:
        """`cpu_s` at the reference speed.  With `since`, `cpu_s` was spent
        after sample `since` was taken: the probes taken since are not counted
        and set the speed, if there are at least MIN_PROBES of them."""
        during = [] if since is None else self.samples[since:]
        window = during if len(during) >= MIN_PROBES else self.samples[-MIN_PROBES:]
        speed = REF_PROBE_S / statistics.harmonic_mean(window)
        return (cpu_s - sum(during)) * speed ** SENSITIVITY

    def slowdown(self) -> float:
        """Harmonic mean of every probe time over the reference."""
        return statistics.harmonic_mean(self.samples) / REF_PROBE_S
