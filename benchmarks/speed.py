"""The host's speed, sampled on the CPUs the program runs on.

This machine's vCPUs run at a speed that changes by up to 1.8x within
seconds and over minutes, with nothing visible to the guest (no steal
time, no performance counters).  Raw times of the same code then spread
far past any useful bound.  So while a verify call runs, every process of
it (the call's own and each pool worker it forks) runs a fixed kernel
after every ``INTERVAL_S`` of its CPU time and records what the kernel
cost.  The kernel is pure-Python exact arithmetic and dict work, like the
exact layers and mpmath's pure-Python backend, and it never calls
polyident, so a change to the program cannot change what it costs except
through the machine.

``run.py`` scales each measured time by ``REFERENCE_COST_S`` over the mean
kernel cost of the samples taken during it: a time in seconds at the
reference speed.  A sample is the second of two kernel runs in a row, so
that what the program left in the CPU caches counts little.
"""

from __future__ import annotations

import os
import signal
import time
from fractions import Fraction

#: CPU time of a process between two samples (ITIMER_PROF)
INTERVAL_S = 0.2
#: kernel cost at which a measured time is reported unchanged; the median
#: sample cost over the baseline runs in README.md, rounded
REFERENCE_COST_S = 0.0018
#: samples taken right after set-up, to scale the set-up time
SAMPLES_AFTER_SETUP = 8


def kernel() -> Fraction:
    """A fixed piece of pure-Python work, about 2 ms here."""
    acc = Fraction(0)
    for n in range(1, 16):
        p = Fraction(1)
        for k in range(n + 3):
            p *= Fraction(2 * k + n, k + 3)
        acc += p / (n + 1)
    counts: dict[int, int] = {}
    for i in range(5000):
        counts[i % 97] = counts.get(i % 97, 0) + i * i
    return acc


def sample() -> tuple[float, float]:
    """CPU seconds of one warm kernel run, and of the whole sample.

    Both are CPU time of the calling thread: time the process waited for a
    CPU is not the machine's speed.
    """
    start = time.thread_time()
    kernel()
    warm = time.thread_time()
    kernel()
    end = time.thread_time()
    return end - warm, end - start


class Probe:
    """Samples the speed in this process and every process it forks.

    Each sample is appended to the file at ``path`` as one line, "cost
    total"; the appends of all processes go to one file, one ``write`` per
    line.
    """

    def __init__(self, path: str):
        self.path = path
        self.fd = -1

    def start(self) -> None:
        self.fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        signal.signal(signal.SIGPROF, self._on_signal)
        os.register_at_fork(after_in_child=self._arm)
        self._arm()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        os.close(self.fd)

    def _arm(self) -> None:
        # interval timers are not inherited across fork, so a worker arms its own
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def _on_signal(self, signum, frame) -> None:
        cost, total = sample()
        os.write(self.fd, f"{cost!r} {total!r}\n".encode())


def read_samples(path) -> list[tuple[float, float]]:
    with open(path) as fh:
        return [(float(cost), float(total)) for cost, total in map(str.split, fh)]
