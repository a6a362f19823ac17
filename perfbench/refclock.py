"""CPU time at reference speed, for a host whose speed drifts.

The machines this benchmark runs on share their cores with other work, and
the speed of one CPU second changes by up to a factor of two within a
fraction of a second. A RefClock samples that speed while the
work runs: every INTERVAL_S of this process's CPU time a timer signal runs
a fixed reference kernel and records how long it took. A stretch of CPU
time between two samples is then counted in reference seconds, at the
rate those two samples give, so that a run on a slow moment and a run on
a fast one read alike; the samples themselves count as nothing. The
kernel belongs to the benchmark, so a change to the package still moves
the result.

Marks are taken with time.thread_time, which stays exact while the
process's CPU timer is armed (process_time then falls back to the
scheduler tick).
"""

from __future__ import annotations

import bisect
import signal
from time import thread_time

INTERVAL_S = 0.05
# Reference speed: a machine on which one reference_kernel call takes
# REF_S of CPU, about the median on the 2-CPU Xeon KVM guest with
# CPython 3.11 where the baseline was taken (1.4 ms at its fastest).
REF_S = 0.002


def reference_kernel() -> int:
    """A fixed piece of pure-Python work: list indexing, tuple keys in a
    dict and small-integer arithmetic, the kinds of work the package does."""
    n = 97
    perm = [(5 * i + 3) % n for i in range(n)]
    seen: dict[tuple[int, int, int], int] = {}
    acc = 0
    for r in range(75):
        row = [(perm[i] * r + i) % n for i in range(n)]
        for i in range(0, n, 3):
            key = (row[i], row[(i + r) % n], r & 7)
            seen[key] = seen.get(key, 0) + 1
        perm = [perm[j] for j in row]
        acc += sum(perm[:8])
    return acc + len(seen)


class RefClock:
    """Speed samples of the calling thread, and spans in reference seconds.

    ``start`` arms the timer; ``sample`` also takes a sample on demand, as
    around a child process. After ``stop``, ``span(a, b)`` converts two
    thread_time marks. Only the main thread may use it, since signal
    handlers run there.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.lengths: list[float] = []
        self._busy = False
        self._lo: list[float] = []
        self._rate: list[float] = []
        self._cum: list[float] = []
        for _ in range(3):  # the interpreter specializes a function's first calls
            reference_kernel()

    def sample(self, *_signal_args) -> float:
        """Run the kernel once; return its CPU seconds (0 if one is running)."""
        if self._busy:
            return 0.0
        self._busy = True
        try:
            t0 = thread_time()
            reference_kernel()
            length = thread_time() - t0
            self.starts.append(t0)
            self.lengths.append(length)
            return length
        finally:
            self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer and build the conversion. The stretch before the
        first sample and after the last run at that sample's rate; every
        other stretch at the mean of the samples on either side."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        if not self.starts:
            self.sample()
        n = len(self.lengths)
        self._lo = [0.0] + [s + x for s, x in zip(self.starts, self.lengths)]
        self._rate = [REF_S / self.lengths[0]]
        self._rate += [2 * REF_S / (self.lengths[k] + self.lengths[k + 1]) for k in range(n - 1)]
        self._rate.append(REF_S / self.lengths[-1])
        self._cum = [0.0]
        for k in range(n):
            self._cum.append(self._cum[-1] + (self.starts[k] - self._lo[k]) * self._rate[k])

    def _at(self, mark: float) -> float:
        k = bisect.bisect_right(self._lo, mark) - 1
        end = self.starts[k] if k < len(self.starts) else mark
        return self._cum[k] + (min(mark, end) - self._lo[k]) * self._rate[k]

    def span(self, a: float, b: float) -> float:
        """Reference seconds of CPU between thread_time marks a <= b."""
        return self._at(b) - self._at(a)

    def median_ms(self) -> float:
        """The median sample, in CPU milliseconds."""
        ordered = sorted(self.lengths)
        return ordered[len(ordered) // 2] * 1e3
