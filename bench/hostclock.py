"""Host-speed-normalised time, so that runs on a shared host can be compared.

On the 2-CPU host the benchmark was defined on, the same code ran up to twice
as slow while a neighbour was busy, in phases from a fraction of a second to
minutes long, with CPU time equal to wall time (no steal to subtract). Wall
time over a 30-second run moved by 15-25% from run to run, best-of-N still by
about 10%. Code measured right next to a fixed pure-Python kernel slows down
by the same factor as the kernel: a 6 ms attack run timed between two 1.3 ms
runs of a dict-and-str kernel read 1.11x its fastest time when the kernels
read 1.0-1.2x, and 2.04x when they read 1.7-2.2x. The kernel below, closer to
the simulator's own mix, tracked a 1.5 s sweep slightly better still.

`HostClock` therefore runs `reference_kernel` from a SIGALRM handler every
PERIOD_S seconds while it is installed, and maps each `time.perf_counter()`
reading to *reference seconds*: between two samples, wall time advances the
reference clock at REFERENCE_S divided by the mean kernel time of the two
samples (each the median of five neighbouring readings), and the kernel's own
time does not count. A reference second is
thus a second on a host where the kernel takes REFERENCE_S, about what it
took in the host's fast phases. The kernel is part of the benchmark and
independent of natsim, so a parent and a change are measured against the
same yardstick.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import statistics
import time
from array import array

PERIOD_S = 0.025
REFERENCE_S = 0.0004


class _Item:
    __slots__ = ("seq", "key", "label")

    def __init__(self, seq: int, key: int, label: str):
        self.seq = seq
        self.key = key
        self.label = label


def reference_kernel() -> int:
    """A fixed mix of the simulator's kind of work (0.4-0.9 ms on the host above):
    small slotted objects through a heap, dict updates, isinstance checks
    and string formatting."""
    heap: list = []
    table: dict = {}
    lines = []
    for i in range(250):
        item = _Item(i, (i * 7919) % 509, "x")
        heapq.heappush(heap, (item.key, i, item))
        table[(item.key, item.seq)] = item
        if isinstance(item.label, str):
            lines.append(f"{item.seq}\t{item.key}\t{item.label}")
    while heap:
        _, _, item = heapq.heappop(heap)
        del table[(item.key, item.seq)]
    return len(lines)


class HostClock:
    """Samples the reference kernel on entry, every PERIOD_S while installed
    (`with HostClock() as clock:`) and on exit; `clock.seconds(start, end)`
    converts an interval of `time.perf_counter()` readings taken meanwhile to
    reference seconds."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self._built = 0
        self._at_end: list[float] = []  # reference time at ends[i]
        self._rate: list[float] = []  # reference seconds per wall second before sample i

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def __enter__(self):
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def _build(self) -> None:
        n = len(self.ends)
        measured = [e - s for s, e in zip(self.starts[:n], self.ends[:n])]
        # one kernel reading varies by 10-20% within a phase; the median of
        # five neighbours (about 0.1 s) keeps that out of a short run's time
        kernel = [statistics.median(measured[max(0, i - 2) : i + 3]) for i in range(n)]
        self._rate = [REFERENCE_S / kernel[0]]
        self._at_end = [0.0]
        for i in range(1, n):
            self._rate.append(2 * REFERENCE_S / (kernel[i - 1] + kernel[i]))
            self._at_end.append(self._at_end[-1] + (self.starts[i] - self.ends[i - 1]) * self._rate[i])
        self._built = n

    def to_reference(self, t: float) -> float:
        if self._built != len(self.ends):
            self._build()
        n = self._built
        i = bisect.bisect_right(self.ends, t, 0, n)  # samples finished by t
        if i == 0:
            return (t - self.ends[0]) * self._rate[0]
        if i == n:
            last = n - 1
            return self._at_end[last] + (t - self.ends[last]) * self._rate[last]
        return self._at_end[i - 1] + (min(t, self.starts[i]) - self.ends[i - 1]) * self._rate[i]

    def seconds(self, start: float, end: float) -> float:
        return self.to_reference(end) - self.to_reference(start)
