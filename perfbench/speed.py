"""Host-speed calibration: times scaled to a reference speed.

The benchmark's cores are shared with other tenants' work, which slows
pure-Python code by up to 1.9x for stretches of ten seconds to a minute,
longer than some runs.  Fastest-of-run times still spread by 20-25%
between runs of the same code.  What does hold steady is the ratio of an
op's time to the time of a fixed kernel of the same character run around
and inside it: on a 2-core virtual machine the median of that ratio over
a 25 s window moved by 1-3% while raw medians moved by 30%.

``kernel`` is such a kernel: immutable tuple records validated on
construction, one-slot replacement, per-element lookups and a generator
sum, the shape of the package's own inner loops, but written here and
calling nothing of the package, so a change to the package cannot move
it.  A time ``t`` measured next to a kernel time ``c`` is reported as
``t * REF_KERNEL_S / c``: seconds on a host where the kernel takes
``REF_KERNEL_S``.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

# The kernel's time on an idle core of the 2-core virtual machine the
# benchmark was tuned on was 5.4-5.8 ms; the reference is a round figure
# near it, so scaled times read close to that machine's seconds.
REF_KERNEL_S = 0.005


class _Record:
    __slots__ = ("items", "k")

    def __init__(self, items: tuple, k: int):
        for v in items:
            if not 0 <= v <= k:
                raise ValueError(f"label {v} outside 0..{k}")
        self.items = items
        self.k = k

    def put(self, e: int, v: int) -> "_Record":
        t = self.items
        return _Record(t[:e] + (v,) + t[e + 1:], self.k)


def kernel(n: int = 60, k: int = 3, reps: int = 40) -> float:
    weights = [[float((e * 7 + i * 3) % 11) for i in range(k + 1)] for e in range(n)]
    acc = 0.0
    for _ in range(reps):
        p = _Record((0,) * n, k)
        seen: set[int] = set()
        for e in range(0, n, 3):
            best = max(range(1, k + 1), key=lambda i: weights[e][i])
            p = p.put(e, best)
            seen |= {e}
            acc += sum(weights[j][v] for j, v in enumerate(p.items) if v)
    return acc


class HostSpeed:
    """Kernel runs all through a measured phase, to scale its steps' times.

    Inside ``with speed.sampling():`` an interval timer interrupts the
    process every ``gap`` seconds, and the signal handler runs the kernel
    between two bytecodes of whatever was running: inside a long op as
    well as between ops, so the speed of the host is known across a step
    of any length.  ``paused`` sums the time these runs took; a caller
    takes the part that fell inside a step off that step's time.

    A step that ran from ``start`` to ``end`` is scaled by the median of
    the kernel times within ``window`` seconds of it.  A single kernel time
    varies by about 4% from one run to the next (quartiles), so the median
    of many is steadier than the nearest one.
    """

    def __init__(self, gap: float = 0.05, window: float = 0.25):
        self.gap = gap
        self.window = window
        self.at: list[float] = []        # end time of each kernel run
        self.kernel_s: list[float] = []  # its duration
        self.paused = 0.0
        self._busy = False
        kernel()  # the first run pays for allocating its objects

    def _sample(self, signum=None, frame=None) -> None:
        if self._busy:  # a signal that arrives during a kernel run
            return
        self._busy = True
        try:
            start = time.perf_counter()
            kernel()
            end = time.perf_counter()
            self.at.append(end)
            self.kernel_s.append(end - start)
            self.paused += end - start
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Run the kernel every ``gap`` seconds, and once at each end."""
        self._sample()
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.gap, self.gap)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._sample()

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` of a step run from ``start`` to ``end``, scaled.

        Call it after ``sampling`` has ended, so a kernel run follows every
        step."""
        lo = min(bisect.bisect_left(self.at, start - self.window),
                 bisect.bisect_left(self.at, start) - 1)
        hi = max(bisect.bisect_right(self.at, end + self.window),
                 bisect.bisect_right(self.at, end) + 1)
        return seconds * REF_KERNEL_S / statistics.median(self.kernel_s[max(lo, 0):hi])
