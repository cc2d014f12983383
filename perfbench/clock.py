"""Reference-speed clock.

The host's speed drifts by tens of percent within seconds, and CPU time drifts
exactly as much as wall time.  A fixed reference kernel (integer and Fraction
arithmetic from the standard library, no negabeta code) is therefore run
between operations, and every raw interval is rescaled by

    nominal / (kernel time measured around that interval)

so that a figure reads in seconds of a host on which the kernel takes its
nominal time.  Kernel runs are excluded from the measured intervals.

Two kernels exist because work of different kinds slows differently when the
host is busy: Fraction arithmetic follows the in-process numeric loops, and
allocation-bound integer work follows interpreter start-up and imports, which
is most of a child process's time.  README.md gives the measurements.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

def kernel_fraction() -> int:
    """Under a millisecond of Fraction and small-integer arithmetic."""
    x = Fraction(1, 3)
    acc = 0
    window: list[tuple[int, int]] = []
    for i in range(80):
        x = x * Fraction(7, 5) - (x.numerator // x.denominator)
        if x.denominator > 10**30:
            x = Fraction(x.numerator % 997 + 1, 1009)
        window.append((i & 7, i % 3))
        acc += sum(a for a, b in window[-8:] if b)
    return acc


def kernel_startup() -> int:
    """About a millisecond of allocation-bound integer arithmetic."""
    values = [i * i + (i >> 3) for i in range(5000)]
    table = dict(enumerate(values))
    return sum(table[i] for i in range(0, 5000, 7))


# kind -> (kernel, nominal seconds per call).  The nominal times are the
# medians on the 2-core x86-64 host (CPython 3.11.7) where the figures in
# README.md were taken; changing one rescales every time measured with it.
KERNELS = {
    "fraction": (kernel_fraction, 0.00075),   # census and field, in process
    "startup": (kernel_startup, 0.00125),     # cli commands and set-up probes
}


class Clock:
    """Records kernel samples ("ticks") and converts raw perf_counter
    intervals into reference-speed seconds.

    A tick is (start, end, k): the kernel ran from start to end and took k
    seconds.  Work between two ticks is weighted by the mean of their k
    values.  Every process that does measured work keeps its own clock: a
    kernel run in another process tracks that work's speed poorly.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.kernel, self.nominal = KERNELS[kind]
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.ks: list[float] = []
        self._cum: tuple[list[float], list[float]] | None = None

    # -- sampling ------------------------------------------------------------

    def tick(self) -> None:
        """Run the kernel once now and record its time."""
        t0 = time.perf_counter()
        self.kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.ends.append(t1)
        self.ks.append(t1 - t0)
        self._cum = None

    def _on_alarm(self, signum, frame) -> None:
        self.tick()

    def start_timer(self, period: float = 0.02) -> None:
        """Interleave the kernel every `period` seconds via SIGALRM, so that
        drift inside long operations is followed too."""
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, period, period)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    # -- conversion ----------------------------------------------------------

    def _tables(self) -> tuple[list[float], list[float]]:
        """Weight of the work segment that ends at tick j, and the reference
        seconds accumulated up to the start of tick j."""
        if self._cum is None:
            ks = self.ks
            w = [self.nominal / ((ks[max(j - 1, 0)] + ks[j]) / 2) for j in range(len(ks))]
            cum = [0.0]
            for j in range(1, len(ks)):
                cum.append(cum[-1] + (self.starts[j] - self.ends[j - 1]) * w[j])
            self._cum = (w, cum)
        return self._cum

    def at(self, t: float) -> float:
        """Reference-time reading of the raw instant t."""
        if not self.ks:
            raise RuntimeError("no kernel samples recorded")
        w, cum = self._tables()
        j = bisect.bisect_right(self.starts, t)  # first tick starting after t
        if j == 0:
            return (t - self.starts[0]) * w[0]
        prev_end = self.ends[j - 1]
        if t <= prev_end:  # inside a kernel run: no work happened
            return cum[j - 1]
        weight = w[j] if j < len(self.ks) else self.nominal / self.ks[-1]
        return cum[j - 1] + (t - prev_end) * weight

    def ref(self, a: float, b: float) -> float:
        """Reference seconds of work in the raw interval [a, b]."""
        return self.at(b) - self.at(a)

    def to_json(self) -> list:
        return [self.kind, self.starts, self.ends, self.ks]

    @staticmethod
    def from_json(data: list) -> "Clock":
        """A clock from another process's ticks (perf_counter is system-wide
        on Linux, so its instants are comparable with this process's)."""
        c = Clock(data[0])
        c.starts, c.ends, c.ks = data[1:]
        return c

    def kernel_median(self) -> float:
        return statistics.median(self.ks)
