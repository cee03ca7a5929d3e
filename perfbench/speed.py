"""Machine-speed sampling, so that timings from a noisy host compare.

On a shared VM the CPU runs at a few discrete speeds that differ by up
to 2x and switch every few seconds.  Raw timings of one workload then
spread by 30-40% between runs.  The benchmark therefore runs a fixed
reference loop (Python bytecode plus wide-int AND and popcount, the
library's own mix) every TICK_S from a SIGALRM handler, and records the
speed ratio REFERENCE_S / (time the loop took).

`Sampler.normalize` scales an op's time by the mean ratio of the
samples taken within WINDOW_S of the op, or by the nearest sample.
The result is "seconds at reference speed": the time the op would take
on a machine where the loop takes REFERENCE_S.  Handler time that fell inside an op is
subtracted from that op first.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

TICK_S = 0.02
WINDOW_S = 0.06
REFERENCE_S = 0.00025
_ITERATIONS = 1200
_ROWS = [((i * 0x9E3779B97F4A7C15) ** 9) & ((1 << 1024) - 1) for i in range(1, 33)]


def reference_loop() -> int:
    # ints only: allocating tuples here would move the interpreter's
    # garbage collections into random ops
    acc = 0
    for i in range(_ITERATIONS):
        acc += (_ROWS[i & 31] & _ROWS[(i * 7) & 31]).bit_count()
        acc ^= i * 3
    return acc


def ratio_now(samples: int = 25) -> float:
    """Median speed ratio over `samples` back-to-back reference loops."""
    ratios = []
    for _ in range(samples):
        t0 = perf_counter()
        reference_loop()
        ratios.append(REFERENCE_S / (perf_counter() - t0))
    return statistics.median(ratios)


class Sampler:
    """Samples the speed ratio every TICK_S while running."""

    def __init__(self):
        self.times: list[float] = []
        self.ratios: list[float] = []
        self.spent = 0.0   # seconds spent in the handler so far

    def sample(self, signum=None, frame=None):
        """Time one reference loop; the SIGALRM handler."""
        t0 = perf_counter()
        reference_loop()
        t1 = perf_counter()
        self.times.append(t0)
        self.ratios.append(REFERENCE_S / (t1 - t0))
        self.spent += t1 - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def normalize(self, t0: float, t1: float, seconds: float) -> float:
        """`seconds` measured over [t0, t1], at reference speed."""
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:   # none close by: take the nearest one
            lo = min(max(lo - 1, 0), len(self.times) - 1)
            hi = lo + 1
        return seconds * statistics.fmean(self.ratios[lo:hi])
