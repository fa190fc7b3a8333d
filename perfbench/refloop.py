"""A fixed pure-Python reference loop for reporting times at reference speed.

The machine's speed drifts by tens of percent from second to second. The
loop runs in the benchmark's own process, where no object of qfock is
alive: around every operation and, with the worker stopped, every 0.1 s
while it runs. An elapsed time is scaled by NOMINAL_S / (elapsed loop time)
and a CPU time by NOMINAL_S / (CPU loop time). The loop does the kind of
work qfock does most: small-integer and Fraction arithmetic, tuple keys and
dict updates."""

import statistics
import time
from fractions import Fraction

NOMINAL_S = 0.006  # one loop at reference speed
REPEATS = 2


def _loop():
    acc = {}
    x = 12345
    f = Fraction(0)
    for k in range(6000):
        x = (x * 1103515245 + 12345) % 2147483648
        key = (x & 63, k & 7)
        acc[key] = acc.get(key, 0) + (x >> 9)
        if not k & 15:
            f += Fraction(x & 255, 1 + (k & 31))
    return len(acc), f


def one():
    """Elapsed and CPU time of one loop, in seconds."""
    start, cpu = time.perf_counter(), time.process_time()
    _loop()
    return time.perf_counter() - start, time.process_time() - cpu


def measure():
    """one() for REPEATS loops."""
    return [one() for _ in range(REPEATS)]


def typical(times):
    """Mean loop time with the slowest and fastest tenth left out."""
    times = sorted(times)
    cut = len(times) // 10
    return statistics.fmean(times[cut : len(times) - cut])
