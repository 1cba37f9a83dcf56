"""Machine-speed calibration for runs on a shared, fluctuating host.

On a host whose other tenants come and go, the same Python code runs up
to twice as slow at times, in stretches of a fraction of a second to
several seconds.  A fixed calibration snippet, mixing the kinds of work
netmatch does (Fraction arithmetic, frozensets and dicts, a small numpy
reduction), is timed right before and right after every operation.  An
operation's slowdown is the median of those two samples and the median
sample of the whole run (so that one sample hit by a pause cannot skew
it), divided by REFERENCE_S.  Its time is divided by its slowdown, and a
rate multiplied, which puts every operation on the scale of a machine
that runs the snippet in REFERENCE_S.  The raw wall-clock numbers are
reported next to the scaled ones.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

#: Snippet time that defines the reference speed; about its median on
#: the machine the recorded baselines come from.
REFERENCE_S = 0.002

def snippet() -> int:
    total = Fraction(0)
    for i in range(1, 120):
        total += Fraction(i % 7 + 1, i)
    sets = {frozenset((i % 97, i * 3 % 11, i % 5)) for i in range(1500)}
    sizes: dict[int, int] = {}
    for s in sets:
        sizes[len(s)] = sizes.get(len(s), 0) + 1
    arr = np.arange(4096) % 13
    return int((arr * arr).sum()) + len(sizes) + total.numerator % 7


class Meter:
    """Calibration samples taken during a run."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        start = perf_counter()
        snippet()
        self.samples.append(perf_counter() - start)
        return self.samples[-1]


def slowdowns(pairs: list) -> list[float]:
    """Slowdown of each operation from its (before, after) samples."""
    typical = statistics.median(x for pair in pairs for x in pair)
    return [statistics.median((before, after, typical)) / REFERENCE_S
            for before, after in pairs]
