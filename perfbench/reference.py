"""A fixed reference task that measures how fast the host runs right now.

The measuring machine is a small virtual machine on a shared host.  Its
speed follows the other tenants' load, by up to a factor of two.  It
changes within seconds and can stay changed for minutes, longer than a run,
so medians over a run do not remove it; and it shows in CPU time as well as
in wall time, so it is not stolen time that a CPU clock would leave out.

The benchmark therefore times this task next to the ops it measures and
reports op times in *normalized seconds*: wall seconds scaled by
``REFERENCE_S / measured``, the seconds the op would take on a host where the
task takes ``REFERENCE_S``.  The task is plain Python on ``fractions``
and ``dict``: sparse polynomial products with tuple monomials and rational
coefficients, the same kind of work as eikq's hot paths, but none of eikq's
code, so a change to eikq leaves it alone.  Its inputs are fixed, not
seeded, so every run times the same task.
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

# The task's time on an undisturbed core of the measuring machine (a 2-core
# x86 virtual machine, Python 3.11), so that normalized seconds read close
# to wall seconds there.
REFERENCE_S = 0.006

REPEATS = 6


def _operands():
    rng = random.Random(0)

    def poly(terms):
        return {tuple(rng.randrange(4) for _ in range(6)):
                Fraction(rng.randrange(1, 99) * rng.choice((-1, 1)), rng.randrange(1, 50))
                for _ in range(terms)}

    return poly(40), poly(40)


_A, _B = _operands()


def task() -> dict:
    out: dict = {}
    for ma, ca in _A.items():
        for mb, cb in _B.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return out


def measure() -> float:
    """Seconds the task takes now: the median of REPEATS timings."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        task()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
