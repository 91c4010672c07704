"""The reference loop: a fixed piece of pure-Python work that times the host.

Every end-to-end time of the benchmark is an op's wall time divided by the
wall time of `reference()` measured next to it, in the same process, a few
hundred milliseconds earlier or later.  The shared host the benchmark was
built on runs a process anywhere from 1.0 to 1.9 times slower from one
second to the next; the reference slows with it, so the ratio stays put
while the raw times do not (README.md, "Why reference units").

The loop does the kinds of work canpencil does -- small-int arithmetic,
modular `pow`, dict and tuple traffic, `Fraction` arithmetic -- and none
of canpencil's code, so a change to the program moves only the numerator.
It takes about 3 ms on an unloaded 2-vCPU Xeon VM with Python 3.11.  Do
not change it: its time is the unit of every end-to-end metric, and
results from before and after a change to it cannot be compared.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

P = 10007


def reference() -> int:
    acc = 0
    table = {}
    for i in range(1, 6001):
        key = (i % 97, i % 89)
        acc = (acc * 31 + pow(i, 5, P) + table.get(key, 0)) % P
        table[key] = acc
    q = Fraction(1, 3)
    for i in range(1, 121):
        q = q * Fraction(i + 2, i + 1) - Fraction(acc % 7 + 1, i + 3)
    return acc + q.numerator % P


def time_reference() -> float:
    """Wall seconds of one reference() call."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
