"""A fixed reference computation that gauges the host's speed.

On a shared host the same Python code runs 30-60% slower for a minute or
more at a time, when other tenants load the machine.  Every pass times
`kernel()` right before and right after it calls the program, in the same
process; the benchmark scales the pass's timings by `NOMINAL_S` over the
reference time measured next to them, so a timing reads as it would at the
speed at which the kernel takes `NOMINAL_S`.

The kernel is the benchmark's own code and calls nothing in `horaprove`, so
a change to the program cannot move it.  Its mix mirrors the prover's and
the oracle's inner loops in pure Python: sparse polynomial products over
dicts keyed by exponent tuples, integer coefficients that grow, and
`Fraction` arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# Median kernel time on a 2-vCPU Xeon virtual machine, Python 3.11.7.
NOMINAL_S = 0.004

_BASE = {
    (i, j, k): (3 * i - 2 * j + k) % 7 - 3 or 1
    for i in range(-2, 3) for j in range(2) for k in range(2)
}


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(exps, 0) + c1 * c2
            if s:
                out[exps] = s
            else:
                del out[exps]
    return out


def kernel() -> int:
    """One fixed unit of work; returns a checksum so none of it is skipped."""
    poly = _mul(_mul(_BASE, _BASE), _BASE)
    total = Fraction(0)
    for n in range(1, 100):
        total += Fraction(n * n - 3, 2 * n + 1) * Fraction(-1) ** n
    return len(poly) + sum(poly.values()) + total.numerator % 1000


def measure(reps: int) -> list:
    """Seconds taken by each of `reps` kernel calls."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        kernel()
        times.append(perf_counter() - start)
    return times
