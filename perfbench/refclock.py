"""Reference clock: a fixed pure-Python loop timed next to every measurement.

The host this benchmark was defined on (a shared 2-core VM) changes speed by
up to 1.5x over periods of seconds, and the same slowdown stretches the
softrig calls and this loop alike.  Timing the loop right before and right
after each measured interval and scaling the interval by
``REF_NOMINAL_S / (mean of the two loop times)`` reports every time at one
reference speed, which cuts the run-to-run spread of the timings about
threefold.  Raw wall times are kept and printed next to the scaled ones.
"""
from __future__ import annotations

import math
import time

import numpy as np

# the loop's typical time on the machine the benchmark was defined on
# (2 cores, Python 3.11); scaled times read as wall times at that speed
REF_NOMINAL_S = 0.014
_LOOP_N = 20_000
_SOLVES = 700


def reference_seconds() -> float:
    """Wall seconds of one fixed pass of interpreter and small-matrix work."""
    t0 = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(_LOOP_N):
        acc += math.sqrt((i % 97) * 0.5 + 1.0)
        table[i & 255] = acc
    gram = np.eye(5) + 0.1
    rhs = np.ones(5)
    for _ in range(_SOLVES):
        gram[0, 0] += 1e-9 * np.linalg.solve(gram, rhs)[0]
    return time.perf_counter() - t0


def timed(fn, *args):
    """Run fn(*args) between two reference loops.

    Returns (result, wall seconds, wall seconds at reference speed).
    """
    before = reference_seconds()
    t0 = time.perf_counter()
    result = fn(*args)
    wall = time.perf_counter() - t0
    ref = 0.5 * (before + reference_seconds())
    return result, wall, wall * REF_NOMINAL_S / ref
