"""The host's speed, read from a fixed pure-Python loop that does not call
the package.

The virtual machines this benchmark runs on drift: the same code runs up to
40% slower for spells of seconds to minutes, and the guest sees no steal
time for it, so neither wall nor CPU time of an operation is steady between
runs.  The loop drifts with the package's own code, so the benchmark times
the loop next to the operations and reports every time scaled to a host on
which the loop takes NOMINAL_S: a time t measured while the loop takes r
is reported as t * NOMINAL_S / r.
"""

import time

LOOP_N = 60_000
REPEATS = 3
# about the loop's median time on the machine whose reference figures
# README.md gives; a fixed constant, so that a reported time means the same
# in every run and on every commit
NOMINAL_S = 0.0045


def loop_s():
    """The fastest of REPEATS timings of the loop, in seconds."""
    best = None
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(LOOP_N):
            acc += i * i % 7
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def scale(before, after):
    """Factor that takes a time measured between loop timings `before` and
    `after` to the nominal host."""
    return NOMINAL_S / (0.5 * (before + after))
