"""A fixed probe of how fast the machine runs right now.

On a shared host the same code can run twice as fast in one minute as in
the next, because other tenants contend for the caches and memory of the
cores this benchmark is given.  Timed jobs alone cannot tell such a slow
spell from a slower program.  So `run.py` runs this probe before every
timed process and once after the last, and scales the run's times by
REFERENCE_S / (mean probe time of the run): a reported second is a second
at the speed the probe had when REFERENCE_S was taken.  In three batches
of five runs per workload on that machine, a run's mean probe time and
the unscaled time of its schedule correlated (in logs) at 0.53 to 0.99,
with a regression slope of 0.45 to 1.8, near 1 on average.

The probe is the benchmark's own code and reads nothing of the program, so
no change to the program can move it.  It mixes interpreter-bound work
(dict and tuple churn, as in the program's per-object loops) and array
work on a few megabytes (gather, bincount, sort and cumsum, as in its
seed sweeps), about half of each, since a slow spell slows both.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Mean probe time of a typical run on the machine described in meta.json
# (the median over fifteen runs of the three workloads).
REFERENCE_S = 0.0114

_RNG = np.random.default_rng(20240101)
_INDEX = _RNG.integers(0, 1 << 14, size=1 << 18)
_VALUES = _RNG.random(1 << 18)


def _interpreter_work() -> float:
    table: dict[tuple[int, int], float] = {}
    for i in range(13000):
        key = (i % 251, i & 7)
        table[key] = table.get(key, 0.0) + i * 0.5
    return sum(v for _, v in sorted(table.items()))


def _array_work() -> float:
    gathered = _VALUES[_INDEX]
    hist = np.bincount(_INDEX, weights=gathered, minlength=1 << 14)
    return float(hist.sum() + np.cumsum(gathered)[-1] + np.sort(gathered[::2])[0])


def probe_s(rounds: int = 8) -> float:
    """Mean seconds of one round of the fixed work, over `rounds` rounds.

    The first round, which refills the caches a timed process has just
    evicted, is left out.
    """
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        _interpreter_work()
        _array_work()
        times.append(time.perf_counter() - t0)
    return statistics.fmean(times[1:])
