"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of a core changes by up to 2x, for stretches of
a few seconds to a few minutes, as other tenants come and go. A run of a
minute can fall wholly in a slow stretch, so no statistic over the run's own
timings repeats from run to run. The pacer times a fixed pure-Python loop
(dict, tuple and frozenset work, like the compiler's) after every timed unit
and rescales the unit's seconds by REF_SECONDS over the mean of the loop's
times just before and after it: the result is the unit's time on a host
where the loop takes REF_SECONDS, the loop's unhindered time on the 2-vCPU
Xeon host the benchmark was tuned on. The loop is the benchmark's own code,
so a change to the compiler moves the rescaled times as much as the raw ones.
"""
from __future__ import annotations

import gc
from collections import defaultdict
from time import perf_counter

REF_SECONDS = 0.016


def _loop() -> float:
    d: dict = {}
    s = 0.0
    for i in range(30000):
        k = (i * 7919) % 4099
        d[k] = d.get(k, 0) + 1
        s += (i & 7) * 0.5
        if (k, i & 3) in d:
            s -= 1
    cache: dict = {}
    for i in range(9000):
        key = frozenset(((i * 31) % 97, (i * 17) % 89, i % 13))
        v = cache.get(key)
        if v is None:
            v = cache[key] = sorted(key, reverse=True)[0] * 1.5
        s += v
    return s


def calibrate() -> float:
    """Seconds of one run of the reference loop. The collector is off while it
    runs: a collection then would walk the compiler's heap, and the loop's
    time would follow the size of that heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Pacer:
    """Rescales timed units by the reference loop run around each of them."""

    def __init__(self):
        self.last = calibrate()
        self.samples: dict = defaultdict(list)

    def record(self, key, seconds: float) -> None:
        """Calibrate after a unit of `seconds` and file its rescaled time under `key`."""
        before, self.last = self.last, calibrate()
        self.samples[key].append(seconds * REF_SECONDS * 2 / (before + self.last))
