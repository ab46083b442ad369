"""Machine-speed probe: a fixed pure-Python kernel timed between requests.

On a shared host the CPU this process gets changes speed by up to 1.8x in
phases of seconds to tens of seconds (measured with a fixed loop on a
2-core x86 VM; process time slows with wall time, so it is not scheduling).
The benchmark times this kernel before and after every timed request and
scales the request's wall time by NOMINAL_S over the kernel's time around
it: the end-to-end timings are wall seconds at the speed at which the kernel
takes NOMINAL_S. The kernel shares no code with ndlp, so a change to the
engine that saves a share of a request's wall time saves the same share of
its scaled time at any given machine speed. The correction is partial: in
slow phases the kernel slows somewhat more than the engine does. The
unscaled figures are kept in the results record.
"""

from __future__ import annotations

import gc
import statistics
import time

# Median time of `kernel()` on a 2-core x86 VM (Python 3.11.7). Any fixed
# value works for comparisons; this one keeps the scaled figures near the
# wall times seen there.
NOMINAL_S = 0.0025
REPEATS = 3


def kernel() -> int:
    """What the engine spends its time on: tuple and string keys in dicts
    and sets, frozensets, small allocations and a sort."""
    table: dict = {}
    seen: set = set()
    for i in range(2000):
        key = ("p", i % 211, f"c{i % 17}")
        table[key] = table.get(key, 0) + 1
        seen.add(frozenset((i % 31, i % 7, key[2])))
    return len(table) + len(seen) + len(sorted(table))


def sample() -> float:
    """Seconds the kernel takes now: the median of REPEATS runs, with the
    garbage of the last request collected first and the collector off, so
    neither a stray interrupt nor a collection of the engine's heap counts."""
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def scale(wall: list[float], probes: list[float]) -> list[float]:
    """Wall times scaled to the nominal speed; `probes` has one sample
    before each time and one after the last."""
    assert len(probes) == len(wall) + 1
    return [t * NOMINAL_S / ((before + after) / 2)
            for t, before, after in zip(wall, probes, probes[1:])]
