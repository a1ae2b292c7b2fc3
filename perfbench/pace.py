"""The host's speed during a run, read from a fixed reference kernel.

The benchmark runs on a few cores of a shared host whose speed swings
within seconds: the same pure-Python loop takes anywhere from 25 to 50 ms
depending on what the neighbours do.  Such swings move every timing of a
run together, and they last long enough to move the median of a whole run.

So a run times a fixed reference kernel, which does not touch `rbst`,
every `EVERY_S` seconds of the op loop and back to back around each
single-shot timing.  A gated time is then given in units of the kernel's
time measured next to it (unit `xref`): the median over the `NEAREST`
samples closest in time to the timing's midpoint.  The ratio holds still
while the host speeds up or slows down and moves when rbst's own work
changes.  The raw times are printed beside it.
"""

from __future__ import annotations

import gc
import struct
import time
from bisect import bisect_left
from statistics import median

EVERY_S = 0.1      # kernel sample period inside the op loop
NEAREST = 7        # samples whose median is the unit of one timing
BURST = 3          # samples taken back to back before and after a single-shot timing


_RECORD = struct.Struct("<4q")


class _Node:
    def __init__(self, key, left, right, weight):
        self.key, self.left, self.right, self.weight = key, left, right, weight


def kernel() -> int:
    """Fixed interpreter work of the kinds rbst does.

    Dict stores, a sort, packing records into bytes and unpacking them into
    small objects, as the block store and the image code do.
    """
    table = {}
    for i in range(1000):
        table[i * 2654435761 % 1000003] = (i, i + 1)
    items = sorted(table.items())
    data = b"".join(_RECORD.pack(k, a, b, k ^ a) for k, (a, b) in items)
    nodes = [_Node(*vals) for vals in _RECORD.iter_unpack(data)]
    return sum(node.left for node in nodes[::7])


class Pace:
    def __init__(self):
        self.at: list[float] = []      # perf_counter() when each sample started
        self.took: list[float] = []    # seconds the kernel took
        self.due = 0.0

    def sample(self) -> None:
        # The collector stays off, so that no collection of the benchmark's
        # own heap lands in a sample.
        gc.disable()
        try:
            kernel()                   # first pass refills the caches the last op used
            t0 = time.perf_counter()
            kernel()
            self.took.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.at.append(t0)

    def burst(self) -> None:
        for _ in range(BURST):
            self.sample()

    def tick(self) -> None:
        """Called between ops: takes a sample once every EVERY_S seconds."""
        now = time.perf_counter()
        if now >= self.due:
            self.sample()
            self.due = now + EVERY_S

    def unit(self, t: float) -> float:
        """Median kernel time over the NEAREST samples closest to time `t`."""
        at = self.at
        lo = hi = bisect_left(at, t)
        while hi - lo < NEAREST and (lo > 0 or hi < len(at)):
            if hi == len(at) or (lo > 0 and t - at[lo - 1] <= at[hi] - t):
                lo -= 1
            else:
                hi += 1
        return median(self.took[lo:hi])

    def ratio(self, start: float, seconds: float) -> float:
        """A timing of `seconds` that began at `start`, in units of the kernel's time."""
        return seconds / self.unit(start + seconds / 2)
