"""Workload definitions and their seeded operation streams.

Every workload starts from n = 100,000 keys drawn by `metrics.sample_keys`
and then issues one operation at a time (closed loop, one client).  The
stream is a pure function of the seed and of the key set the stream itself
has produced so far, so two runs with the same seed issue the same
operations in the same order, whatever the speed of the program.

An update's cost on `churn-a16` is set by the length of the chain it lands
in, and the chains of one tree at alpha = 16 are long and few, so over a
thousand updates the median cycle time of one tree still differs by about
a tenth from seed to seed.  That workload's untraced run therefore takes
turns on three trees drawn from seeds derived from `--seed` (`tree_seed`);
the first is the tree of `--seed` itself, which the traced run and the
exact counts use.

Op kinds are issued in cycles: each cycle holds the workload's exact mix
and is shuffled by the seed.  Range spans follow a log-uniform law drawn
through a golden-ratio sequence with a seeded offset.  Both keep the mix
and the span profile of any prefix close to the stated law, so runs with
different seeds measure the same amount of work.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass

N_KEYS = 100_000
GOLDEN = (math.sqrt(5) - 1) / 2
KEY_BITS = 63          # sample_keys draws from [0, 2^63)


@dataclass(frozen=True)
class Workload:
    name: str
    alpha: int
    eps: float
    c_rho: int
    cycle: tuple[str, ...]   # op kinds of one cycle, in the stated proportions
    shuffle: bool            # shuffle each cycle (interleaved) or keep its order
    count_window: int        # ops over which the exact I/O counts are reported
    why: str
    trees: int = 1           # independent starting trees the untraced run takes turns on


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "query-a4", 4, 0.5, 108,
            ("successor",) * 6 + ("range_report",) * 2 + ("range_count", "select_kth"),
            True, 1000,
            "read-only; long priority-wave chains make store read/release the main "
            "cost, and long ranges show range_report's per-key insort",
        ),
        Workload(
            "churn-a16", 16, 0.5, 108, ("insert", "delete"), False, 200,
            "updates land in chains of ~200 blocks (list-insert/list-delete); "
            "priority hashing dominates and the rebuild passes never run",
            trees=3,
        ),
        Workload(
            "mixed-a4-c2", 4, 0.5, 2,
            ("successor", "successor", "insert", "delete"), True, 1000,
            "short chains: full fan-out blocks, ~30% of updates take the partial "
            "rebuild path; shallow queries interleaved with writes",
        ),
    )
}

def tree_seed(seed: int, j: int) -> int:
    """Seed of the j-th starting tree of a run with `seed`; tree 0 uses `seed`."""
    return seed + 1_000_003 * j


QUERY_KINDS = ("successor", "range_report", "range_count", "select_kth")
UPDATE_KINDS = ("insert", "delete")


def op_stream(wl: Workload, seed: int, ref: list[int], present: set[int]):
    """Yield (kind, args) forever.

    `ref` (sorted) and `present` are the caller's model of the key set; the
    caller applies each update to them before asking for the next op.
    """
    rng = random.Random(seed * 7919 + 1)
    span_max = math.log(N_KEYS // 8)
    span_u = rng.random()
    cycle = list(wl.cycle)
    while True:
        if wl.shuffle:
            rng.shuffle(cycle)
        for kind in cycle:
            if kind == "successor":
                yield kind, (rng.getrandbits(KEY_BITS),)
            elif kind in ("range_report", "range_count"):
                span_u = (span_u + GOLDEN) % 1.0
                span = max(1, int(math.exp(span_u * span_max)))
                i = rng.randrange(len(ref))
                yield kind, (ref[i], ref[min(i + span - 1, len(ref) - 1)])
            elif kind == "select_kth":
                yield kind, (rng.randrange(len(ref)) + 1,)
            elif kind == "insert":
                key = rng.getrandbits(KEY_BITS)
                while key in present:
                    key = rng.getrandbits(KEY_BITS)
                yield kind, (key,)
            else:
                yield kind, (ref[rng.randrange(len(ref))],)


def expected(kind: str, args: tuple, ref: list[int]):
    """Reference answer of a query from the sorted key list."""
    if kind == "successor":
        i = bisect_left(ref, args[0])
        return ref[i] if i < len(ref) else None
    if kind == "range_report":
        return ref[bisect_left(ref, args[0]): bisect_left(ref, args[1] + 1)]
    if kind == "range_count":
        return bisect_left(ref, args[1] + 1) - bisect_left(ref, args[0])
    return ref[args[0] - 1]
