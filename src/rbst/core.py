"""Tree model: parameters, fan-out rule, read-only queries, invariant checker.

A tree is a handle over a block store.  Its parameters are the pair
(alpha, rho) that its image stores, rho = 0 meaning buffering disabled.
Every block stores the keys with the smallest priorities of its subtree;
the stored fan-out of a subtree of weight w is

    fanout_bound(w) = min(alpha + 1, max(1, ceil((w - alpha) / rho)))

for rho >= 1, and alpha + 1 for rho = 0.  Blocks with fan-out 1
and weight above alpha degenerate to a chain sorted by priority waves;
blocks with fan-out d >= 2 route searches through their d - 1 active
separators, the smallest-priority keys of their array.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from bisect import insort  # noqa: F401  (perfbench/tracing.py traces rbst.core.insort)
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .blocks import BlockNode
from .errors import ConfigError, InvalidRangeError, InvalidRankError, RbstError
from .priority import HashedPriority
from .store import ALPHA_MAX, RHO_MAX, BlockStore, ImageHeader, parse_image

NEG_INF = -1
POS_INF = 1 << 64
# the analysis constant in rho = ceil(c_rho * alpha / eps)
C_RHO = 108


@dataclass(frozen=True)
class Params:
    """Array size alpha and buffer parameter rho, exactly as an image stores them.

    rho = 0 disables buffering; rho >= 1 gives the buffer threshold
    beta = (alpha + 1) * rho.
    """

    alpha: int
    rho: int

    def __post_init__(self):
        if not 1 <= self.alpha <= ALPHA_MAX:
            raise ConfigError(f"alpha {self.alpha} outside 1..{ALPHA_MAX}")
        if not 0 <= self.rho <= RHO_MAX:
            raise ConfigError(f"rho {self.rho} outside 0..{RHO_MAX}")

    @classmethod
    def of(cls, alpha: int, eps: float, c_rho: int = C_RHO) -> "Params":
        """Buffered parameters with rho = ceil(c_rho * alpha / eps)."""
        if not 0 < eps <= 0.5:
            raise ConfigError(f"eps {eps} outside (0, 1/2]")
        if c_rho < 1:
            raise ConfigError(f"c_rho {c_rho} must be >= 1")
        return cls(alpha, math.ceil(c_rho * alpha / eps))

    @classmethod
    def unbuffered(cls, alpha: int) -> "Params":
        return cls(alpha, 0)

    @property
    def beta(self) -> int:
        return (self.alpha + 1) * self.rho


def fanout_bound(n_sub: int, params: Params) -> int:
    """Fan-out of a subtree holding n_sub keys."""
    if n_sub < 0:
        raise ConfigError(f"negative subtree weight {n_sub}")
    if params.rho == 0:
        return params.alpha + 1 if n_sub > 0 else 1
    return min(params.alpha + 1, max(1, -(-(n_sub - params.alpha) // params.rho)))


class Tree:
    """Handle over a store: root label, key count, parameters, priority source."""

    def __init__(self, store: BlockStore, params: Params, prio, root: int | None = None, n: int = 0):
        self.store = store
        self.params = params
        self.prio = prio
        self.root = root
        self.n = n

    @classmethod
    def empty(cls, params: Params, seed: int = 0) -> "Tree":
        return cls(BlockStore(params.alpha), params, HashedPriority(seed))

    def image(self) -> bytes:
        return self.store.image_bytes(ImageHeader(
            self.params.alpha, self.params.rho, self.prio.seed, self.n, self.root))

    def save(self, path: str) -> None:
        if not isinstance(self.prio, HashedPriority):
            raise ConfigError("an image persists only a hash seed; explicit ranks would be lost")
        data = self.image()
        with open(path, "wb") as fh:
            fh.write(data)

    @classmethod
    def load(cls, path: str) -> "Tree":
        with open(path, "rb") as fh:
            return cls.from_image_bytes(fh.read())

    @classmethod
    def from_image_bytes(cls, data: bytes) -> "Tree":
        store, header = parse_image(data)
        return cls(store, Params(header.alpha, header.rho), HashedPriority(header.seed),
                   header.root, header.n)


def active_separators(node: BlockNode, prio) -> list[int]:
    """The fanout-1 smallest-priority keys of the block, ascending by key."""
    d = node.fanout
    if d <= 1:
        return []
    if d - 1 >= len(node.keys):
        return list(node.keys)
    ranked = sorted(node.keys, key=prio.priority)[: d - 1]
    ranked.sort()
    return ranked


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


def successor(tree: Tree, q: int):
    """Smallest stored key >= q, or None."""
    store, prio = tree.store, tree.prio
    best = None
    cur = tree.root
    while cur is not None:
        for node in store.read_chain(cur):
            keys = node.keys
            i = bisect_left(keys, q)
            if i < len(keys) and (best is None or keys[i] < best):
                best = keys[i]
        if node.fanout <= 1:
            return best
        child = node.children[bisect_right(active_separators(node, prio), q)]
        cur = child.label if child is not None else None
    return best


def search_path_profile(tree: Tree, q: int) -> tuple[int, int]:
    """(primary, secondary) block visits of an unsuccessful search for q.

    q must be unstored: then the blocks whose interval meets (q - 1, q + 1)
    are exactly the root-to-leaf search path, and `scan_keys` reads them in
    path order.  Primary blocks carry the full fan-out alpha+1; everything
    else, including chain blocks, is secondary.
    """
    if tree.root is None:
        return 0, 0
    fanouts: list[int] = []
    scan_keys(tree.store, tree.prio, tree.root, q - 1, q + 1,
              on_block=lambda label, node: fanouts.append(node.fanout))
    primary = fanouts.count(tree.params.alpha + 1)
    return primary, len(fanouts) - primary


def range_report(tree: Tree, lo: int, hi: int) -> list[int]:
    """All stored keys in [lo, hi], ascending.

    One counted read per block that `scan_keys` visits.  Each block's keys in
    range are gathered by one slice and the O(k) gathered keys are sorted once
    in memory, as u64 (every stored key is one), which adds no read.
    """
    if lo > hi:
        raise InvalidRangeError(f"lo {lo} > hi {hi}")
    out: list[int] = []
    if tree.root is None:
        return out
    scan_keys(tree.store, tree.prio, tree.root, lo - 1, hi + 1, out=out)
    return np.sort(np.fromiter(out, np.uint64, len(out))).tolist()


def range_count(tree: Tree, lo: int, hi: int) -> int:
    """|X intersect [lo, hi]| using stored child weights to prune."""
    if lo > hi:
        raise InvalidRangeError(f"lo {lo} > hi {hi}")
    if tree.root is None:
        return 0
    store, prio = tree.store, tree.prio
    total = 0
    # (label, weight, ilo, ihi): a pending subtree and its exact open interval
    stack = [(tree.root, tree.n, NEG_INF, POS_INF)]
    while stack:
        label, weight, ilo, ihi = stack.pop()
        if lo <= ilo + 1 and ihi - 1 <= hi:
            total += weight
            continue
        for node in store.read_chain(label):
            total += bisect_right(node.keys, hi) - bisect_left(node.keys, lo)
        if node.fanout <= 1:
            continue
        seps = active_separators(node, prio)
        bounds = [ilo] + seps + [ihi]
        for i in range(len(seps), -1, -1):
            child = node.children[i]
            if child is not None and bounds[i + 1] - 1 >= lo and bounds[i] + 1 <= hi:
                stack.append((child.label, child.weight, bounds[i], bounds[i + 1]))
    return total


def select_kth(tree: Tree, k: int) -> int:
    """k-th smallest stored key, 1-based."""
    if not 1 <= k <= tree.n:
        raise InvalidRankError(f"rank {k} outside 1..{tree.n}")
    store, prio = tree.store, tree.prio
    # keys: those inside the current subtree's interval that live in the arrays
    # of buffering ancestors, then the walk's own; merged here by key value
    label, keys = tree.root, []
    while True:
        for node in store.read_chain(label):
            keys += node.keys
        if node.fanout <= 1:
            if k <= len(keys):
                return int(np.partition(np.fromiter(keys, np.uint64, len(keys)), k - 1)[k - 1])
            break
        seps = active_separators(node, prio)
        # the inactive keys and the ancestors', each slot's share cut out by its separator
        loose = sorted(key for key in keys if key not in seps)
        acc = start = 0
        for i in range(len(seps) + 1):
            child = node.children[i]
            end = bisect_left(loose, seps[i]) if i < len(seps) else len(loose)
            here = loose[start:end]
            start = end
            total = (child.weight if child is not None else 0) + len(here)
            if k <= acc + total:
                if child is None:
                    return here[k - acc - 1]
                label, k, keys = child.label, k - acc, here
                break
            acc += total
            if i < len(seps):
                acc += 1
                if k == acc:
                    return seps[i]
        else:
            break
    # slot weights that disagree with the keys below them (a corrupt loaded image)
    raise InvalidRankError(f"rank walk exhausted block {node.label}")


def scan_keys(store: BlockStore, prio, root_label: int, lo: int, hi: int,
              out: list[int] | None = None, on_block=None) -> None:
    """Visit every block of the subtree whose key interval can meet (lo, hi).

    Pre-order on an explicit stack of pending labels.  Each popped label is
    read through `store.read_chain`, which walks a chain to its end and
    stops at a block of fan-out above one: one counted read per block, one
    block pinned at a time, and the stack holds O(depth * alpha) labels.
    The children of a walk's last fan-out block are pushed after its pin
    drops.  Child intervals are derived from the visited block's own keys;
    missing outer bounds widen the test, which never adds spurious visits
    because a visited parent already overlaps (lo, hi).

    Each visited block appends its keys in (lo, hi) to `out` with one slice,
    so `out` gains them in pre-order and ascending within a block;
    on_block(label, node) runs once per visited block.  A partial rebuild
    gathers its section's keys, `range_report` its output and
    `search_path_profile` its path, with one call; a caller that leaves keys
    out filters `out` afterwards.
    """
    stack = [root_label]
    while stack:
        for node in store.read_chain(stack.pop()):
            if on_block is not None:
                on_block(node.label, node)
            if out is not None:
                keys = node.keys
                out += keys[bisect_right(keys, lo): bisect_left(keys, hi)]
        if node.fanout <= 1:
            continue
        seps = active_separators(node, prio)
        bounds = [NEG_INF] + seps + [POS_INF]
        # reverse slot order, so the leftmost child is visited next
        for i in range(len(seps), -1, -1):
            child = node.children[i]
            if child is not None and bounds[i] < hi and bounds[i + 1] > lo:
                stack.append(child.label)


# ---------------------------------------------------------------------------
# invariant checker
# ---------------------------------------------------------------------------


@dataclass
class InvariantReport:
    ok: bool
    violations: list[str]


def _block_extremes(prio, blocks) -> dict:
    """Store label -> (minimum priority, maximum priority) of each block, from one
    `prio.ranks` call and two segment reductions over the blocks' offsets; a rank
    tie goes to a block's first key for the minimum and its last for the maximum.
    Empty if the batch holds a key outside u64 or `prio` refuses it."""
    batch = {label: node.keys for label, node in blocks.items() if node.keys}
    try:
        keys = np.fromiter(chain.from_iterable(batch.values()), np.uint64)
        ranks = prio.ranks(keys)
    except (OverflowError, RbstError):
        return {}
    sizes = np.fromiter(map(len, batch.values()), np.intp, len(batch))
    starts = np.cumsum(sizes) - sizes
    low, high = np.minimum.reduceat(ranks, starts), np.maximum.reduceat(ranks, starts)
    at_low = np.flatnonzero(ranks == np.repeat(low, sizes))
    at_high = np.flatnonzero(ranks == np.repeat(high, sizes))
    first = keys[at_low[np.searchsorted(at_low, starts)]].tolist()
    last = keys[at_high[np.searchsorted(at_high, starts + sizes) - 1]].tolist()
    return dict(zip(batch, zip(zip(low.tolist(), first), zip(high.tolist(), last))))


_VISIT, _SLOT, _CLOSE = range(3)


def check_invariants(tree: Tree) -> InvariantReport:
    """Verify every structural invariant; violations are data, not errors.

    One explicit stack of frames walks the tree in pre-order (chains can
    outgrow the recursion limit).  A visit frame checks one block; a slot
    frame runs a fan-out block's per-slot checks from one slot on, once the
    earlier slots' subtrees are done; a close frame compares a slot's weight
    with the keys counted since its child was opened, on one running count.
    Each block's priority extremes come from `_block_extremes`, or from
    `tree.prio` when it leaves them out (where an unranked key raises).  A
    child label's priority is its block's minimum when that block is labelled
    by its minimum-priority key, else `tree.prio`'s, as are separators.
    With no root the walk is empty, so a nonzero n fails the closing key count
    and any block is unreachable; a root label the store lacks is dangling."""
    params, prio, blocks = tree.params, tree.prio, tree.store.blocks
    alpha = params.alpha
    bad: list[str] = []
    seen: set[int] = set()
    table, counted = _block_extremes(prio, blocks), 0

    def priority(label: int):
        entry = table.get(label)
        return entry[0] if entry is not None and entry[0][1] == label else prio.priority(label)

    # (_VISIT, label, weight, parent, depth, lo, hi), (_CLOSE, parent, label, weight,
    # count at opening), (_SLOT, label, node, first slot, bounds, max priority, weight, depth)
    stack = [] if tree.root is None else [(_VISIT, tree.root, tree.n, None, 0, NEG_INF, POS_INF)]
    while stack:
        frame = stack.pop()
        if frame[0] == _CLOSE:
            _, parent, label, weight, opened = frame
            if counted - opened != weight:
                bad.append(f"block {parent}: slot weight {weight} for child {label}, "
                           f"true count {counted - opened}")
            continue
        if frame[0] == _SLOT:
            _, label, node, first, bounds, p_max, weight, depth = frame
            for i in range(first, alpha + 1):
                child = node.children[i]
                if child is None:
                    continue
                if i >= len(bounds) - 1:
                    bad.append(f"block {label}: child slot {i} beyond fanout {node.fanout}")
                    continue
                if weight <= alpha:
                    bad.append(f"block {label}: child below a subtree of weight {weight}")
                    continue
                if priority(child.label) <= p_max:
                    bad.append(f"block {label}: child {child.label} has priority below the array")
                stack += ((_SLOT, label, node, i + 1, bounds, p_max, weight, depth),
                          (_CLOSE, label, child.label, child.weight, counted),
                          (_VISIT, child.label, child.weight, label, depth + 1,
                           bounds[i], bounds[i + 1]))
                break
            continue
        _, label, weight, parent, depth, lo, hi = frame
        if label in seen:
            bad.append(f"block {label}: reachable twice")
            continue
        seen.add(label)
        node = blocks.get(label)
        if node is None:
            bad.append(f"block {label}: dangling reference")
            continue
        keys = node.keys
        counted += len(keys)
        local = node.local_violation(alpha)
        if local:
            bad.append(local)
            continue
        if node.parent != parent:
            bad.append(f"block {label}: parent {node.parent}, want {parent}")
        if node.depth != depth:
            bad.append(f"block {label}: depth {node.depth}, want {depth}")
        if node.label != label:
            bad.append(f"block {label}: label field {node.label}")
        p_min, p_max = table.get(label) or (min(map(prio.priority, keys)),
                                            max(map(prio.priority, keys)))
        if p_min[1] != label:
            bad.append(f"block {label}: label is not the minimum-priority key")
        # the keys ascend (local_violation), so the ends decide; the loop names a fault
        if not (lo < keys[0] and keys[-1] < hi):
            for key in keys:
                if not lo < key < hi:
                    bad.append(f"block {label}: key {key} outside interval ({lo},{hi})")
        if node.fanout != fanout_bound(weight, params):
            bad.append(f"block {label}: fanout_state {node.fanout}, "
                       f"want {fanout_bound(weight, params)} for weight {weight}")
        if weight >= alpha and len(keys) != alpha:
            bad.append(f"block {label}: {len(keys)} keys in a subtree of {weight}")
        if weight < alpha and len(keys) != weight:
            bad.append(f"block {label}: {len(keys)} keys, want {weight}")

        if node.fanout > 1:
            bounds = [lo] + active_separators(node, prio) + [hi]
            stack.append((_SLOT, label, node, 0, bounds, p_max, weight, depth))
            continue
        if any(node.children[1:]):
            bad.extend(f"block {label}: chain block uses slot {i}"
                       for i, child in enumerate(node.children) if i and child is not None)
        child = node.children[0]
        if child is not None:
            if weight <= alpha:
                bad.append(f"block {label}: chain continues below weight {weight}")
            if priority(child.label) <= p_max:
                bad.append(f"block {label}: chain priorities not ascending")
            if child.weight != weight - len(keys):
                bad.append(f"block {label}: chain weight {child.weight}, want {weight - len(keys)}")
            stack += ((_CLOSE, label, child.label, child.weight, counted),
                      (_VISIT, child.label, child.weight, label, depth + 1, lo, hi))
        elif weight > alpha:
            bad.append(f"block {label}: missing chain for weight {weight}")
    if counted != tree.n:
        bad.append(f"tree: {counted} keys reachable, header says {tree.n}")
    stray = set(blocks) - seen
    if stray:
        bad.append(f"store: unreachable blocks {sorted(stray)[:5]}")
    return InvariantReport(not bad, bad)
