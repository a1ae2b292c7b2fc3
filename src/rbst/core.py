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
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass

from .blocks import BlockNode
from .errors import ConfigError, InvalidRangeError, InvalidRankError
from .priority import HashedPriority
from .store import ALPHA_MAX, RHO_MAX, BlockStore, ImageHeader, parse_image

NEG_INF = -1
POS_INF = 1 << 64


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
    def of(cls, alpha: int, eps: float, c_rho: int = 108) -> "Params":
        """Buffered parameters with rho = ceil(c_rho * alpha / eps)."""
        if not 0 < eps <= 0.5:
            raise ConfigError(f"eps {eps} outside (0, 1/2]")
        if c_rho < 1:
            raise ConfigError(f"c_rho {c_rho} must be >= 1")
        return cls(alpha, math.ceil(c_rho * alpha / eps))

    @classmethod
    def explicit(cls, alpha: int, rho: int) -> "Params":
        return cls(alpha, rho)

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
    if n_sub == 0:
        return 1
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
            self.params.alpha, self.params.rho, self.prio.seed_tag, self.n, self.root))

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

    # convenience delegates; the implementations live in their modules
    def insert(self, key: int):
        from .update import insert
        return insert(self, key)

    def delete(self, key: int):
        from .update import delete
        return delete(self, key)

    def successor(self, q: int):
        return successor(self, q)

    def range_report(self, lo: int, hi: int):
        return range_report(self, lo, hi)

    def range_count(self, lo: int, hi: int) -> int:
        return range_count(self, lo, hi)

    def select_kth(self, k: int) -> int:
        return select_kth(self, k)


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
        node = store.read(cur)
        i = bisect_left(node.keys, q)
        if i < len(node.keys) and (best is None or node.keys[i] < best):
            best = node.keys[i]
        if node.fanout <= 1:
            child = node.children[0]
            store.release(cur)
            cur = child.label if child is not None else None
            continue
        seps = active_separators(node, prio)
        child = node.children[bisect_right(seps, q)]
        store.release(cur)
        cur = child.label if child is not None else None
    return best


def search_path_profile(tree: Tree, q: int) -> tuple[int, int]:
    """(primary, secondary) block visits of an unsuccessful search for q.

    Primary blocks carry the full fan-out alpha+1; everything else,
    including chain blocks, is secondary.
    """
    store, prio = tree.store, tree.prio
    full = tree.params.alpha + 1
    primary = secondary = 0
    cur = tree.root
    while cur is not None:
        node = store.read(cur)
        if node.fanout == full:
            primary += 1
        else:
            secondary += 1
        if node.fanout <= 1:
            child = node.children[0]
        else:
            seps = active_separators(node, prio)
            child = node.children[bisect_right(seps, q)]
        store.release(cur)
        cur = child.label if child is not None else None
    return primary, secondary


def range_report(tree: Tree, lo: int, hi: int) -> list[int]:
    """All stored keys in [lo, hi], ascending."""
    if lo > hi:
        raise InvalidRangeError(f"lo {lo} > hi {hi}")
    out: list[int] = []
    if tree.root is None:
        return out
    scan_keys(tree.store, tree.prio, tree.root, lo - 1, hi + 1,
              on_key=lambda k: insort(out, k))
    return out


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
        node = store.read(label)
        total += bisect_right(node.keys, hi) - bisect_left(node.keys, lo)
        if node.fanout <= 1:
            child = node.children[0]
            store.release(label)
            while child is not None:
                nxt = store.read(child.label)
                total += bisect_right(nxt.keys, hi) - bisect_left(nxt.keys, lo)
                label, child = child.label, nxt.children[0]
                store.release(label)
            continue
        seps = active_separators(node, prio)
        bounds = [ilo] + seps + [ihi]
        store.release(label)
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
    # extras: keys inside the current subtree's interval that live in the
    # arrays of buffering ancestors; merged here by key value
    label, extras = tree.root, []
    while True:
        node = store.read(label)
        if node.fanout <= 1:
            keys = sorted(node.keys + extras)
            child = node.children[0]
            store.release(label)
            while child is not None:
                nxt = store.read(child.label)
                keys.extend(nxt.keys)
                label, child = child.label, nxt.children[0]
                store.release(label)
            keys.sort()
            return keys[k - 1]
        seps = active_separators(node, prio)
        inactive = [key for key in node.keys if key not in seps]
        bounds = [NEG_INF] + seps + [POS_INF]
        store.release(label)
        acc = 0
        for i in range(len(seps) + 1):
            child, slo, shi = node.children[i], bounds[i], bounds[i + 1]
            here = sorted(
                [key for key in inactive if slo < key < shi]
                + [key for key in extras if slo < key < shi]
            )
            total = (child.weight if child is not None else 0) + len(here)
            if k <= acc + total:
                if child is None:
                    return here[k - acc - 1]
                label, k, extras = child.label, k - acc, here
                break
            acc += total
            if i < len(seps):
                acc += 1
                if k == acc:
                    return seps[i]
        else:
            raise InvalidRankError(f"rank walk exhausted block {label}")  # pragma: no cover


def scan_keys(store: BlockStore, prio, root_label: int, lo: int, hi: int,
              on_key=None, on_block=None, pi_floor=None, exclude=()) -> None:
    """Visit every block of the subtree whose key interval can meet (lo, hi).

    Pre-order on an explicit stack of pending labels: each block is read
    once and released before the next is read, so one block is pinned at a
    time and the stack holds O(depth * alpha) labels.  Child intervals are
    derived from the visited block's own keys; missing outer bounds widen
    the test, which never adds spurious visits because a visited parent
    already overlaps (lo, hi).

    on_key(key) runs for every stored key in (lo, hi) with priority above
    pi_floor and not in exclude; on_block(label, node) runs once per block.
    """
    excl = set(exclude)
    stack = [root_label]
    while stack:
        label = stack.pop()
        node = store.read(label)
        if on_block is not None:
            on_block(node.label, node)
        if on_key is not None:
            for key in node.keys[bisect_right(node.keys, lo): bisect_left(node.keys, hi)]:
                if key in excl:
                    continue
                if pi_floor is not None and prio.priority(key) <= pi_floor:
                    continue
                on_key(key)
        if node.fanout <= 1:
            if node.children[0] is not None:
                stack.append(node.children[0].label)
        else:
            seps = active_separators(node, prio)
            bounds = [NEG_INF] + seps + [POS_INF]
            # reverse slot order, so the leftmost child is visited next
            for i in range(len(seps), -1, -1):
                child = node.children[i]
                if child is not None and bounds[i] < hi and bounds[i + 1] > lo:
                    stack.append(child.label)
        store.release(label)


# ---------------------------------------------------------------------------
# invariant checker
# ---------------------------------------------------------------------------


@dataclass
class InvariantReport:
    ok: bool
    violations: list[str]


class _CachedPriorities:
    """Memoizing wrapper; the checker rehashes every key several times."""

    def __init__(self, prio):
        self._prio = prio
        self._cache: dict[int, tuple] = {}

    def priority(self, key: int):
        p = self._cache.get(key)
        if p is None:
            p = self._prio.priority(key)
            self._cache[key] = p
        return p


def check_invariants(tree: Tree) -> InvariantReport:
    """Verify every structural invariant; violations are data, not errors."""
    store, params = tree.store, tree.params
    prio = _CachedPriorities(tree.prio)
    alpha = params.alpha
    bad: list[str] = []
    seen: set[int] = set()

    if tree.root is None:
        if tree.n != 0:
            bad.append(f"tree: n={tree.n} with no root")
        if store.blocks:
            bad.append(f"store: {len(store.blocks)} blocks with no root")
        return InvariantReport(not bad, bad)
    if tree.n == 0:
        bad.append("tree: n=0 with a root present")

    def visit(label: int, weight: int, parent: int | None, depth: int, lo: int, hi: int):
        """Appends one block's violations.  A generator, run on an explicit stack
        because chains can outgrow the recursion limit: yields the arguments
        of each child's visit, is sent back its true count, returns its own."""
        if label in seen:
            bad.append(f"block {label}: reachable twice")
            return 0
        seen.add(label)
        node = store.peek(label) if label in store.blocks else None
        if node is None:
            bad.append(f"block {label}: dangling reference")
            return 0
        local = node.local_violation(alpha)
        if local:
            bad.append(local)
            return len(node.keys)
        if node.parent != parent:
            bad.append(f"block {label}: parent {node.parent}, want {parent}")
        if node.depth != depth:
            bad.append(f"block {label}: depth {node.depth}, want {depth}")
        if min(node.keys, key=prio.priority) != label:
            bad.append(f"block {label}: label is not the minimum-priority key")
        for key in node.keys:
            if not lo < key < hi:
                bad.append(f"block {label}: key {key} outside interval ({lo},{hi})")
        if node.fanout != fanout_bound(weight, params):
            bad.append(
                f"block {label}: fanout_state {node.fanout}, "
                f"want {fanout_bound(weight, params)} for weight {weight}"
            )
        if weight >= alpha and len(node.keys) != alpha:
            bad.append(f"block {label}: {len(node.keys)} keys in a subtree of {weight}")
        if weight < alpha and len(node.keys) != weight:
            bad.append(f"block {label}: {len(node.keys)} keys, want {weight}")
        p_max = max(prio.priority(k) for k in node.keys)
        count = len(node.keys)

        if node.fanout <= 1:
            for i, child in enumerate(node.children):
                if i > 0 and child is not None:
                    bad.append(f"block {label}: chain block uses slot {i}")
            child = node.children[0]
            if child is not None:
                if weight <= alpha:
                    bad.append(f"block {label}: chain continues below weight {weight}")
                if prio.priority(child.label) <= p_max:
                    bad.append(f"block {label}: chain priorities not ascending")
                if child.weight != weight - len(node.keys):
                    bad.append(
                        f"block {label}: chain weight {child.weight}, "
                        f"want {weight - len(node.keys)}"
                    )
                count += yield child.label, child.weight, label, depth + 1, lo, hi
            elif weight > alpha:
                bad.append(f"block {label}: missing chain for weight {weight}")
        else:
            seps = active_separators(node, prio)
            bounds = [lo] + seps + [hi]
            for i, child in enumerate(node.children):
                if child is None:
                    continue
                if i > len(seps):
                    bad.append(f"block {label}: child slot {i} beyond fanout {node.fanout}")
                    continue
                if weight <= alpha:
                    bad.append(f"block {label}: child below a subtree of weight {weight}")
                    continue
                if prio.priority(child.label) <= p_max:
                    bad.append(
                        f"block {label}: child {child.label} has priority below the array"
                    )
                count += yield (child.label, child.weight, label, depth + 1,
                                bounds[i], bounds[i + 1])
        return count

    root_node = store.peek(tree.root) if tree.root in store.blocks else None
    if root_node is None:
        bad.append(f"tree: root label {tree.root} not in store")
        return InvariantReport(False, bad)
    stack, total = [(visit(tree.root, tree.n, None, 0, NEG_INF, POS_INF), None)], None
    while stack:
        walker, args = stack[-1]
        try:
            child = walker.send(total)
        except StopIteration as done:
            stack.pop()
            total = done.value
            if args is not None and total != args[1]:
                bad.append(f"block {args[2]}: slot weight {args[1]} for child "
                           f"{args[0]}, true count {total}")
            continue
        stack.append((visit(*child), child))
        total = None
    if total != tree.n:
        bad.append(f"tree: {total} keys reachable, header says {tree.n}")
    stray = set(store.blocks) - seen
    if stray:
        bad.append(f"store: unreachable blocks {sorted(stray)[:5]}")
    return InvariantReport(not bad, bad)
