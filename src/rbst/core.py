"""Tree model: parameters, fan-out rule, read-only queries, invariant checker.

A tree is a handle over a block store.  Every block stores the keys with
the smallest priorities of its subtree; the stored fan-out of a subtree
of weight w is

    fanout_bound(w) = min(alpha + 1, max(1, ceil((w - alpha) / rho)))

with buffering enabled, and alpha + 1 otherwise.  Blocks with fan-out 1
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
from .store import BlockStore, ImageHeader, load_image, parse_image, save_image

NEG_INF = -1
POS_INF = 1 << 64


@dataclass(frozen=True)
class Params:
    """Fan-out and buffering parameters.

    rho is the canonical stored parameter; eps is kept for bound
    reporting and is None on trees loaded from an image.
    """

    alpha: int
    rho: int
    eps: float | None = None
    c_rho: int = 108
    buffering: bool = True

    def __post_init__(self):
        if self.alpha < 1 or self.alpha > 65534:
            raise ConfigError(f"alpha {self.alpha} outside 1..65534")
        if self.eps is not None and not 0 < self.eps <= 0.5:
            raise ConfigError(f"eps {self.eps} outside (0, 1/2]")
        if self.buffering and self.rho < 1:
            raise ConfigError("rho must be >= 1 when buffering is enabled")

    @classmethod
    def of(cls, alpha: int, eps: float, c_rho: int = 108) -> "Params":
        if not 0 < eps <= 0.5:
            raise ConfigError(f"eps {eps} outside (0, 1/2]")
        rho = math.ceil(c_rho * alpha / eps)
        return cls(alpha=alpha, rho=rho, eps=eps, c_rho=c_rho, buffering=True)

    @classmethod
    def explicit(cls, alpha: int, rho: int, eps: float | None = None) -> "Params":
        return cls(alpha=alpha, rho=rho, eps=eps, buffering=True)

    @classmethod
    def unbuffered(cls, alpha: int) -> "Params":
        return cls(alpha=alpha, rho=0, eps=None, buffering=False)

    @property
    def beta(self) -> int:
        return (self.alpha + 1) * self.rho if self.buffering else 0


def fanout_bound(n_sub: int, params: Params) -> int:
    """Fan-out of a subtree holding n_sub keys."""
    if n_sub < 0:
        raise ConfigError(f"negative subtree weight {n_sub}")
    if not params.buffering:
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

    def header(self) -> ImageHeader:
        return ImageHeader(
            alpha=self.params.alpha,
            rho=self.params.rho if self.params.buffering else 0,
            seed=getattr(self.prio, "seed_tag", 0),
            n=self.n,
            root=self.root,
        )

    def image(self) -> bytes:
        return self.store.image_bytes(self.header())

    def save(self, path: str) -> None:
        if not isinstance(self.prio, HashedPriority):
            raise ConfigError("an image persists only a hash seed; explicit ranks would be lost")
        save_image(path, self.store, self.header())

    @classmethod
    def load(cls, path: str) -> "Tree":
        store, header = load_image(path)
        return cls._from_parsed(store, header)

    @classmethod
    def from_image_bytes(cls, data: bytes) -> "Tree":
        store, header = parse_image(data)
        return cls._from_parsed(store, header)

    @classmethod
    def _from_parsed(cls, store: BlockStore, header: ImageHeader) -> "Tree":
        if header.rho > 0:
            params = Params.explicit(header.alpha, header.rho)
        else:
            params = Params.unbuffered(header.alpha)
        return cls(store, params, HashedPriority(header.seed), header.root, header.n)

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

    def walk(label: int, ilo: int, ihi: int) -> int:
        # ilo/ihi: exact open interval of this subtree
        if lo <= ilo + 1 and ihi - 1 <= hi:
            return -1  # sentinel: caller adds the stored weight instead
        node = store.read(label)
        total = bisect_right(node.keys, hi) - bisect_left(node.keys, lo)
        if node.fanout <= 1:
            child = node.children[0]
            store.release(label)
            while child is not None:
                nxt = store.read(child.label)
                total += bisect_right(nxt.keys, hi) - bisect_left(nxt.keys, lo)
                label, child = child.label, nxt.children[0]
                store.release(label)
            return total
        seps = active_separators(node, prio)
        bounds = [ilo] + seps + [ihi]
        slots = [(node.children[i], bounds[i], bounds[i + 1])
                 for i in range(len(seps) + 1)]
        store.release(label)
        for child, slo, shi in slots:
            if child is None or shi - 1 < lo or slo + 1 > hi:
                continue
            sub = walk(child.label, slo, shi)
            total += child.weight if sub == -1 else sub
        return total

    r = walk(tree.root, NEG_INF, POS_INF)
    return tree.n if r == -1 else r


def select_kth(tree: Tree, k: int) -> int:
    """k-th smallest stored key, 1-based."""
    if not 1 <= k <= tree.n:
        raise InvalidRankError(f"rank {k} outside 1..{tree.n}")
    store, prio = tree.store, tree.prio

    def walk(label: int, k: int, extras: list[int]) -> int:
        # extras: keys inside this subtree's interval that live in the
        # arrays of buffering ancestors; merged here by key value
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
        slots = [(node.children[i], bounds[i], bounds[i + 1])
                 for i in range(len(seps) + 1)]
        store.release(label)
        acc = 0
        for i, (child, slo, shi) in enumerate(slots):
            here = sorted(
                [key for key in inactive if slo < key < shi]
                + [key for key in extras if slo < key < shi]
            )
            total = (child.weight if child is not None else 0) + len(here)
            if k <= acc + total:
                if child is None:
                    return here[k - acc - 1]
                return walk(child.label, k - acc, here)
            acc += total
            if i < len(seps):
                acc += 1
                if k == acc:
                    return seps[i]
        raise InvalidRankError(f"rank walk exhausted block {label}")  # pragma: no cover

    return walk(tree.root, k, [])


def scan_keys(store: BlockStore, prio, root_label: int, lo: int, hi: int,
              on_key=None, on_block=None, pi_floor=None, exclude=()) -> None:
    """Visit every block of the subtree whose key interval can meet (lo, hi).

    Iterative, parent-pointer driven: holds at most two pinned blocks.
    Child intervals are derived from the visited block's own keys;
    missing outer bounds widen the test, which never adds spurious
    visits because a visited parent already overlaps (lo, hi).

    on_key(key) runs for every stored key in (lo, hi) with priority above
    pi_floor and not in exclude; on_block(label, node) runs once per block.
    """
    excl = set(exclude)

    def emit(node: BlockNode) -> None:
        if on_block is not None:
            on_block(node.label, node)
        if on_key is None:
            return
        for key in node.keys[bisect_right(node.keys, lo): bisect_left(node.keys, hi)]:
            if key in excl:
                continue
            if pi_floor is not None and prio.priority(key) <= pi_floor:
                continue
            on_key(key)

    def children_in_range(node: BlockNode) -> list[int]:
        if node.fanout <= 1:
            return [0] if node.children[0] is not None else []
        seps = active_separators(node, prio)
        bounds = [NEG_INF] + seps + [POS_INF]
        out = []
        for i in range(len(seps) + 1):
            child = node.children[i]
            if child is None:
                continue
            if bounds[i] < hi and bounds[i + 1] > lo:
                out.append(i)
        return out

    cur = root_label
    came_from = None          # label of the child we just finished, None on first entry
    while cur is not None:
        node = store.read(cur)
        slots = children_in_range(node)
        if came_from is None:
            emit(node)
            nxt = slots[0] if slots else None
        else:
            pos = None
            for idx, s in enumerate(slots):
                if node.children[s].label == came_from:
                    pos = idx
                    break
            nxt = slots[pos + 1] if pos is not None and pos + 1 < len(slots) else None
        if nxt is not None:
            child_label = node.children[nxt].label
            store.release(cur)
            cur, came_from = child_label, None
        else:
            parent = node.parent
            store.release(cur)
            if cur == root_label:
                return
            cur, came_from = parent, cur


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

    def walk(label: int, weight: int, parent: int | None, depth: int,
             lo: int, hi: int) -> int:
        """Returns the true key count of the subtree; appends violations."""
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

        def child_walk(child: "object", clo: int, chi: int) -> None:
            nonlocal count
            true = walk(child.label, child.weight, label, depth + 1, clo, chi)
            if true != child.weight:
                bad.append(
                    f"block {label}: slot weight {child.weight} for child "
                    f"{child.label}, true count {true}"
                )
            count += true

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
                child_walk(child, lo, hi)
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
                child_walk(child, bounds[i], bounds[i + 1])
        return count

    root_node = store.peek(tree.root) if tree.root in store.blocks else None
    if root_node is None:
        bad.append(f"tree: root label {tree.root} not in store")
        return InvariantReport(False, bad)
    total = walk(tree.root, tree.n, None, 0, NEG_INF, POS_INF)
    if total != tree.n:
        bad.append(f"tree: {total} keys reachable, header says {tree.n}")
    stray = set(store.blocks) - seen
    if stray:
        bad.append(f"store: unreachable blocks {sorted(stray)[:5]}")
    return InvariantReport(not bad, bad)
