"""Reference implementations used as ground truth.

oracle_build lays a tree out directly from its recursive definition: the
block of a subtree holds the keys with the smallest priorities, the
fan-out rule picks how many of them separate the remaining keys, and a
fan-out of one degenerates to a chain of priority waves.  No partial
rebuilds, no I/O accounting.  Everything the dynamic side produces is
compared byte-for-byte against images built here.

The enumerators are exact: full iteration over permutations or integer
compositions with Fraction arithmetic, never floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations

from .blocks import BlockNode, ChildRef
from .core import Params, Tree, fanout_bound
from .errors import ConfigError, EnumerationLimitError
from .priority import ExplicitPriority, HashedPriority
from .store import BlockStore

ENUMERATION_LIMIT = 9


def oracle_blocks(keys, prio, params: Params) -> tuple[int | None, dict[int, BlockNode]]:
    """Lay out a tree over `keys`; returns (root label, label -> block).

    Runs on an explicit stack because a tree can be deeper than the
    recursion limit.  A task lays out the subtree over its keys and links
    it into slot j of its parent; a block is stored after its subtrees.
    """
    out: dict[int, BlockNode] = {}
    alpha = params.alpha
    top: list[ChildRef | None] = [None]
    stack: list = [(sorted(keys), None, 0, top, 0)]
    while stack:
        task = stack.pop()
        if isinstance(task, BlockNode):
            out[task.label] = task
            continue
        subkeys, parent, depth, slots, j = task     # subkeys ascending by key
        n = len(subkeys)
        if n == 0:
            continue
        by_pi = sorted(subkeys, key=prio.priority)
        label = by_pi[0]
        slots[j] = ChildRef(label, n)
        d = fanout_bound(n, params)
        if d <= 1 and n > alpha:
            # a chain of priority waves, head first
            for off in range(0, n, alpha):
                wave = by_pi[off: off + alpha]
                node = BlockNode(sorted(wave), [None] * (alpha + 1), parent, depth, 1, wave[0])
                if off:
                    out[parent].children[0] = ChildRef(wave[0], n - off)
                out[wave[0]] = node
                parent, depth = wave[0], depth + 1
            continue
        arr = sorted(by_pi[:alpha]) if n > alpha else list(subkeys)
        children: list[ChildRef | None] = [None] * (alpha + 1)
        stack.append(BlockNode(arr, children, parent, depth, d, label))
        if n > alpha:
            seps = sorted(by_pi[: d - 1])
            rest = set(by_pi[alpha:])
            sections: list[list[int]] = [[] for _ in range(d)]
            bounds = seps + [None]
            i = 0
            for key in subkeys:
                if key not in rest:
                    continue
                while bounds[i] is not None and key > bounds[i]:
                    i += 1
                sections[i].append(key)
            for j in reversed(range(d)):
                stack.append((sections[j], label, depth + 1, children, j))
    return (top[0].label if top[0] is not None else None), out


def oracle_tree(keys, prio, params: Params) -> Tree:
    """Populated live tree; the store's counters start at zero."""
    root, blocks = oracle_blocks(keys, prio, params)
    store = BlockStore(params.alpha)
    store.blocks = blocks
    return Tree(store, params, prio, root, len(set(keys)))


def oracle_build(keys, prio, params: Params) -> bytes:
    """Reference store image over a key set: the UR ground truth."""
    return oracle_tree(keys, prio, params).image()


# ---------------------------------------------------------------------------
# treap degeneration
# ---------------------------------------------------------------------------


class TreapNode:
    __slots__ = ("key", "left", "right")

    def __init__(self, key, left=None, right=None):
        self.key = key
        self.left = left
        self.right = right


def treap_reference(keys, prio) -> TreapNode | None:
    """Classic treap: search tree by key, heap by priority."""
    top = TreapNode(None)
    # (ascending keys of a subtree, the node that takes it, "left" or "right")
    stack = [(sorted(keys), top, "left")]
    while stack:
        subkeys, owner, side = stack.pop()
        if not subkeys:
            continue
        key = min(subkeys, key=prio.priority)
        i = subkeys.index(key)
        node = TreapNode(key)
        setattr(owner, side, node)
        stack.append((subkeys[:i], node, "left"))
        stack.append((subkeys[i + 1:], node, "right"))
    return top.left


def treap_shape_of_tree(tree: Tree) -> TreapNode | None:
    """Binary shape of an alpha=1, unbuffered tree, for isomorphism checks."""
    if tree.params.alpha != 1 or tree.params.rho != 0:
        raise ConfigError("treap comparison requires alpha=1 without buffering")
    store = tree.store
    top = TreapNode(None)
    stack = [(tree.root, top, "left")]
    while stack:
        label, owner, side = stack.pop()
        if label is None:
            continue
        block = store.peek(label)
        node = TreapNode(block.keys[0])
        setattr(owner, side, node)
        for child, child_side in zip(block.children, ("left", "right")):
            stack.append((child.label if child else None, node, child_side))
    return top.left


def treap_isomorphic(a: TreapNode | None, b: TreapNode | None) -> bool:
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is None or b is None:
            if a is not b:
                return False
            continue
        if a.key != b.key:
            return False
        stack.append((a.left, b.left))
        stack.append((a.right, b.right))
    return True


# ---------------------------------------------------------------------------
# exact enumerators
# ---------------------------------------------------------------------------


def exact_expected_size(n: int, params: Params) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (E[S], E[F], E[E]) over all n! permutations.

    S counts blocks, F full blocks, E = S - F non-full blocks, each read off
    the permutation's `oracle_blocks` layout.
    """
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"n={n} above enumeration limit {ENUMERATION_LIMIT}")
    keys = range(1, n + 1)
    total_s = total_f = 0
    count = 0
    for order in permutations(keys):
        _, blocks = oracle_blocks(keys, ExplicitPriority.from_order(order), params)
        total_s += len(blocks)
        total_f += sum(1 for b in blocks.values() if len(b.keys) == params.alpha)
        count += 1
    return (
        Fraction(total_s, count),
        Fraction(total_f, count),
        Fraction(total_s - total_f, count),
    )


def compositions(total: int, parts: int):
    """All length-`parts` tuples of non-negative integers summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def section_tail_prob(n: int, alpha: int, t: int) -> Fraction:
    """Pr[one section below a full root holds >= t keys], exact.

    The section loads are a uniform composition of n - alpha keys into
    alpha + 1 parts, so the tail is C(n-t, alpha) / C(n, alpha).
    """
    if not 0 <= t <= n - alpha:
        raise ConfigError(f"t={t} outside 0..{n - alpha}")
    return Fraction(math.comb(n - t, alpha), math.comb(n, alpha))


def section_tail_by_enumeration(n: int, alpha: int, t: int) -> list[Fraction]:
    """Per-section Pr[X_k >= t] by composition counting; all entries equal."""
    parts = alpha + 1
    total = n - alpha
    counts = [0] * parts
    denom = 0
    for comp in compositions(total, parts):
        denom += 1
        for k, x in enumerate(comp):
            if x >= t:
                counts[k] += 1
    return [Fraction(c, denom) for c in counts]


def section_distribution_checks(n: int, m: int, t: int) -> tuple[Fraction, Fraction, Fraction]:
    """(exact, lower, upper) for Pr[X_i >= t] with X_1+..+X_m = n uniform.

    exact = C(n-t+m-1, m-1) / C(n+m-1, m-1), bracketed by
    (1 - t/(n+1))^(m-1) and (1 - t/(n+m-1))^(m-1); all exact rationals.
    """
    if m < 2:
        raise ConfigError("m must be >= 2")
    if not 0 <= t <= n:
        raise ConfigError(f"t={t} outside 0..{n}")
    exact = Fraction(math.comb(n - t + m - 1, m - 1), math.comb(n + m - 1, m - 1))
    lower = (1 - Fraction(t, n + 1)) ** (m - 1)
    upper = (1 - Fraction(t, n + m - 1)) ** (m - 1)
    return exact, lower, upper


def buffer_nonfull_census(n: int, params: Params, trials: int | None = None,
                          seed_base: int = 0):
    """Expected non-full blocks: exact for n <= 9, Monte Carlo otherwise.

    Exact mode returns a Fraction; Monte Carlo returns (mean, half_ci).
    """
    if trials is None:
        if n > ENUMERATION_LIMIT:
            raise EnumerationLimitError(
                f"n={n} above enumeration limit {ENUMERATION_LIMIT}; pass trials"
            )
        _, _, e = exact_expected_size(n, params)
        return e
    total = 0.0
    totsq = 0.0
    keys = list(range(1, n + 1))
    for t in range(trials):
        prio = HashedPriority(seed_base + t)
        _, blocks = oracle_blocks(keys, prio, params)
        e = sum(1 for b in blocks.values() if len(b.keys) < params.alpha)
        total += e
        totsq += e * e
    mean = total / trials
    var = max(0.0, totsq / trials - mean * mean)
    half_ci = 1.96 * math.sqrt(var / trials) if trials > 1 else float("inf")
    return mean, half_ci


def enumerate_images(n: int, params: Params, keys=None) -> dict[bytes, int]:
    """Image -> multiplicity over all permutations of the key set."""
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(f"n={n} above enumeration limit {ENUMERATION_LIMIT}")
    keys = list(range(1, n + 1)) if keys is None else sorted(keys)
    seen: dict[bytes, int] = {}
    for order in permutations(keys):
        prio = ExplicitPriority.from_order(order)
        img = oracle_build(keys, prio, params)
        seen[img] = seen.get(img, 0) + 1
    return seen
