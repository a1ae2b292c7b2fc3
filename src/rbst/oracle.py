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
from .priority import ExplicitPriority
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


def treap_reference(keys, prio) -> list[int | None]:
    """Classic treap (search tree by key, heap by priority) as its pre-order key
    list with None for each empty subtree: an injective form, compared by `==`."""
    out: list[int | None] = []
    stack = [sorted(keys)]      # ascending keys of each pending subtree
    while stack:
        subkeys = stack.pop()
        if not subkeys:
            out.append(None)
            continue
        key = min(subkeys, key=prio.priority)
        i = subkeys.index(key)
        out.append(key)
        stack.append(subkeys[i + 1:])
        stack.append(subkeys[:i])
    return out


def treap_shape_of_tree(tree: Tree) -> list[int | None]:
    """An alpha=1, unbuffered tree in `treap_reference`'s pre-order form."""
    if tree.params.alpha != 1 or tree.params.rho != 0:
        raise ConfigError("treap comparison requires alpha=1 without buffering")
    out: list[int | None] = []
    stack = [tree.root]
    while stack:
        label = stack.pop()
        if label is None:
            out.append(None)
            continue
        block = tree.store.peek(label)
        out.append(block.keys[0])
        stack.extend(None if c is None else c.label for c in reversed(block.children))
    return out


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
