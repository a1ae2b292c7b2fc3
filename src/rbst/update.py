"""Dynamic insert and delete via greedy top-down partial rebuilds.

The search for an update key walks down from the root and stops at the
first block that either must take the key into its array (its priority
falls below the block's maximum) or must change its fan-out.  Around that
anchor only the separator intervals whose key content changes are laid
out again; every other child subtree is re-linked untouched.  A rebuilt
section is read once: `_top_pass` scans each old subtree that overlaps it,
adds the keys pushed down into it, and ranks the pool in one call.  Its
subtree is then laid out in memory by `layout_subtree`, on one explicit
stack, root first, in pre-order, binning a large pool in numpy and a small
one by bisect, and kept in memory as it is emitted.
`metrics.fast_build` lays out a whole tree with the same routine, so a
rebuilt section is a fresh build of its keys by construction.  Chains
(fan-out one) are cut into priority waves by one emitter, `_waves`, whether
a layout reaches a chain or an update re-waves an old one.

An update commits once, after its descent: every block it kept is staged
into the store's auxiliary region, and one atomic commit frees the obsolete
blocks and promotes the staged ones.  Ancestor blocks on the search path
keep their layout but carry a child weight that changed by one; those are
in-place field rewrites of the recorded child slot, applied bottom-up after
the commit, and reported separately in the receipt.

Insert and delete share one case decision per block on the search path
(`_classify`) and one branch where the descent runs out of blocks: the tree
is empty, or the key's slot below a passed block is.  There an insert
stages the one-key leaf and a delete is refused.  A key outside u64 is
refused before any read; every other refusal is settled by the descent
before any store write: a duplicate at the path block or wave holding it, a
missing key where the descent or the list pass runs out, and either one in
the scan that gathers the section the key lands in, when a fan-out anchor
rebuilds it.  A fan-out anchor keeps its label, so only an anchor that ends
the descent re-parents the children it reuses.  Every block an update
touches is a counted read, including the re-read before an in-place rewrite.

Main-memory discipline: scans keep an explicit stack of pending child
labels and pin one block at a time, reading each block once.  A rebuild
reads each old block of its section once, per section and not per update
(`_count_pass` scans an old section that straddles a new boundary, and
each new section it overlaps scans it again), and holds the section's S keys
in memory while it lays the section out: from `_ARRAY_FROM` keys on they
are one uint64 array, O(S) u64 words, and a block's keys become ints only
as it is emitted.  A chain pass reads its waves in one `read_chain` walk,
which the re-wave drains, and holds the keys of the waves it rewrites, at
most alpha + rho + 1.  The number of pinned blocks stays at one, constant
in tree size.
"""

from __future__ import annotations

from bisect import bisect_right
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .blocks import BlockNode, ChildRef
from .core import NEG_INF, POS_INF, Params, Tree, active_separators, fanout_bound, scan_keys
from .core import successor  # noqa: F401  (perfbench/tracing.py traces rbst.update.successor)
from .errors import ConfigError, CorruptionError, DuplicateKeyError, MissingKeyError
from .priority import MASK64

# fewer keys rank faster by hashing each in Python than by one numpy call
_NUMPY_FROM = 32   # the two paths cross at 24-32 keys on a 2-vCPU x86 host
# fewer keys are laid out faster from a list, by bisect, than from a uint64 array
_ARRAY_FROM = 128  # set-up was flat over 64-256 keys, slower at 32 and 512 (same host)

CASE_LIST_NEW_BLOCK = "list-new-block"
CASE_LIST_INSERT = "list-insert"
CASE_LIST_DELETE = "list-delete"
CASE_FANOUT_INCREASE = "fanout-increase"
CASE_FANOUT_DECREASE = "fanout-decrease"
CASE_IN_ARRAY_ACTIVE = "in-array-active"
CASE_IN_ARRAY_INACTIVE = "in-array-inactive"
CASE_IN_ARRAY_DELETE = "in-array-delete"


@dataclass
class PlanSection:
    lo: int
    hi: int
    weight: int
    sources: list[ChildRef]
    include: list[int] = field(default_factory=list)
    exclude: list[int] = field(default_factory=list)
    reuse: ChildRef | None = None


@dataclass
class UpdateReceipt:
    op: str
    key: int
    m: int              # obsolete blocks plus in-place rewrites (old-side change)
    m_prime: int        # staged blocks plus in-place rewrites (new-side change)
    staged: int         # freshly written blocks
    freed: int          # blocks removed
    rewritten: int      # in-place field rewrites (ancestor weights, parent fixes)
    reads: int          # every block the update read, rewrite re-reads included
    writes: int
    d_prime: int        # height of the rebuilt region, in levels
    cases: list[str]
    staged_labels: frozenset = frozenset()
    freed_labels: frozenset = frozenset()
    rewritten_labels: frozenset = frozenset()


class _Ctx:
    """Per-update bookkeeping: the blocks it stages and frees, its rewrites and path fixes.

    Nothing is staged in the store before `commit`, so an update refused
    during its descent leaves the store as it found it.
    """

    def __init__(self, tree: Tree):
        self.store = tree.store
        self.prio = tree.prio
        self.params = tree.params
        self.alpha = tree.params.alpha
        self.staged: list[BlockNode] = []
        self.freed: dict[int, int] = {}       # label -> depth of each obsolete block
        self.rewritten: set[int] = set()
        self.relabels: dict[int, int] = {}
        self.path: list[tuple[int, int]] = []     # (label, child slot) passed
        self.cases: list[str] = []

    def read(self, label: int) -> BlockNode:
        """One counted read, released at once; only a chain pass's walk keeps its pin."""
        node = self.store.read(label)
        self.store.release(label)
        return node

    # -- staging ------------------------------------------------------

    def stage(self, node: BlockNode) -> None:
        """Keep `node` for the update's commit."""
        self.staged.append(node)

    def mark_obsolete(self, label: int, node: BlockNode) -> None:
        """Free `node` at the update's commit; fits `scan_keys`' on_block."""
        self.freed[label] = node.depth

    def commit(self) -> None:
        """Stage every kept block, then free the obsolete ones and promote them all at once."""
        try:
            for node in self.staged:
                self.store.write_aux(node)
            self.store.commit_rebuild(self.freed)
        finally:
            self.store.aux.clear()     # a refused commit leaves nothing for the next

    def rewrite(self, node: BlockNode) -> None:
        self.store.rewrite(node)
        self.rewritten.add(node.label)

    # -- receipts -----------------------------------------------------

    def receipt(self, op: str, key: int, before) -> UpdateReceipt:
        after = self.store.stats()
        staged = {node.label: node.depth for node in self.staged}
        # every update that returns stages or frees at least one block
        changed_depths = [*staged.values(), *self.freed.values()]
        old_side = set(self.freed) | self.rewritten
        new_side = set(staged) | self.rewritten
        return UpdateReceipt(
            op=op,
            key=key,
            m=len(old_side),
            m_prime=len(new_side),
            staged=len(self.staged),
            freed=len(self.freed),
            rewritten=len(self.rewritten),
            reads=after.reads - before.reads,
            writes=after.writes - before.writes,
            d_prime=max(changed_depths) - min(changed_depths) + 1,
            cases=self.cases,
            staged_labels=frozenset(staged),
            freed_labels=frozenset(self.freed),
            rewritten_labels=frozenset(self.rewritten),
        )


# ---------------------------------------------------------------------------
# range-limited scans over the old tree
# ---------------------------------------------------------------------------


def _top_pass(ctx: _Ctx, sources, lo: int, hi: int, include, exclude):
    """Every key of the section (lo, hi), ranked by `_ranked`: the rebuild's only store pass.

    Stored keys come from one scan per source subtree, less `exclude`; each
    visited block is read once and marked obsolete.  The `include` keys in
    (lo, hi) (pushed down into the section, or an insert's key) join them.
    The scan settles the membership of the keys it moves: an included key it
    finds is already present, an excluded key in (lo, hi) it misses is not.
    """
    pool: list[int] = []
    for src in sources:
        scan_keys(ctx.store, ctx.prio, src, lo, hi, out=pool, on_block=ctx.mark_obsolete)
    stored = set(pool)
    include = [key for key in include if lo < key < hi]
    excl = {key for key in exclude if lo < key < hi}
    if dup := stored.intersection(include):
        raise DuplicateKeyError(f"key {min(dup)} already present")
    if gone := excl.difference(stored):
        raise MissingKeyError(f"key {min(gone)} not present")
    return _ranked(ctx.prio, [key for key in pool if key not in excl] + include)


def _count_pass(ctx: _Ctx, source: int, lo: int, hi: int, exclude=()) -> int:
    keys: list[int] = []
    scan_keys(ctx.store, ctx.prio, source, lo, hi, out=keys)
    return len(set(keys).difference(exclude))


# ---------------------------------------------------------------------------
# fresh subtree construction (staged into auxiliary storage)
# ---------------------------------------------------------------------------


def _bin_pass(keys, seps: list[int]) -> list:
    """`keys` split into the len(seps) + 1 slots that the ascending `seps` bound, order kept.

    A uint64 array is binned in numpy: one search against the separators and
    one stable sort of the slot numbers.  A bin below `_ARRAY_FROM` keys
    leaves as a list of ints, a larger one as a sub-array.
    """
    if isinstance(keys, np.ndarray):
        slots = np.searchsorted(np.array(seps, np.uint64), keys, side="right")
        ends = np.cumsum(np.bincount(slots, minlength=len(seps) + 1)).tolist()
        # slot numbers fit 16 bits (alpha <= 65534), which numpy's stable sort takes by radix
        keys = keys[slots.astype(np.uint16).argsort(kind="stable")]
        return [sub.tolist() if len(sub) < _ARRAY_FROM else sub
                for sub in map(keys.__getitem__, map(slice, [0] + ends[:-1], ends))]
    bins: list[list[int]] = [[] for _ in range(len(seps) + 1)]
    for key in keys:
        bins[bisect_right(seps, key)].append(key)
    return bins


def _assemble(params: Params, keys, parent: int | None, depth: int):
    """One block over `keys` (ascending priority); returns (node, keys of each child slot).

    The array holds the alpha smallest-priority keys and is labelled by the
    first; the d - 1 smallest are the separators that bin the rest.  Each
    child's label is the first key of its slot.  A uint64 `keys` gives the
    block its own ints, boxed as it is emitted.
    """
    alpha = params.alpha
    d = fanout_bound(len(keys), params)
    head = keys[:alpha]
    if isinstance(head, np.ndarray):
        head = head.tolist()
    node = BlockNode(sorted(head), [None] * (alpha + 1), parent, depth, d, head[0])
    bins = _bin_pass(keys[alpha:], sorted(head[: d - 1]))
    for i, sub in enumerate(bins):
        if len(sub):
            node.children[i] = ChildRef(int(sub[0]), len(sub))
    return node, bins


def _ranked(prio, keys):
    """`keys` (ints or a uint64 array) in ascending priority, in the form a layout takes.

    Ranked in one numpy call from `_NUMPY_FROM` keys on, and sorted by rank
    alone unless two ranks tie, when the key breaks the tie.  From
    `_ARRAY_FROM` keys on the result stays a uint64 array, which `_bin_pass`
    and `_waves` keep whole until they emit the blocks holding its keys; below
    that it is a list of ints.
    """
    if len(keys) < _NUMPY_FROM:
        if isinstance(keys, np.ndarray):
            keys = keys.tolist()
        return sorted(keys, key=prio.priority)
    arr = np.asarray(keys, dtype=np.uint64)
    ranks = prio.ranks(arr)
    order = ranks.argsort()
    if (ranks[order[1:]] == ranks[order[:-1]]).any():
        order = np.lexsort((arr, ranks))
    return arr[order] if len(arr) >= _ARRAY_FROM else arr[order].tolist()


def _by_priority(prio, keys) -> list[int]:
    """`keys` (ints or a uint64 array) as ints in ascending priority: `_ranked` as a list."""
    ranked = _ranked(prio, keys)
    return ranked if isinstance(ranked, list) else ranked.tolist()


def _waves(keys, alpha: int, parent: int | None, depth: int, emit) -> int | None:
    """Emit `keys` (ascending priority) as a chain of linked waves; returns the head label.

    Each alpha-slice is one wave, linked to the next slice's head.  A uint64
    array is cut in one row-wise sort, and each wave's keys are boxed as it is
    emitted, next to its block.
    """
    n = len(keys)
    if isinstance(keys, np.ndarray):
        full = n - n % alpha
        rows = list(np.sort(keys[:full].reshape(-1, alpha), axis=1))
        if full < n:
            rows.append(np.sort(keys[full:]))
        waves = map(np.ndarray.tolist, rows)
        labels = keys[::alpha].tolist()
    else:
        waves = [sorted(keys[i:i + alpha]) for i in range(0, n, alpha)]
        labels = keys[::alpha]
    for i, wave in enumerate(waves):
        node = BlockNode(wave, [None] * (alpha + 1), parent, depth, 1, labels[i])
        if i + 1 < len(labels):
            node.children[0] = ChildRef(labels[i + 1], n - (i + 1) * alpha)
        emit(node)
        parent, depth = node.label, depth + 1
    return labels[0] if n else None


def _build_chain(keys, alpha: int, parent: int | None, depth: int, emit) -> int:
    """Emit `keys` (ascending priority) as a fresh chain of waves; returns the head label."""
    return _waves(keys, alpha, parent, depth, emit)


def layout_subtree(keys, params: Params, parent: int | None, depth: int, emit) -> None:
    """Lay out the subtree over `keys` (ascending priority), emitting each block in pre-order.

    `keys` is a list of ints or a uint64 array, as `_ranked` gives it.
    One explicit stack of (keys, parent, depth) tasks, the root first;
    children are pushed in reverse slot order.  A fresh build and a rebuilt
    section both go through here, so a section equals a fresh build of it.
    """
    alpha = params.alpha
    stack = [(keys, parent, depth)]
    while stack:
        keys, parent, depth = stack.pop()
        if len(keys) > alpha and fanout_bound(len(keys), params) <= 1:
            _build_chain(keys, alpha, parent, depth, emit)
            continue
        node, bins = _assemble(params, keys, parent, depth)
        emit(node)
        stack.extend((sub, node.label, depth + 1) for sub in reversed(bins) if len(sub))


def _build_fresh(ctx: _Ctx, lo: int, hi: int, weight: int, sources, include, exclude,
                 parent: int | None, depth: int) -> int | None:
    """Stage a complete subtree for (lo, hi); returns its root label.

    One `_top_pass` gathers and ranks the section's keys; `layout_subtree`
    lays them out in memory and each block is staged as it is emitted.
    """
    if weight == 0:
        for src in sources:
            scan_keys(ctx.store, ctx.prio, src, NEG_INF, POS_INF, on_block=ctx.mark_obsolete)
        return None
    pool = _top_pass(ctx, sources, lo, hi, include, exclude)
    if len(pool) != weight:
        raise CorruptionError(f"section ({lo}, {hi}): {len(pool)} keys, slot weight {weight}")
    layout_subtree(pool, ctx.params, parent, depth, ctx.stage)
    return int(pool[0])


# ---------------------------------------------------------------------------
# section diff around an anchor
# ---------------------------------------------------------------------------


def _old_sections(node: BlockNode, prio, lo: int, hi: int):
    """(lo, hi, child) triples of the block's current partition."""
    seps = active_separators(node, prio)
    bounds = [lo] + seps + [hi]
    return [
        (bounds[i], bounds[i + 1], node.children[i])
        for i in range(len(seps) + 1)
    ]


def _diff_sections(ctx: _Ctx, node: BlockNode, lo: int, hi: int,
                   new_arr: list[int], new_fanout: int,
                   adds: list[int], removes: list[int]) -> list[PlanSection]:
    """Map the old partition onto the one cut by new_arr's new_fanout - 1 first keys.

    A new section is reused when exactly one non-empty old section
    overlaps it, that section's interval is contained in the new one, and
    no key moves in or out; everything else is scheduled for rebuilding.
    """
    old = _old_sections(node, ctx.prio, lo, hi)
    bounds = [lo] + sorted(new_arr[:new_fanout - 1]) + [hi]
    out: list[PlanSection] = []
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        nonempty = [(olo, ohi, ref) for (olo, ohi, ref) in old
                    if ref is not None and olo < b and ohi > a]
        inc = [k for k in adds if a < k < b]
        exc = [k for k in removes if a < k < b]
        if (not inc and not exc and len(nonempty) == 1
                and nonempty[0][0] >= a and nonempty[0][1] <= b):
            ref = nonempty[0][2]
            out.append(PlanSection(a, b, ref.weight, [ref], reuse=ref))
            continue
        w = len(inc)
        for olo, ohi, ref in nonempty:
            if olo >= a and ohi <= b:
                w += ref.weight - sum(1 for k in exc if olo < k < ohi)
            else:
                w += _count_pass(ctx, ref.label, a, b, exclude=exc)
        out.append(PlanSection(a, b, w, [r for _, _, r in nonempty],
                               include=inc, exclude=exc))
    return out


# ---------------------------------------------------------------------------
# anchor execution
# ---------------------------------------------------------------------------


def _run_anchor(ctx: _Ctx, node: BlockNode, lo: int, hi: int, n_new: int,
                new_arr: list[int], adds: list[int], removes: list[int],
                key_below: int | None, op: str):
    """Rebuild around one anchor block.

    Returns (slot, child_ref, sec_lo, sec_hi) when the update continues
    deeper, else None.  new_arr is the anchor's new array in ascending
    priority; adds are keys pushed down into sections, removes keys leaving
    them; key_below is the update key when it is not part of new_arr.
    """
    alpha = ctx.alpha
    if not new_arr:
        ctx.relabels[node.label] = None
        ctx.mark_obsolete(node.label, node)
        return None
    d_new = fanout_bound(n_new, ctx.params)
    label_new = new_arr[0]
    sections = _diff_sections(ctx, node, lo, hi, new_arr, d_new, adds, removes)
    continue_into = None
    if key_below is not None:
        j, sec = next((j, s) for j, s in enumerate(sections) if s.lo < key_below < s.hi)
        if sec.reuse is not None:
            continue_into = (j, sec.reuse, sec.lo, sec.hi)
        elif op == "insert":
            sec.include.append(key_below)
            sec.weight += 1
        else:
            sec.exclude.append(key_below)
            sec.weight -= 1
    children: list[ChildRef | None] = [None] * (alpha + 1)
    for j, sec in enumerate(sections):
        if sec.reuse is not None:
            children[j] = ChildRef(sec.reuse.label, sec.reuse.weight)
            continue
        sub = _build_fresh(ctx, sec.lo, sec.hi, sec.weight,
                           [r.label for r in sec.sources],
                           sec.include, sec.exclude, label_new, node.depth + 1)
        if sub is not None:
            children[j] = ChildRef(sub, sec.weight)
    anchor = BlockNode(sorted(new_arr), children, node.parent, node.depth, d_new, label_new)
    ctx.mark_obsolete(node.label, node)
    ctx.stage(anchor)
    if label_new != node.label:
        ctx.relabels[node.label] = label_new
        for j, sec in enumerate(sections):
            if sec.reuse is None:
                continue
            child = ctx.read(sec.reuse.label).copy()
            child.parent = label_new
            ctx.rewrite(child)
    return continue_into


# ---------------------------------------------------------------------------
# chain linear passes
# ---------------------------------------------------------------------------


def _chain_below(ctx: _Ctx, head: BlockNode):
    """The waves under the chain head, read in one `read_chain` walk; close it on every exit."""
    wave = head
    if head.children[0] is not None:
        for wave in ctx.store.read_chain(head.children[0].label):
            yield wave
    if wave.children[0] is not None:     # the walk stopped at a fan-out block
        raise CorruptionError(f"block {wave.label}: fan-out {wave.fanout} inside a chain")


def _rewave(ctx: _Ctx, node: BlockNode, keys: list[int], walk) -> None:
    """Rewrite the chain from `node` down with `keys` (unranked) in place of its array.

    The rest of the pass's `walk` yields the waves under `node`, each read once and
    marked obsolete; their keys join `keys`, at most alpha + rho + 1, for one ranking.
    """
    ctx.mark_obsolete(node.label, node)
    tail: list[int] = []
    for wave in walk:
        ctx.mark_obsolete(wave.label, wave)
        tail += wave.keys
    keys = _ranked(ctx.prio, keys + tail)
    ctx.relabels[node.label] = _waves(keys, ctx.alpha, node.parent, node.depth, ctx.stage)


def _list_insert(ctx: _Ctx, node: BlockNode, key: int) -> None:
    """From the head `node`, re-wave from the first wave whose maximum priority tops the key's.

    Waves ascend in priority, so a wave whose successor's label (its
    smallest-priority key) ranks below the key is passed on that one hash;
    the key ranks below every wave under the one it joins.  A present key
    sits in a wave this pass reads, so each is checked.
    """
    prio = ctx.prio
    pi_x = prio.priority(key)
    with closing(_chain_below(ctx, node)) as walk:
        while True:
            nxt = node.children[0]
            if nxt is None or (pi_x < prio.priority(nxt.label)
                               and pi_x < max(map(prio.priority, node.keys))):
                break
            ctx.path.append((node.label, 0))
            node = next(walk)
            if key in node.keys:
                raise DuplicateKeyError(f"key {key} already present")
        _rewave(ctx, node, node.keys + [key], walk)


def _list_delete(ctx: _Ctx, node: BlockNode, key: int) -> None:
    """From the head `node`, find the wave that holds the key; re-wave from it without the key."""
    with closing(_chain_below(ctx, node)) as walk:
        while key not in node.keys:
            if node.children[0] is None:
                raise MissingKeyError(f"key {key} not present")
            ctx.path.append((node.label, 0))
            node = next(walk)
        _rewave(ctx, node, [k for k in node.keys if k != key], walk)


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _classify(tree: Tree, node: BlockNode, n_sub: int, key: int, pi_x, op: str):
    """The update's decision at one block on the search path.

    None means the block keeps its array and fan-out and the descent
    passes it.  Otherwise (case, new_arr, adds, removes, key_below): a
    list case hands the block to the chain pass, any other case makes it
    the anchor that `_run_anchor` rebuilds with these arguments.  new_arr
    is ranked here once, in ascending priority.  A chain head that stays
    fan-out one is a list case before any key is hashed; an insert only
    raises the fan-out and a delete only lowers it, so one test of the
    new fan-out against the old covers both ops.
    """
    prio, params = tree.prio, tree.params
    d_old = node.fanout
    d_new = fanout_bound(n_sub + 1 if op == "insert" else n_sub - 1, params)
    if d_old <= 1 and d_new <= 1:
        return (CASE_LIST_INSERT if op == "insert" else CASE_LIST_DELETE), [], [], [], key
    if op == "insert":
        if n_sub < params.alpha or pi_x < max(map(prio.priority, node.keys)):
            new_arr = _by_priority(prio, node.keys + [key])
            # a full array pushes its maximum-priority key down
            pushed = [new_arr.pop()] if n_sub >= params.alpha else []
            # the key is active when it ranks among the d_new - 1 separators
            active = key in new_arr[:d_new - 1]
            case = CASE_IN_ARRAY_ACTIVE if active else CASE_IN_ARRAY_INACTIVE
            return case, new_arr, pushed, [], None
    elif key in node.keys:
        child_labels = [c.label for c in node.children if c is not None]
        pulled = [min(child_labels, key=prio.priority)] if child_labels else []
        new_arr = _by_priority(prio, [k for k in node.keys if k != key] + pulled)
        return CASE_IN_ARRAY_DELETE, new_arr, [], pulled, None
    if d_new != d_old:
        case = CASE_FANOUT_INCREASE if d_new > d_old else CASE_FANOUT_DECREASE
        return case, _by_priority(prio, node.keys), [], [], key
    return None


def _follow(node: BlockNode, prio, key: int, lo: int, hi: int):
    """(slot, child ref or None, sub_lo, sub_hi) of the section the key falls into."""
    seps = active_separators(node, prio)
    j = bisect_right(seps, key)
    bounds = [lo] + seps + [hi]
    return j, node.children[j], bounds[j], bounds[j + 1]


def _apply_path_fixes(ctx: _Ctx, key: int, delta: int) -> None:
    """Re-read and rewrite each passed block's child slot bottom-up: new weight, new label.

    An empty slot is where the update staged the new leaf `key`.
    """
    for label, slot in reversed(ctx.path):
        node = ctx.read(label).copy()
        ref = node.children[slot]
        if ref is None:
            node.children[slot] = ChildRef(key, delta)
        else:
            new_label = ctx.relabels.get(ref.label, ref.label)
            new_w = ref.weight + delta
            if new_w <= 0 or new_label is None:
                node.children[slot] = None
            else:
                node.children[slot] = ChildRef(new_label, new_w)
        ctx.rewrite(node)


def _update(tree: Tree, key: int, op: str) -> UpdateReceipt:
    """Greedy top-down descent that rebuilds at the blocks `_classify` picks.

    The descent settles every refusal; the update then commits once and
    rewrites the child slots of the blocks it passed.
    """
    if not 0 <= key <= MASK64:
        raise ConfigError(f"key {key} outside the u64 universe")
    before = tree.store.stats()
    ctx = _Ctx(tree)
    delta = 1 if op == "insert" else -1
    pi_x = tree.prio.priority(key) if op == "insert" else None
    cur, n_sub, lo, hi = tree.root, tree.n, NEG_INF, POS_INF
    while True:
        if cur is None:
            # the tree is empty, or the key's slot below the last block passed is
            if op == "delete":
                raise MissingKeyError(f"key {key} not present")
            parent, depth = (None, 0) if tree.root is None else (node.label, node.depth + 1)
            ctx.stage(BlockNode([key], [None] * (ctx.alpha + 1), parent, depth,
                                fanout_bound(1, tree.params), key))
            ctx.cases.append(CASE_LIST_NEW_BLOCK)
            break
        node = ctx.read(cur)
        if op == "insert" and key in node.keys:
            raise DuplicateKeyError(f"key {key} already present")
        step = _classify(tree, node, n_sub, key, pi_x, op)
        if step is None:
            slot, child, lo, hi = _follow(node, tree.prio, key, lo, hi)
            ctx.path.append((node.label, slot))
            cur, n_sub = (None, 0) if child is None else (child.label, child.weight)
            continue
        case, new_arr, adds, removes, key_below = step
        ctx.cases.append(case)
        if case in (CASE_LIST_INSERT, CASE_LIST_DELETE):
            (_list_insert if op == "insert" else _list_delete)(ctx, node, key)
            break
        cont = _run_anchor(ctx, node, lo, hi, n_sub + delta, new_arr,
                           adds, removes, key_below, op)
        if cont is None:
            break
        slot, ref, lo, hi = cont
        ctx.path.append((node.label, slot))
        cur, n_sub = ref.label, ref.weight
    ctx.commit()
    _apply_path_fixes(ctx, key, delta)
    tree.root = key if tree.root is None else ctx.relabels.get(tree.root, tree.root)
    tree.n += delta
    return ctx.receipt(op, key, before)


def insert(tree: Tree, key: int) -> UpdateReceipt:
    """Insert a key; the resulting image equals a fresh build of the new set."""
    return _update(tree, key, "insert")


def delete(tree: Tree, key: int) -> UpdateReceipt:
    """Delete a key; the resulting image equals a fresh build of the new set."""
    return _update(tree, key, "delete")
