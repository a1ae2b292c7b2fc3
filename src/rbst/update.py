"""Dynamic insert and delete via greedy top-down partial rebuilds.

The search for an update key walks down from the root and stops at the
first block that either must take the key into its array (its priority
falls below the block's maximum) or must change its fan-out.  Around that
anchor only the separator intervals whose key content changes are laid
out again; every other child subtree is re-linked untouched.  Rebuilt
sections are assembled into auxiliary storage with range-limited scans
of the old subtrees and promoted to the UR region in one atomic commit.
Chains (fan-out one) are re-waved in one linear pass that insert and delete share.

Ancestor blocks on the search path keep their layout but carry a child
weight that changed by one; those are in-place field rewrites, applied
bottom-up after all commits, and reported separately in the receipt.

Insert, delete and the dry run `locate_rebuild` share one case decision
per block on the search path (`_classify`).

Main-memory discipline: scans keep an explicit stack of pending child
labels and pin one block at a time, reading each block once; rebuilds run
on an explicit stack of staged blocks, and a chain is built from one scan
whose pool holds at most alpha + rho priorities.  So the number of
simultaneously pinned blocks stays constant regardless of tree size.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field

from .blocks import BlockNode, ChildRef
from .core import (
    NEG_INF, POS_INF, Tree, active_separators, fanout_bound, scan_keys, successor,
)
from .errors import ConfigError, DuplicateKeyError, MissingKeyError
from .store import AuxHandle

MASK64 = (1 << 64) - 1

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
class RebuildPlan:
    op: str
    key: int
    case: str
    anchor: int | None
    depth: int
    interval: tuple[int, int]
    sections: list[PlanSection]
    carry: int | None = None
    descends_into: int | None = None   # old child label the update continues into


@dataclass
class UpdateReceipt:
    op: str
    key: int
    m: int              # obsolete blocks plus in-place rewrites (old-side change)
    m_prime: int        # staged blocks plus in-place rewrites (new-side change)
    staged: int         # freshly written blocks
    freed: int          # blocks removed
    rewritten: int      # in-place field rewrites (ancestor weights, parent fixes)
    reads: int
    writes: int
    d_prime: int        # height of the rebuilt region, in levels
    cases: list[str]
    staged_labels: frozenset = frozenset()
    freed_labels: frozenset = frozenset()
    rewritten_labels: frozenset = frozenset()


class _Ctx:
    """Per-update bookkeeping: staged/freed/rewritten labels and path fixes."""

    def __init__(self, tree: Tree):
        self.tree = tree
        self.store = tree.store
        self.prio = tree.prio
        self.params = tree.params
        self.alpha = tree.params.alpha
        self.staged: dict[int, int] = {}      # label -> depth
        self.freed: dict[int, int] = {}
        self.rewritten: set[int] = set()
        self.relabels: dict[int, int] = {}
        self.path: list[tuple[int, int | None, int]] = []
        self.cases: list[str] = []
        self._site_handles: list[AuxHandle] = []
        self._site_obsolete: dict[int, int] = {}

    # -- staging ------------------------------------------------------

    def stage(self, node: BlockNode) -> None:
        handle = self.store.write_aux(node)
        self._site_handles.append(handle)
        self.staged[node.label] = node.depth

    def mark_obsolete(self, label: int, depth: int) -> None:
        self._site_obsolete[label] = depth

    def obsolete_recorder(self):
        def on_block(label: int, node: BlockNode) -> None:
            self._site_obsolete[label] = node.depth
        return on_block

    def collect_subtree(self, root_label: int) -> None:
        scan_keys(self.store, self.prio, root_label, NEG_INF, POS_INF,
                  on_block=self.obsolete_recorder())

    def commit_site(self) -> None:
        self.store.commit_rebuild(set(self._site_obsolete), self._site_handles)
        self.freed.update(self._site_obsolete)
        self._site_handles = []
        self._site_obsolete = {}

    def rewrite(self, label: int, node: BlockNode) -> None:
        self.store.rewrite(label, node)
        self.rewritten.add(label)

    # -- receipts -----------------------------------------------------

    def receipt(self, op: str, key: int, before) -> UpdateReceipt:
        after = self.store.stats()
        changed_depths = list(self.staged.values()) + list(self.freed.values())
        if changed_depths:
            d_prime = max(changed_depths) - min(changed_depths) + 1
        else:
            d_prime = 0
        old_side = set(self.freed) | self.rewritten
        new_side = set(self.staged) | self.rewritten
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
            d_prime=d_prime,
            cases=self.cases,
            staged_labels=frozenset(self.staged),
            freed_labels=frozenset(self.freed),
            rewritten_labels=frozenset(self.rewritten),
        )


# ---------------------------------------------------------------------------
# range-limited scans over the old tree
# ---------------------------------------------------------------------------


def _top_pass(ctx: _Ctx, sources, lo: int, hi: int, k: int,
              floor=None, exclude=(), record=False):
    """k smallest-priority stored keys in (lo, hi) plus the total count.

    Scans each source subtree once; with `record`, every visited block is
    marked obsolete.  Keys with priority <= floor and excluded keys are
    skipped.
    """
    prio = ctx.prio
    cands: list[tuple] = []
    total = 0

    def on_key(key: int) -> None:
        nonlocal total
        total += 1
        p = prio.priority(key)
        if len(cands) < k:
            insort(cands, (p, key))
        elif p < cands[-1][0]:
            insort(cands, (p, key))
            cands.pop()

    on_block = ctx.obsolete_recorder() if record else None
    for src in sources:
        scan_keys(ctx.store, prio, src, lo, hi, on_key=on_key,
                  on_block=on_block, pi_floor=floor, exclude=exclude)
    return cands, total


def _count_pass(ctx: _Ctx, source: int, lo: int, hi: int, exclude=()) -> int:
    count = 0

    def on_key(_key: int) -> None:
        nonlocal count
        count += 1

    scan_keys(ctx.store, ctx.prio, source, lo, hi, on_key=on_key, exclude=exclude)
    return count


def _bin_pass(ctx: _Ctx, sources, lo: int, hi: int, bounds: list[int],
              skip: set[int], floor=None, exclude=()):
    """Counts and minimum-priority key per section between `bounds` keys.

    bounds: active separators (ascending); defines len(bounds)+1 bins over
    (lo, hi).  Keys in `skip` (the new array) and `exclude` are ignored,
    as are keys at or below the priority floor.
    """
    prio = ctx.prio
    nbins = len(bounds) + 1
    counts = [0] * nbins
    min_pi: list[tuple | None] = [None] * nbins

    def on_key(key: int) -> None:
        if key in skip:
            return
        i = bisect_right(bounds, key)
        counts[i] += 1
        p = prio.priority(key)
        if min_pi[i] is None or p < min_pi[i]:
            min_pi[i] = p

    for src in sources:
        scan_keys(ctx.store, prio, src, lo, hi, on_key=on_key,
                  pi_floor=floor, exclude=exclude)
    return counts, min_pi


# ---------------------------------------------------------------------------
# fresh subtree construction (staged into auxiliary storage)
# ---------------------------------------------------------------------------


class _BuildState:
    __slots__ = ("sources", "include", "exclude", "floor", "specs")

    def __init__(self, sources, include, exclude, floor, specs):
        self.sources = sources
        self.include = include
        self.exclude = exclude
        self.floor = floor      # priority of the block's own array maximum
        self.specs = iter(specs)  # (slot, lo, hi, weight) pending child sections


def _assemble(ctx: _Ctx, lo: int, hi: int, weight: int, sources, include, exclude,
              floor, parent: int | None, depth: int):
    """Build one block for a fresh section; returns (node, child section specs).

    The stored keys of the section are exactly those in (lo, hi) whose
    priority exceeds `floor` (keys at or below it sit in staged ancestor
    arrays already).
    """
    alpha = ctx.alpha
    prio = ctx.prio
    cands, total = _top_pass(ctx, sources, lo, hi, alpha,
                             floor=floor, exclude=exclude, record=True)
    merged = sorted(cands + [(prio.priority(k), k) for k in include])
    assert total + len(include) == weight, "section weight drifted"
    arr_pi = merged[:alpha]
    arr = sorted(k for _, k in arr_pi)
    label = arr_pi[0][1]
    d = fanout_bound(weight, ctx.params)
    node = BlockNode(arr, [None] * (alpha + 1), parent, depth, d, label)
    if weight <= len(arr):
        return node, []
    seps = sorted(k for _, k in arr_pi[: d - 1])
    arr_set = set(arr)
    counts, min_pi = _bin_pass(ctx, sources, lo, hi, seps, arr_set,
                               floor=floor, exclude=exclude)
    for k in include:
        if k in arr_set:
            continue
        p = prio.priority(k)
        i = bisect_right(seps, k)
        counts[i] += 1
        if min_pi[i] is None or p < min_pi[i]:
            min_pi[i] = p
    bounds = [lo] + seps + [hi]
    specs = []
    for i, cnt in enumerate(counts):
        if cnt == 0:
            continue
        node.children[i] = ChildRef(min_pi[i][1], cnt)
        specs.append((i, bounds[i], bounds[i + 1], cnt))
    assert len(arr) + sum(counts) == weight
    return node, specs


def _build_chain(ctx: _Ctx, lo: int, hi: int, weight: int, sources, include, exclude,
                 floor, parent: int | None, depth: int) -> int:
    """Stage a chain of priority waves covering (lo, hi); returns the head label.

    One recorded scan collects the section's keys above `floor`; with the
    include keys they are sorted by priority and cut into alpha-slices,
    each wave linking to the first key of the next.  The pass holds at
    most alpha + rho priorities, since fanout_bound(w) <= 1 means
    w <= alpha + rho.
    """
    alpha, prio = ctx.alpha, ctx.prio
    pool = [p for p in map(prio.priority, include) if floor is None or p > floor]

    def on_key(key: int) -> None:
        pool.append(prio.priority(key))

    for src in sources:
        scan_keys(ctx.store, prio, src, lo, hi, on_key=on_key,
                  on_block=ctx.obsolete_recorder(), pi_floor=floor, exclude=exclude)
    pool.sort()
    assert len(pool) == weight, "section weight drifted"
    for i in range(0, weight, alpha):
        wave = pool[i:i + alpha]
        node = BlockNode(sorted(k for _, k in wave), [None] * (alpha + 1),
                         parent, depth, 1, wave[0][1])
        if i + alpha < weight:
            node.children[0] = ChildRef(pool[i + alpha][1], weight - i - alpha)
        ctx.stage(node)
        parent, depth = node.label, depth + 1
    return pool[0][1]


def _build_fresh(ctx: _Ctx, lo: int, hi: int, weight: int, sources, include, exclude,
                 parent: int | None, depth: int) -> int | None:
    """Stage a complete subtree for (lo, hi); stack-driven, returns root label."""
    if weight == 0:
        for src in sources:
            ctx.collect_subtree(src)
        return None
    alpha = ctx.alpha
    prio = ctx.prio
    if weight > alpha and fanout_bound(weight, ctx.params) <= 1:
        return _build_chain(ctx, lo, hi, weight, sources, include, exclude,
                            None, parent, depth)
    root_node, specs = _assemble(ctx, lo, hi, weight, sources, include, exclude,
                                 None, parent, depth)
    ctx.stage(root_node)
    root_floor = max(prio.priority(k) for k in root_node.keys)
    stack = [(root_node, _BuildState(sources, include, exclude, root_floor, specs))]
    while stack:
        cur, st = stack[-1]
        spec = next(st.specs, None)
        if spec is None:
            stack.pop()
            continue
        slot, slo, shi, w = spec
        inc_child = [k for k in st.include
                     if slo < k < shi and prio.priority(k) > st.floor]
        want = cur.children[slot].label
        if w > alpha and fanout_bound(w, ctx.params) <= 1:
            got = _build_chain(ctx, slo, shi, w, st.sources, inc_child, st.exclude,
                               st.floor, cur.label, cur.depth + 1)
            assert got == want, "chain head label drifted from the parent slot"
            continue
        child, child_specs = _assemble(ctx, slo, shi, w, st.sources, inc_child,
                                       st.exclude, st.floor, cur.label, cur.depth + 1)
        assert child.label == want, "child label drifted from the parent slot"
        ctx.stage(child)
        child_floor = max(prio.priority(k) for k in child.keys)
        stack.append((child, _BuildState(st.sources, inc_child, st.exclude,
                                         child_floor, child_specs)))
    return root_node.label


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


def _new_bounds(prio, new_arr: list[int], new_fanout: int, lo: int, hi: int) -> list[int]:
    if new_fanout <= 1 or len(new_arr) == 0:
        return [lo, hi]
    take = min(new_fanout - 1, len(new_arr))
    seps = sorted(sorted(new_arr, key=prio.priority)[:take])
    return [lo] + seps + [hi]


def _diff_sections(ctx: _Ctx, node: BlockNode, lo: int, hi: int,
                   new_arr: list[int], new_fanout: int,
                   adds: list[int], removes: list[int]) -> list[PlanSection]:
    """Map the old partition onto the new one.

    A new section is reused when exactly one non-empty old section
    overlaps it, that section's interval is contained in the new one, and
    no key moves in or out; everything else is scheduled for rebuilding.
    """
    old = _old_sections(node, ctx.prio, lo, hi)
    bounds = _new_bounds(ctx.prio, new_arr, new_fanout, lo, hi)
    out: list[PlanSection] = []
    for j in range(len(bounds) - 1):
        a, b = bounds[j], bounds[j + 1]
        over = [(olo, ohi, ref) for (olo, ohi, ref) in old if olo < b and ohi > a]
        nonempty = [(olo, ohi, ref) for (olo, ohi, ref) in over if ref is not None]
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

    Returns (child_ref, sec_lo, sec_hi) when the update continues deeper,
    else None.  new_arr is the anchor's array after the update; adds are
    keys pushed down into sections, removes keys leaving them; key_below
    is the update key when it is not part of new_arr.
    """
    prio = ctx.prio
    alpha = ctx.alpha
    if not new_arr:
        ctx.relabels[node.label] = None
        ctx.mark_obsolete(node.label, node.depth)
        ctx.commit_site()
        return None
    d_new = fanout_bound(n_new, ctx.params)
    label_new = min(new_arr, key=prio.priority)
    sections = _diff_sections(ctx, node, lo, hi, new_arr, d_new, adds, removes)
    continue_into = None
    if key_below is not None:
        bounds = _new_bounds(prio, new_arr, d_new, lo, hi)
        j = bisect_right(bounds[1:-1], key_below)
        sec = sections[j]
        if sec.reuse is not None:
            continue_into = (sec.reuse, sec.lo, sec.hi)
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
    ctx.mark_obsolete(node.label, node.depth)
    ctx.stage(anchor)
    ctx.commit_site()
    if label_new != node.label:
        ctx.relabels[node.label] = label_new
        for j, sec in enumerate(sections):
            if sec.reuse is None:
                continue
            child = ctx.store.peek(sec.reuse.label).copy()
            child.parent = label_new
            ctx.rewrite(sec.reuse.label, child)
    return continue_into


# ---------------------------------------------------------------------------
# chain linear passes
# ---------------------------------------------------------------------------


def _rewave(ctx: _Ctx, node: BlockNode, pool: list[tuple]) -> None:
    """Rewrite a chain from `node` down as priority waves; one read per block.

    `pool` holds the (rank, key) priorities of the keys that replace the
    node's array, ascending.  Every key in it ranks below every key further
    down the chain, so the blocks below are appended to it one at a time,
    and the alpha smallest keys leave as the next wave whenever the pool
    holds more than alpha keys or the chain below is used up.
    """
    store, prio, alpha = ctx.store, ctx.prio, ctx.alpha
    ctx.mark_obsolete(node.label, node.depth)
    below = node.children[0]
    parent, depth, head = node.parent, node.depth, None
    while pool or below is not None:
        if len(pool) <= alpha and below is not None:
            nxt = store.read(below.label)
            store.release(below.label)
            ctx.mark_obsolete(below.label, nxt.depth)
            pool += sorted(map(prio.priority, nxt.keys))
            below = nxt.children[0]
            continue
        wave, pool = pool[:alpha], pool[alpha:]
        new = BlockNode(sorted(k for _, k in wave), [None] * (alpha + 1),
                        parent, depth, 1, wave[0][1])
        if pool or below is not None:
            link = pool[0][1] if pool else below.label
            new.children[0] = ChildRef(link, len(pool) + (below.weight if below else 0))
        ctx.stage(new)
        if head is None:
            head = new.label
        parent, depth = new.label, depth + 1
    ctx.relabels[node.label] = head
    ctx.commit_site()


def _list_insert(ctx: _Ctx, head_label: int, key: int) -> None:
    """Find the first wave whose maximum priority is above the key's; re-wave from it.

    Waves ascend in priority, so a wave whose successor's label (its
    smallest-priority key) ranks below the key is passed on that one hash.
    """
    store, prio = ctx.store, ctx.prio
    pi_x = prio.priority(key)
    cur = head_label
    while True:
        node = store.read(cur)
        store.release(cur)
        nxt = node.children[0]
        if nxt is None or pi_x < prio.priority(nxt.label):
            pool = list(map(prio.priority, node.keys))
            if nxt is None or pi_x < max(pool):
                break
        ctx.path.append((cur, nxt.label, key))
        cur = nxt.label
    pool.append(pi_x)
    _rewave(ctx, node, sorted(pool))


def _list_delete(ctx: _Ctx, head_label: int, key: int) -> None:
    """Find the wave that holds the key; re-wave from it without the key."""
    store, prio = ctx.store, ctx.prio
    cur = head_label
    while True:
        node = store.read(cur)
        store.release(cur)
        if key in node.keys:
            break
        nxt = node.children[0]
        if nxt is None:
            raise MissingKeyError(f"key {key} not present")
        ctx.path.append((cur, nxt.label, key))
        cur = nxt.label
    _rewave(ctx, node, sorted(prio.priority(k) for k in node.keys if k != key))


# ---------------------------------------------------------------------------
# drivers
# ---------------------------------------------------------------------------


def _check_update(tree: Tree, key: int, op: str) -> None:
    """Refuse a key outside u64, an insert of a present key or a delete of a missing one."""
    if not 0 <= key <= MASK64:
        raise ConfigError(f"key {key} outside the u64 universe")
    present = tree.root is not None and successor(tree, key) == key
    if op == "insert" and present:
        raise DuplicateKeyError(f"key {key} already present")
    if op == "delete" and not present:
        raise MissingKeyError(f"key {key} not present")


def _classify(tree: Tree, node: BlockNode, n_sub: int, key: int, pi_x, op: str):
    """The update's decision at one block on the search path.

    None means the block keeps its array and fan-out and the descent
    passes it.  Otherwise (case, new_arr, adds, removes, key_below): a
    list case hands the block to the chain pass, any other case makes it
    the anchor that `_run_anchor` rebuilds with these arguments.
    """
    prio, params = tree.prio, tree.params
    d_old = node.fanout
    if op == "insert":
        d_new = fanout_bound(n_sub + 1, params)
        if d_old <= 1 and d_new <= 1:
            return CASE_LIST_INSERT, [], [], [], key
        if n_sub < params.alpha or pi_x < max(map(prio.priority, node.keys)):
            y = max(node.keys, key=prio.priority) if n_sub >= params.alpha else None
            pushed = [] if y is None else [y]
            new_arr = [k for k in node.keys if k != y] + [key]
            # the key is never an interval end, so membership tests the separators
            active = key in _new_bounds(prio, new_arr, d_new, NEG_INF, POS_INF)
            case = CASE_IN_ARRAY_ACTIVE if active else CASE_IN_ARRAY_INACTIVE
            return case, new_arr, pushed, [], None
        if d_new > d_old:
            return CASE_FANOUT_INCREASE, list(node.keys), [], [], key
        return None
    d_new = fanout_bound(n_sub - 1, params)
    if d_old <= 1:
        return CASE_LIST_DELETE, [], [], [], key
    if key in node.keys:
        child_labels = [c.label for c in node.children if c is not None]
        pulled = [min(child_labels, key=prio.priority)] if child_labels else []
        new_arr = [k for k in node.keys if k != key] + pulled
        return CASE_IN_ARRAY_DELETE, new_arr, [], pulled, None
    if d_new < d_old:
        return CASE_FANOUT_DECREASE, list(node.keys), [], [], key
    return None


def _follow(node: BlockNode, prio, key: int, lo: int, hi: int):
    """(child ref or None, sub_lo, sub_hi) of the section the key falls into."""
    seps = active_separators(node, prio)
    j = bisect_right(seps, key)
    bounds = [lo] + seps + [hi]
    return node.children[j], bounds[j], bounds[j + 1]


def _stage_leaf(ctx: _Ctx, key: int, parent: int | None, depth: int) -> None:
    leaf = BlockNode([key], [None] * (ctx.alpha + 1), parent, depth,
                     fanout_bound(1, ctx.params), key)
    ctx.stage(leaf)
    ctx.commit_site()
    ctx.cases.append(CASE_LIST_NEW_BLOCK)


def _apply_path_fixes(ctx: _Ctx, delta: int) -> None:
    for parent_label, old_child, key in reversed(ctx.path):
        node = ctx.store.peek(parent_label).copy()
        if old_child is None:
            seps = active_separators(node, ctx.prio)
            slot = bisect_right(seps, key)
            ref = node.children[slot]
            assert ref is None
            node.children[slot] = ChildRef(key, delta)
        else:
            slot = next(
                i for i, c in enumerate(node.children)
                if c is not None and c.label == old_child
            )
            ref = node.children[slot]
            new_label = ctx.relabels.get(old_child, old_child)
            new_w = ref.weight + delta
            if new_w <= 0 or new_label is None:
                node.children[slot] = None
            else:
                node.children[slot] = ChildRef(new_label, new_w)
        ctx.rewrite(parent_label, node)


def _finish(ctx: _Ctx, op: str, key: int, before, delta: int) -> UpdateReceipt:
    _apply_path_fixes(ctx, delta)
    tree = ctx.tree
    if tree.root is not None and tree.root in ctx.relabels:
        tree.root = ctx.relabels[tree.root]
    tree.n += delta
    if tree.n == 0:
        tree.root = None
    return ctx.receipt(op, key, before)


def _update(tree: Tree, key: int, op: str) -> UpdateReceipt:
    """Greedy top-down descent that rebuilds at the blocks `_classify` picks."""
    _check_update(tree, key, op)
    before = tree.store.stats()
    ctx = _Ctx(tree)
    delta = 1 if op == "insert" else -1
    if tree.root is None:
        _stage_leaf(ctx, key, None, 0)
        tree.root = key
        return _finish(ctx, op, key, before, delta)
    pi_x = tree.prio.priority(key) if op == "insert" else None
    cur, n_sub, lo, hi = tree.root, tree.n, NEG_INF, POS_INF
    while True:
        node = tree.store.read(cur)
        tree.store.release(cur)
        step = _classify(tree, node, n_sub, key, pi_x, op)
        if step is None:
            child, lo, hi = _follow(node, tree.prio, key, lo, hi)
            if child is None:
                if op == "delete":
                    raise MissingKeyError(f"key {key} not present")
                _stage_leaf(ctx, key, node.label, node.depth + 1)
                ctx.path.append((node.label, None, key))
                break
            ctx.path.append((node.label, child.label, key))
            cur, n_sub = child.label, child.weight
            continue
        case, new_arr, adds, removes, key_below = step
        ctx.cases.append(case)
        if case == CASE_LIST_INSERT:
            _list_insert(ctx, cur, key)
            break
        if case == CASE_LIST_DELETE:
            _list_delete(ctx, cur, key)
            break
        cont = _run_anchor(ctx, node, lo, hi, n_sub + delta, new_arr,
                           adds, removes, key_below, op)
        if cont is None:
            break
        ref, lo, hi = cont
        ctx.path.append((node.label, ref.label, key))
        cur, n_sub = ref.label, ref.weight
    return _finish(ctx, op, key, before, delta)


def insert(tree: Tree, key: int) -> UpdateReceipt:
    """Insert a key; the resulting image equals a fresh build of the new set."""
    return _update(tree, key, "insert")


def delete(tree: Tree, key: int) -> UpdateReceipt:
    """Delete a key; the resulting image equals a fresh build of the new set."""
    return _update(tree, key, "delete")


# ---------------------------------------------------------------------------
# public planning and range probes
# ---------------------------------------------------------------------------


def top(tree: Tree, k: int, root_label: int, lo: int, hi: int):
    """k smallest-priority keys of the subtree's keys in open (lo, hi).

    Returns (keys in ascending priority order, leftover counts per gap
    between the reported keys in key order); the counts sum to the number
    of unreported keys in range.
    """
    if not 1 <= k <= tree.params.alpha:
        raise ConfigError(f"k={k} outside 1..alpha")
    ctx = _Ctx(tree)
    cands, total = _top_pass(ctx, [root_label], lo, hi, k)
    keys_by_pi = [key for _, key in cands]
    reported = sorted(keys_by_pi)
    gaps = [0] * (len(reported) + 1)

    def on_key(key: int) -> None:
        gaps[bisect_right(reported, key)] += 1

    scan_keys(tree.store, tree.prio, root_label, lo, hi,
              on_key=on_key, exclude=set(reported))
    assert sum(gaps) == total - len(reported)
    return keys_by_pi, gaps


def locate_rebuild(tree: Tree, key: int, op: str = "insert") -> RebuildPlan:
    """Dry-run descent: the first anchor the update for `key` would rebuild."""
    if op not in ("insert", "delete"):
        raise ConfigError(f"op {op!r} not insert/delete")
    _check_update(tree, key, op)
    if tree.root is None:
        return RebuildPlan(op, key, CASE_LIST_NEW_BLOCK, None, 0,
                           (NEG_INF, POS_INF), [])
    pi_x = tree.prio.priority(key) if op == "insert" else None
    cur, n_sub, lo, hi, depth = tree.root, tree.n, NEG_INF, POS_INF, 0
    while True:
        node = tree.store.read(cur)
        tree.store.release(cur)
        step = _classify(tree, node, n_sub, key, pi_x, op)
        if step is not None:
            break
        child, sub_lo, sub_hi = _follow(node, tree.prio, key, lo, hi)
        if child is None:
            return RebuildPlan(op, key, CASE_LIST_NEW_BLOCK, cur, depth, (lo, hi), [])
        cur, n_sub, lo, hi, depth = child.label, child.weight, sub_lo, sub_hi, depth + 1
    case, new_arr, adds, removes, key_below = step
    plan = RebuildPlan(op, key, case, cur, depth, (lo, hi), [])
    if case in (CASE_LIST_INSERT, CASE_LIST_DELETE):
        return plan
    d_new = fanout_bound(n_sub + (1 if op == "insert" else -1), tree.params)
    secs = _diff_sections(_Ctx(tree), node, lo, hi, new_arr, d_new, adds, removes)
    # sections that change content: not reused and not empty no-ops
    plan.sections = [s for s in secs if s.reuse is None and (s.weight > 0 or s.sources)]
    if key_below is None:
        plan.carry = next(iter(adds + removes), None)
        return plan
    landing = next(s for s in secs if s.lo < key_below < s.hi)
    if landing.reuse is not None:
        plan.descends_into = landing.reuse.label
    else:
        plan.carry = key_below
    return plan
