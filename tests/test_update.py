import random
from bisect import bisect_left

import numpy as np
import pytest

import rbst.update as upd
from rbst import BlockStore, Params, Tree, check_invariants, delete, fanout_bound, insert
from rbst.blocks import ChildRef
from rbst.core import active_separators
from rbst.errors import (
    ConfigError, CorruptionError, DuplicateKeyError, InvalidPermutationError, MissingKeyError, NotFoundError,
    RbstError,
)
from rbst.oracle import oracle_build, oracle_tree
from rbst.priority import MASK64, ExplicitPriority, HashedPriority
from rbst.store import parse_image
from rbst.update import (
    CASE_FANOUT_DECREASE, CASE_FANOUT_INCREASE, CASE_IN_ARRAY_ACTIVE, CASE_IN_ARRAY_DELETE,
    CASE_LIST_DELETE, CASE_LIST_INSERT, CASE_LIST_NEW_BLOCK, _classify,
)

from conftest import CollidingPriority, build_by_inserts

GRID = [(a, r) for a in (1, 2, 3, 4) for r in (0, 1, 2, 4)]
# whole-chain inputs: at rho=64 a tree of about 40 keys is one chain of
# priority waves; the update lands in its head wave, a middle wave or its tail
CHAIN = [(a, where) for a in (1, 2, 3) for where in (0.0, 0.5, 1.0)]


def _case_params(case: int, n_grid: int):
    """(params, wave position or None): GRID for the first n_grid cases, then CHAIN."""
    if case < n_grid:
        return Params(*GRID[case % len(GRID)]), None
    alpha, where = CHAIN[case - n_grid]
    return Params(alpha, 64), where


def _fresh_key_at(tree, keys, rng, where: float) -> int:
    """A new key with round(where * len(keys)) present keys below it in priority."""
    pis = sorted(tree.prio.priority(k) for k in keys)
    rank = round(where * len(keys))
    while True:
        k = rng.randrange(1 << 22)
        if k not in keys and bisect_left(pis, tree.prio.priority(k)) == rank:
            return k


def _present_key_at(tree, keys, where: float) -> int:
    return sorted(keys, key=tree.prio.priority)[round(where * (len(keys) - 1))]


def test_insert_into_empty():
    tree = Tree.empty(Params.of(3, 0.5), seed=1)
    r = insert(tree, 42)
    assert tree.n == 1 and tree.root == 42
    node = tree.store.peek(42)
    assert node.keys == [42] and node.depth == 0
    assert r.staged == 1 and r.freed == 0 and r.d_prime == 1
    assert r.cases == [CASE_LIST_NEW_BLOCK]


def test_duplicate_insert_rejected_unchanged():
    tree = build_by_inserts([5, 6, 7], Params.unbuffered(2), seed=2)
    img = tree.image()
    with pytest.raises(DuplicateKeyError):
        insert(tree, 6)
    assert tree.image() == img


def test_insert_of_unranked_key_rejected_unchanged():
    keys = list(range(1, 11))
    tree = oracle_tree(keys, ExplicitPriority.from_order(keys[::-1]), Params(2, 4))
    img = tree.image()
    with pytest.raises(InvalidPermutationError, match="key 99 ") as err:
        insert(tree, 99)
    assert isinstance(err.value, RbstError)
    assert tree.image() == img and tree.n == 10


def test_delete_missing_rejected_unchanged():
    tree = build_by_inserts([5, 6, 7], Params(2, 1), seed=2)
    img = tree.image()
    with pytest.raises(MissingKeyError):
        delete(tree, 99)
    assert tree.image() == img


@pytest.mark.parametrize("op", [insert, delete])
@pytest.mark.parametrize("key", [-1, 1 << 64], ids=["minus-1", "2^64"])
def test_update_refuses_a_key_outside_u64_without_io(op, key):
    tree = build_by_inserts([5, 6, 7], Params(2, 1), seed=2)
    img = tree.image()
    tree.store.reset_stats()
    with pytest.raises(ConfigError, match=f"key {key} outside the u64 universe"):
        op(tree, key)
    s = tree.store.stats()
    assert (s.reads, s.writes, s.allocs, s.frees, s.peak_pinned) == (0,) * 5
    assert tree.image() == img and not tree.store.aux


def _refusal_sizes(alpha: int, rho: int) -> list[int]:
    """Small sizes plus those where a root that an update passes grows or shrinks its fan-out."""
    sizes = {1, 2, alpha + 1, 2 * alpha + 3}
    for k in (1, 2) if rho else ():
        sizes |= {alpha + k * rho, alpha + k * rho + 1}
    return sorted(sizes)


@pytest.mark.parametrize("alpha,rho", [(a, r) for a in (1, 2, 3) for r in (0, 1, 3, 64)])
def test_refused_update_leaves_store_untouched(alpha, rho, monkeypatch):
    # a duplicate insert and a delete of a gap key are refused before any
    # write, whichever case the descent meets on the way; some refusals pass
    # a fan-out anchor that would commit and descend further
    prechecked = []
    check_membership = upd._check_membership

    def watched(tree, key, op):
        prechecked.append(op)
        return check_membership(tree, key, op)

    monkeypatch.setattr(upd, "_check_membership", watched)
    params = Params(alpha, rho)
    for n in _refusal_sizes(alpha, rho):
        keys = sorted(random.Random(n).sample(range(2, 1 << 20, 2), n))
        gaps = [keys[0] - 1] + [k + 1 for k in keys]
        tree = oracle_tree(keys, HashedPriority(n + rho), params)
        img, root = tree.image(), tree.root
        refusals = [(insert, k, DuplicateKeyError) for k in keys]
        refusals += [(delete, g, MissingKeyError) for g in gaps]
        for op, key, err in refusals:
            before = tree.store.stats()
            with pytest.raises(err):
                op(tree, key)
            after = tree.store.stats()
            assert tree.image() == img and tree.n == n and tree.root == root, (op, key)
            assert not tree.store.aux and after.cur_pinned == 0
            assert (after.writes, after.allocs, after.frees) == (
                before.writes, before.allocs, before.frees)
    if rho:
        assert {"insert", "delete"} <= set(prechecked)


def test_updates_never_peek(monkeypatch):
    # an update counts every block it touches: none goes through the
    # uncounted peek, in any of the eight cases or in a refusal
    def no_peek(self, ref):
        raise AssertionError(f"an update peeked at block {ref!r}")

    all_cases = {v for name, v in vars(upd).items() if name.startswith("CASE_")}
    rng = random.Random(22)
    params = Params(2, 2)
    tree = Tree.empty(params, seed=5)
    present, cases = [], set()
    monkeypatch.setattr(BlockStore, "peek", no_peek)
    for _ in range(300):
        if present and rng.random() < 0.45:
            r = delete(tree, present.pop(rng.randrange(len(present))))
        else:
            k = rng.randrange(1 << 20)
            if k in present:
                continue
            present.append(k)
            r = insert(tree, k)
        cases.update(r.cases)
        if present:
            with pytest.raises(DuplicateKeyError):
                insert(tree, rng.choice(present))
        with pytest.raises(MissingKeyError):
            delete(tree, (1 << 20) + rng.randrange(1 << 20))
    monkeypatch.undo()
    assert cases == all_cases
    assert tree.image() == oracle_build(present, tree.prio, params)


def test_delete_only_key():
    # the buffered tree drops its last key by a list-delete, the unbuffered
    # one by an in-array delete; each maps the root to None, and the empty
    # tree then refuses a delete before any I/O
    for params in (Params.of(2, 0.5), Params.unbuffered(2)):
        tree = Tree.empty(params, seed=3)
        insert(tree, 8)
        delete(tree, 8)
        assert tree.n == 0 and tree.root is None and not tree.store.blocks, params
        tree.store.reset_stats()
        with pytest.raises(MissingKeyError):
            delete(tree, 8)
        s = tree.store.stats()
        assert (s.reads, s.writes, s.allocs, s.frees, s.peak_pinned) == (0,) * 5, params


def test_insert_then_delete_restores_image():
    rng = random.Random(7)
    for alpha, rho in GRID:
        params = Params(alpha, rho)
        keys = rng.sample(range(1 << 24), 30)
        tree = build_by_inserts(keys, params, seed=4)
        img = tree.image()
        x = next(k for k in iter(lambda: rng.randrange(1 << 24), None) if k not in keys)
        insert(tree, x)
        delete(tree, x)
        assert tree.image() == img


def test_plan_globally_smallest_priority_anchors_at_root():
    keys = list(range(10, 70))
    order = sorted(keys)  # ranks by key order; new key 5 gets rank below all
    prio = ExplicitPriority({k: i + 2 for i, k in enumerate(order)} | {5: 1})
    params = Params.unbuffered(3)
    tree = Tree(BlockStore(3), params, prio)
    for k in keys:
        insert(tree, k)
    old_root = tree.root
    r = insert(tree, 5)
    assert r.cases[0].startswith("in-array")
    # the root block is the anchor: it is rebuilt at depth 0 and takes key 5's label
    assert old_root in r.freed_labels and 5 in r.staged_labels and tree.root == 5
    assert tree.store.peek(5).depth == 0


def _watch_anchors(monkeypatch):
    """Record every anchor a real update rebuilds.

    Each record holds the case, whether the old fan-out is full, the
    sections `_diff_sections` schedules for rebuilding and whether the
    update descends below the anchor.  At an in-array delete it checks that
    the rebuilt sections lie between consecutive separators of the new anchor.
    """
    seen = []
    diff_sections, run_anchor = upd._diff_sections, upd._run_anchor

    def watched_diff(*args):
        secs = diff_sections(*args)
        # snapshot now: _run_anchor then adds the update key to its landing section
        seen[-1]["sections"] = [(s.lo, s.hi, [r.label for r in s.sources]) for s in secs
                                if s.reuse is None and (s.weight > 0 or s.sources)]
        return secs

    def watched_run(ctx, node, lo, hi, n_new, new_arr, *args):
        seen.append({"case": ctx.cases[-1], "full": node.fanout == ctx.alpha + 1,
                     "sections": []})
        cont = run_anchor(ctx, node, lo, hi, n_new, new_arr, *args)
        seen[-1]["descends"] = cont is not None
        if seen[-1]["case"] == CASE_IN_ARRAY_DELETE and new_arr:
            anchor = ctx.store.peek(min(new_arr, key=ctx.prio.priority))
            bounds = [lo] + active_separators(anchor, ctx.prio) + [hi]
            got = {(a, b) for a, b, _ in seen[-1]["sections"]}
            assert got <= set(zip(bounds, bounds[1:])), seen[-1]
        return cont

    monkeypatch.setattr(upd, "_diff_sections", watched_diff)
    monkeypatch.setattr(upd, "_run_anchor", watched_run)
    return seen


def test_plan_bounds_by_case(rng, monkeypatch):
    # the algorithm's contract: fan-out changes touch at most two rebuilt
    # sections plus the key's own landing; an in-array rebuild at a primary
    # block touches at most three; buffering in-array anchors can reach four
    anchors = _watch_anchors(monkeypatch)
    for alpha, rho in [(2, 1), (3, 2), (4, 4), (3, 0), (1, 2)]:
        params = Params(alpha, rho)
        tree = Tree.empty(params, seed=alpha)
        present, uni = [], rng.sample(range(1 << 28), 300)
        for _ in range(500):
            if present and rng.random() < 0.45:
                delete(tree, present.pop(rng.randrange(len(present))))
            elif uni:
                present.append(uni.pop())
                insert(tree, present[-1])
            else:
                break
    assert {a["case"] for a in anchors} >= {
        CASE_FANOUT_INCREASE, CASE_FANOUT_DECREASE, CASE_IN_ARRAY_DELETE}
    for a in anchors:
        secs = a["sections"]
        if a["case"] == CASE_FANOUT_INCREASE:
            assert len(secs) <= 3
            sources = {label for _, _, labels in secs for label in labels}
            assert len(sources) + a["descends"] <= 2, a
        elif a["case"] == CASE_FANOUT_DECREASE:
            assert len(secs) <= 2, a
        else:
            cap = 3 if a["full"] else 4
            assert len(secs) <= cap, a


@pytest.mark.parametrize("case", range(40))
def test_top_against_flat_scan(case):
    # a rebuild's only store pass: every key of a range, leaving out excluded
    # keys, plus the keys pushed down into the section (include, held by no
    # block) that fall in the range, all in ascending priority; every block
    # it reads is marked obsolete
    rng = random.Random(case + 100)
    alpha, rho = GRID[case % len(GRID)]
    params = Params(alpha, rho)
    n = rng.randrange(1, 64)
    keys = rng.sample(range(1000), n)
    prio = HashedPriority(case)
    tree = build_by_inserts(keys, params, seed=0, prio=prio)
    lo = rng.randrange(-1, 1000)
    hi = lo + rng.randrange(0, 1000 - max(lo, 0))
    exclude = rng.sample(keys, n // 4)
    include = rng.sample(sorted(set(range(1000)) - set(keys)), rng.randrange(12))
    ctx = upd._Ctx(tree)
    tree.store.reset_stats()
    got = upd._top_pass(ctx, [tree.root], lo, hi, include, exclude)
    want = sorted((k for k in keys + include if lo < k < hi and k not in exclude),
                  key=prio.priority)
    assert got == want
    assert tree.store.stats().reads == len(ctx._site_obsolete) >= 1


def _image_diff(before: bytes, after: bytes):
    def blocks_of(img):
        store, header = parse_image(img)
        return {l: img_bytes(b, store.alpha) for l, b in store.blocks.items()}

    def img_bytes(node, alpha):
        from rbst.blocks import pack_record
        return pack_record(node, alpha)

    a, b = blocks_of(before), blocks_of(after)
    old_side = {l for l in a if l not in b or a[l] != b[l]}
    new_side = {l for l in b if l not in a or a[l] != b[l]}
    return old_side, new_side


@pytest.mark.parametrize("case", range(30 + len(CHAIN)))
def test_receipt_accounts_for_image_diff(case):
    # every block the image shows changed must be in the receipt's freed,
    # staged, or rewritten sets; the counts never undershoot the true diff
    rng = random.Random(case * 13 + 5)
    params, where = _case_params(case, 30)
    keys = rng.sample(range(1 << 22), rng.randrange(1, 64) if where is None else 40)
    tree = build_by_inserts(keys, params, seed=case)
    for i in range(6):
        before = tree.image()
        if where is not None:
            # alternate a delete and an insert at the same wave position; at
            # alpha 1 and 3 each delete drops a one-key tail, each insert adds one
            if i % 2 == 0:
                k = _present_key_at(tree, keys, where)
                keys.remove(k)
                r = delete(tree, k)
            else:
                k = _fresh_key_at(tree, keys, rng, where)
                keys.append(k)
                r = insert(tree, k)
        elif keys and rng.random() < 0.5:
            k = keys.pop(rng.randrange(len(keys)))
            r = delete(tree, k)
        else:
            k = rng.randrange(1 << 22)
            if k in keys:
                continue
            keys.append(k)
            r = insert(tree, k)
        after = tree.image()
        old_side, new_side = _image_diff(before, after)
        assert old_side <= r.freed_labels | r.rewritten_labels, sorted(
            old_side - (r.freed_labels | r.rewritten_labels))
        assert new_side <= r.staged_labels | r.rewritten_labels
        assert len(old_side) <= r.m and len(new_side) <= r.m_prime


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_list_insert_at_every_wave_boundary(alpha):
    # a 40-key tree at rho=64 is one chain; a fresh key at each priority rank
    # 0..40 lands once in every wave and once on every wave boundary
    params = Params(alpha, 64)
    rng = random.Random(alpha + 700)
    keys = rng.sample(range(1 << 22), 40)
    tree = build_by_inserts(keys, params, seed=alpha)
    base = tree.image()
    chain, ref = 0, tree.root
    while ref is not None:
        node = tree.store.peek(ref)
        assert node.fanout == 1
        chain += 1
        ref = node.children[0].label if node.children[0] else None
    for rank in range(len(keys) + 1):
        tree = Tree.from_image_bytes(base)
        k = _fresh_key_at(tree, keys, rng, rank / len(keys))
        r = insert(tree, k)
        assert r.cases == [CASE_LIST_INSERT]
        assert tree.image() == oracle_build(keys + [k], tree.prio, params)
        assert check_invariants(tree).ok
        # every block of the chain once, the head included; each passed wave
        # once more, re-read before its child weight is rewritten
        assert r.reads == chain + r.rewritten
        # waves hold alpha keys each; the chain is rewritten from the wave the
        # key joins, which is the later of the two waves at a boundary
        assert r.freed == chain - min(rank // alpha, chain - 1)


@pytest.mark.parametrize("prio", [HashedPriority(s) for s in (0, 7, 101, MASK64)] + ["explicit"],
                         ids=lambda p: f"seed{p.seed}" if p != "explicit" else p)
@pytest.mark.parametrize("n", [0, 1, upd._NUMPY_FROM - 1, upd._NUMPY_FROM, 3500])
def test_by_priority_matches_per_key_sort(prio, n):
    # both paths of the helper, with the u64 end keys 0 and 2**64 - 1 in play
    rng = random.Random(n)
    inner: set[int] = set()
    while len(inner) < n - 2:
        inner.add(rng.randrange(1, MASK64))
    keys = [MASK64, 0][:n] + sorted(inner)
    rng.shuffle(keys)
    if prio == "explicit":
        prio = ExplicitPriority.from_order(rng.sample(keys, n))
    want = sorted(keys, key=prio.priority)
    for given in (keys, np.array(keys, dtype=np.uint64)):
        got = upd._by_priority(prio, given)
        assert got == want
        assert all(type(k) is int for k in got)


def _emitted(layout, keys, *args) -> list:
    blocks: list = []
    layout(keys, *args, blocks.append)
    return blocks


def _assert_same_blocks(got: list, want: list) -> None:
    """The same pre-order, every field equal, and every label, key and weight an int."""
    assert [b.label for b in got] == [b.label for b in want]
    for a, b in zip(got, want):
        assert (a.keys, a.children, a.parent, a.depth, a.fanout) == \
            (b.keys, b.children, b.parent, b.depth, b.fanout)
        refs = [c for c in a.children if c is not None]
        fields = [a.label, a.depth, a.fanout, *a.keys, *(f for c in refs for f in (c.label, c.weight))]
        assert all(type(v) is int for v in fields), a
        assert a.parent is None or type(a.parent) is int


@pytest.mark.parametrize("tied", [False, True], ids=["hashed", "tied"])
@pytest.mark.parametrize("alpha,rho", [(1, 0), (2, 1), (4, 16), (16, 3456)])
@pytest.mark.parametrize("n", [upd._ARRAY_FROM - 1, upd._ARRAY_FROM, upd._ARRAY_FROM + 1, 3000])
def test_layout_of_a_uint64_array_equals_the_layout_of_its_list(n, alpha, rho, tied):
    # set-up and rebuilds hand `layout_subtree` a uint64 array from
    # `_ARRAY_FROM` keys on; it must emit what the list path emits for them
    rng = random.Random(n * 31 + alpha)
    inner: set[int] = set()
    while len(inner) < n - 2:
        inner.add(rng.randrange(1, MASK64))
    keys = [0, MASK64, *inner]
    prio = CollidingPriority() if tied else HashedPriority(n + rho)
    ranked = upd._by_priority(prio, keys)
    arr = upd._ranked(prio, keys)
    assert isinstance(arr, np.ndarray) == (n >= upd._ARRAY_FROM)
    arr = np.asarray(arr, dtype=np.uint64)
    assert arr.tolist() == ranked
    args = (Params(alpha, rho), 7, 3)
    _assert_same_blocks(_emitted(upd.layout_subtree, arr, *args),
                        _emitted(upd.layout_subtree, ranked, *args))


@pytest.mark.parametrize("alpha", [1, 2, 4, 16])
def test_waves_of_a_uint64_array_equal_the_waves_of_its_list(alpha):
    # a chain of each length around the wave size, its remainder wave included
    prio = HashedPriority(alpha)
    for n in sorted({1, alpha - 1, alpha, alpha + 1, 2 * alpha + 1} - {0}):
        ranked = upd._by_priority(prio, random.Random(n).sample(range(1 << 40), n))
        arr = np.array(ranked, dtype=np.uint64)
        head = upd._waves(arr, alpha, None, 0, lambda node: None)
        assert type(head) is int and head == ranked[0]
        want = _emitted(upd._waves, ranked, alpha, None, 0)
        _assert_same_blocks(_emitted(upd._waves, arr, alpha, None, 0), want)
        assert len(want) == -(-n // alpha)


class _CountingPriority(HashedPriority):
    calls = 0

    def priority(self, key):
        self.calls += 1
        return super().priority(key)


@pytest.mark.parametrize("alpha", [1, 2, 4])
def test_list_insert_classified_without_hashing(alpha):
    # a fan-out-1 chain head that stays fan-out 1 is a list-insert whatever
    # the key's priority, and a list-delete of a key it holds, so the
    # classifier needs no hash of its keys for either op
    params = Params(alpha, 64)
    keys = random.Random(alpha).sample(range(1 << 22), 30)
    prio = _CountingPriority(alpha)
    tree = oracle_tree(keys, prio, params)
    head = tree.store.peek(tree.root)
    assert head.fanout == 1 and fanout_bound(tree.n + 1, params) == 1
    pi_x = prio.priority(1 << 23)
    for op, key, pi, case in (("insert", 1 << 23, pi_x, CASE_LIST_INSERT),
                              ("delete", head.keys[0], None, CASE_LIST_DELETE)):
        prio.calls = 0
        step = _classify(tree, head, tree.n, key, pi, op)
        assert step[0] == case
        assert prio.calls == 0, op


@pytest.mark.parametrize("rho", [40, 80, 160])
def test_chain_rebuild_reads_linear(rho):
    # n = alpha + rho + 1 keys: the root has fan-out 2 and a chain below each
    # separator; a key of lowest priority joins the root and pushes its
    # maximum down, so the chains are rebuilt, each from one scan
    alpha = 2
    rng = random.Random(rho)
    keys = rng.sample(range(1 << 22), alpha + rho + 2)
    x = keys.pop()
    params = Params(alpha, rho)
    prio = ExplicitPriority.from_order([x] + keys)
    tree = oracle_tree(keys, prio, params)
    assert tree.store.peek(tree.root).fanout == 2
    r = insert(tree, x)
    assert r.cases == [CASE_IN_ARRAY_ACTIVE]
    assert tree.image() == oracle_build(keys + [x], prio, params)
    assert r.reads <= 4 * r.freed + 8, (r.reads, r.freed)


@pytest.mark.parametrize("alpha,rho", GRID)
def test_rebuild_reads_each_block_once(alpha, rho, monkeypatch):
    # a partial rebuild gathers its section with one pass over the old
    # subtrees: no block is read twice in one rebuild, and every block it
    # reads is one the update frees; chain blocks are read through read_chain
    calls, reads = [], None
    store_read, store_read_chain = BlockStore.read, BlockStore.read_chain
    build_fresh = upd._build_fresh

    def read(store, label):
        if reads is not None:
            reads.append(label)
        return store_read(store, label)

    def read_chain(store, label):
        for node in store_read_chain(store, label):
            if reads is not None:
                reads.append(node.label)
            yield node

    def watched(ctx, *args):
        nonlocal reads
        reads = []
        try:
            return build_fresh(ctx, *args)
        finally:
            calls.append((reads, set(ctx._site_obsolete)))
            reads = None

    monkeypatch.setattr(BlockStore, "read", read)
    monkeypatch.setattr(BlockStore, "read_chain", read_chain)
    monkeypatch.setattr(upd, "_build_fresh", watched)
    rng = random.Random(alpha * 10 + rho)
    present = rng.sample(range(1 << 26), 300)
    tree = oracle_tree(present, HashedPriority(rho), Params(alpha, rho))
    for i in range(300):
        if i % 2:
            delete(tree, present.pop(rng.randrange(len(present))))
        else:
            k = rng.randrange(1 << 26)
            if k not in present:
                present.append(k)
                insert(tree, k)
    assert tree.image() == oracle_build(present, tree.prio, tree.params)
    assert any(len(labels) > 1 for labels, _ in calls)
    for labels, obsolete in calls:
        assert len(labels) == len(set(labels)), sorted(labels)
        assert set(labels) <= obsolete


def test_update_that_raises_leaves_nothing_staged():
    # a tree whose deepest leaf is gone from the store: an insert that stages
    # blocks and then reads the missing label raises NotFoundError, and what it
    # staged must not reach the next update's commit, which would promote it
    # or refuse it with CorruptionError
    rng = random.Random(0)
    tree = Tree.empty(Params(4, 2), seed=0)
    for k in rng.sample(range(1 << 20), 400):
        insert(tree, k)
    blocks = tree.store.blocks
    del blocks[max(blocks, key=lambda label: (blocks[label].depth, label))]
    raised = []
    for k in rng.sample(range(1 << 20), 300):
        before = tree.store.stats()
        try:
            insert(tree, k)
        except NotFoundError:
            after = tree.store.stats()
            raised.append(after.allocs - before.allocs)
            assert not tree.store.aux and after.cur_pinned == 0
    assert raised[0] > 0 and len(raised) > 1


@pytest.mark.parametrize("fault", ["duplicate", "missing", "dangling", "fanout"])
def test_chain_pass_refusal_drops_its_pin(fault):
    # a list pass holds its read_chain walk's one pin across waves; a refusal
    # found midway down or at the chain's end must drop it while the
    # exception's traceback still holds the pass's frame, and stage and write
    # nothing: a duplicate in a middle wave, a delete of a gap key that walks
    # off the chain's end, a dangling slot-0 label and a fan-out block midway
    keys = random.Random(5).sample(range(2, 1 << 20, 2), 80)
    tree = oracle_tree(keys, HashedPriority(5), Params(2, 40))
    blocks = tree.store.blocks
    above, chain = 0, [blocks[tree.root]]     # fan-out blocks down the heaviest slots
    while chain[0].fanout > 1:
        above += 1
        chain = [blocks[max(filter(None, chain[0].children), key=lambda c: c.weight).label]]
    while chain[-1].children[0] is not None:
        chain.append(blocks[chain[-1].children[0].label])
    mid = chain[len(chain) // 2]
    assert above and len(chain) >= 10
    # a refusal midway down reads the blocks above, the waves to mid and mid
    op, key, err, reads = delete, min(mid.keys) + 1, MissingKeyError, above + len(chain)
    if fault == "duplicate":
        op, key, err, reads = insert, mid.keys[-1], DuplicateKeyError, above + 1 + len(chain) // 2
    elif fault == "dangling":
        mid.children[0] = ChildRef(1, mid.children[0].weight)
        err, reads = NotFoundError, above + 1 + len(chain) // 2
    elif fault == "fanout":
        mid.fanout = 2
        err, reads = CorruptionError, above + 1 + len(chain) // 2
    img, before = tree.image(), tree.store.stats()
    with pytest.raises(err) as caught:
        op(tree, key)
    after = tree.store.stats()
    assert caught.value is not None and after.cur_pinned == 0 and not tree.store.aux
    assert after.reads - before.reads == reads
    assert (after.writes, after.allocs, after.frees) == (
        before.writes, before.allocs, before.frees)
    assert tree.image() == img and tree.n == 80


def test_update_refuses_a_slot_weight_its_section_does_not_hold():
    # loads do not check slot weights yet: the rebuild that gathers a
    # section's keys must refuse a count that differs, also under python -O
    tree = Tree.empty(Params(2, 1), seed=2)
    for k in range(10, 610, 10):
        insert(tree, k)
    root = tree.store.blocks[tree.root]
    next(c for c in root.children if c is not None).weight += 1
    tree = Tree.from_image_bytes(tree.image())
    with pytest.raises(CorruptionError, match=r"section \(-1, 235\): 23 keys, slot weight 24"):
        insert(tree, 235)
    assert not tree.store.aux and tree.store.stats().cur_pinned == 0


@pytest.mark.parametrize("case", range(12))
def test_locality_untouched_blocks_identical(case):
    # blocks outside the rebuilt regions and the root path must not change
    rng = random.Random(case + 900)
    alpha, rho = GRID[case % len(GRID)]
    params = Params(alpha, rho)
    keys = rng.sample(range(1 << 22), 60)
    tree = build_by_inserts(keys, params, seed=case)
    before = tree.image()
    x = rng.randrange(1 << 22)
    if x in keys:
        return
    r = insert(tree, x)
    old_side, new_side = _image_diff(before, tree.image())
    touched = r.freed_labels | r.staged_labels | r.rewritten_labels
    assert (old_side | new_side) <= touched


def test_pinned_blocks_constant_during_updates(rng):
    params = Params(3, 2)
    tree = Tree.empty(params, seed=8)
    peaks = set()
    present = []
    for i in range(300):
        tree.store.reset_stats()
        if present and rng.random() < 0.4:
            delete(tree, present.pop(rng.randrange(len(present))))
        else:
            k = rng.randrange(1 << 26)
            if k in present:
                continue
            present.append(k)
            insert(tree, k)
        peaks.add(tree.store.stats().peak_pinned)
        assert tree.store.stats().cur_pinned == 0
    assert max(peaks) <= 2


@pytest.mark.parametrize("alpha,rho", GRID)
def test_observation_audit_constants(alpha, rho):
    rng = random.Random(alpha * 100 + rho)
    params = Params(alpha, rho)
    tree = Tree.empty(params, seed=9)
    present, uni = [], rng.sample(range(1 << 26), 120)
    for _ in range(200):
        if present and rng.random() < 0.45:
            r = delete(tree, present.pop(rng.randrange(len(present))))
        elif uni:
            k = uni.pop()
            present.append(k)
            r = insert(tree, k)
        else:
            break
        assert r.writes <= 4 * (r.m + r.m_prime) + 4, r
        assert r.reads <= 4 * (r.m_prime + r.d_prime * r.m) + 4, r


def test_case_frequency_cross_check(rng):
    # every update leaves the image of a fresh build, and the workload
    # exercises list, in-array and fan-out cases
    params = Params(2, 2)
    tree = Tree.empty(params, seed=10)
    present = []
    cases = set()
    for i in range(400):
        if present and rng.random() < 0.45:
            r = delete(tree, present.pop(rng.randrange(len(present))))
        else:
            k = rng.randrange(1 << 26)
            if k in present:
                continue
            present.append(k)
            r = insert(tree, k)
        cases.update(r.cases)
        assert tree.image() == oracle_build(present, tree.prio, params)
    assert any(c.startswith("list") for c in cases)
    assert any(c.startswith("in-array") for c in cases)
    assert any(c.startswith("fanout") for c in cases)
    # key 0 is a legal key and block label: small trees that hold it
    for trial in range(60):
        params = Params(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        keys = [0] + rng.sample(range(1, 200), rng.randrange(4, 40))
        rng.shuffle(keys)
        tree = Tree.empty(params, seed=trial)
        for i, k in enumerate(keys):
            insert(tree, k)
            assert tree.image() == oracle_build(keys[:i + 1], tree.prio, params)
        order = rng.sample(keys, len(keys))
        for i, k in enumerate(order):
            delete(tree, k)
            assert tree.image() == oracle_build(order[i + 1:], tree.prio, params)
    assert tree.n == 0


@pytest.mark.parametrize("alpha,rho", [(1, 0), (2, 0), (3, 1), (3, 2)])
def test_explicit_mode_order_invariance(alpha, rho):
    # explicit rank assignments: the image depends only on the rank order,
    # never on the insertion call order
    import itertools
    params = Params(alpha, rho)
    keys = [11, 22, 33, 44, 55]
    for rank_perm in itertools.permutations(range(1, 6)):
        prio = ExplicitPriority(dict(zip(keys, rank_perm)))
        want = oracle_build(keys, prio, params)
        for order in (keys, keys[::-1], [33, 11, 55, 22, 44]):
            tree = Tree(BlockStore(alpha), params, prio)
            for k in order:
                insert(tree, k)
            assert tree.image() == want


@pytest.mark.parametrize("case", range(12 + len(CHAIN)))
def test_insert_delete_mirror_diff(case):
    # the two legs of an insert/delete pair change mirrored block sets;
    # at alpha=2 a tail insert adds a one-key wave and the delete drops it
    rng = random.Random(case * 5 + 3)
    params, where = _case_params(case, 12)
    keys = rng.sample(range(1 << 24), 40)
    tree = build_by_inserts(keys, params, seed=case)
    img0 = tree.image()
    x = rng.randrange(1 << 24) if where is None else _fresh_key_at(tree, keys, rng, where)
    if x in keys:
        return
    insert(tree, x)
    img1 = tree.image()
    delete(tree, x)
    assert tree.image() == img0
    ins_old, ins_new = _image_diff(img0, img1)
    del_old, del_new = _image_diff(img1, img0)
    assert ins_old == del_new and ins_new == del_old


def test_checker_after_every_update(rng):
    params = Params(2, 1)
    tree = Tree.empty(params, seed=11)
    present = []
    for _ in range(160):
        if present and rng.random() < 0.4:
            delete(tree, present.pop(rng.randrange(len(present))))
        else:
            k = rng.randrange(1 << 22)
            if k in present:
                continue
            present.append(k)
            insert(tree, k)
        report = check_invariants(tree)
        assert report.ok, report.violations[:3]


# the benchmark's parameters (query-a4, churn-a16, mixed-a4-c2) and a key
# count per tree: at 3,500 keys the alpha-16 root has fan-out 2 over two
# chains, where 3,000 keys would be a single chain
BENCH_PARAMS = [(Params.of(4, 0.5, 108), 3000), (Params.of(16, 0.5, 108), 3500),
                (Params.of(4, 0.5, 2), 3000)]


@pytest.mark.parametrize("params,n", BENCH_PARAMS, ids=["query-a4", "churn-a16", "mixed-a4-c2"])
def test_churn_at_bench_params_matches_oracle(params, n):
    # the benchmark's final-image check compares against fast_build, which
    # lays out with the updates' routine; this one starts from and ends at
    # the oracle, which shares no layout code with either
    rng = random.Random(params.rho)
    present = rng.sample(range(1 << 40), n)
    tree = oracle_tree(present, HashedPriority(params.rho), params)
    for i in range(200):
        if i % 2:
            delete(tree, present.pop(rng.randrange(len(present))))
        else:
            k = rng.randrange(1 << 40)
            while k in present:
                k = rng.randrange(1 << 40)
            present.append(k)
            insert(tree, k)
    assert tree.image() == oracle_build(present, tree.prio, params)
