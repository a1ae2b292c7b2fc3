import random
from bisect import bisect_left

import pytest

from rbst import BlockStore, Params, Tree, check_invariants, delete, insert, top
from rbst.core import active_separators
from rbst.errors import ConfigError, DuplicateKeyError, MissingKeyError
from rbst.oracle import oracle_build
from rbst.priority import ExplicitPriority, HashedPriority
from rbst.store import parse_image
from rbst.update import (
    CASE_FANOUT_DECREASE, CASE_FANOUT_INCREASE, CASE_IN_ARRAY_DELETE, CASE_LIST_INSERT,
    CASE_LIST_NEW_BLOCK, locate_rebuild,
)

from conftest import build_by_inserts

GRID = [(a, r) for a in (1, 2, 3, 4) for r in (0, 1, 2, 4)]
# whole-chain inputs: at rho=64 a tree of about 40 keys is one chain of
# priority waves; the update lands in its head wave, a middle wave or its tail
CHAIN = [(a, where) for a in (1, 2, 3) for where in (0.0, 0.5, 1.0)]


def _case_params(case: int, n_grid: int):
    """(params, wave position or None): GRID for the first n_grid cases, then CHAIN."""
    if case < n_grid:
        return Params.explicit(*GRID[case % len(GRID)]), None
    alpha, where = CHAIN[case - n_grid]
    return Params.explicit(alpha, 64), where


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


def test_delete_missing_rejected_unchanged():
    tree = build_by_inserts([5, 6, 7], Params.explicit(2, 1), seed=2)
    img = tree.image()
    with pytest.raises(MissingKeyError):
        delete(tree, 99)
    assert tree.image() == img


def test_delete_only_key():
    tree = Tree.empty(Params.of(2, 0.5), seed=3)
    insert(tree, 8)
    delete(tree, 8)
    assert tree.n == 0 and tree.root is None and not tree.store.blocks


def test_insert_then_delete_restores_image():
    rng = random.Random(7)
    for alpha, rho in GRID:
        params = Params.explicit(alpha, rho)
        keys = rng.sample(range(1 << 24), 30)
        tree = build_by_inserts(keys, params, seed=4)
        img = tree.image()
        x = next(k for k in iter(lambda: rng.randrange(1 << 24), None) if k not in keys)
        insert(tree, x)
        delete(tree, x)
        assert tree.image() == img


def test_plan_empty_tree_is_new_block():
    tree = Tree.empty(Params.of(2, 0.5), seed=0)
    plan = locate_rebuild(tree, 5, "insert")
    assert plan.case == CASE_LIST_NEW_BLOCK and plan.anchor is None


def test_plan_globally_smallest_priority_anchors_at_root():
    keys = list(range(10, 70))
    order = sorted(keys)  # ranks by key order; new key 5 gets rank below all
    prio = ExplicitPriority({k: i + 2 for i, k in enumerate(order)} | {5: 1})
    params = Params.unbuffered(3)
    tree = Tree(BlockStore(3), params, prio)
    for k in keys:
        insert(tree, k)
    plan = locate_rebuild(tree, 5, "insert")
    assert plan.anchor == tree.root and plan.depth == 0
    assert plan.case.startswith("in-array")


def test_plan_bounds_by_case(rng):
    # the algorithm's contract: fan-out changes touch at most two rebuilt
    # sections plus the key's own landing; an in-array rebuild at a primary
    # block touches at most three; buffering in-array anchors can reach four
    for alpha, rho in [(2, 1), (3, 2), (4, 4), (3, 0), (1, 2)]:
        params = Params.explicit(alpha, rho)
        tree = Tree.empty(params, seed=alpha)
        present, uni = [], rng.sample(range(1 << 28), 300)
        for _ in range(500):
            if present and rng.random() < 0.45:
                k = present.pop(rng.randrange(len(present)))
                plan = locate_rebuild(tree, k, "delete")
                op = delete
            elif uni:
                k = uni.pop()
                present.append(k)
                plan = locate_rebuild(tree, k, "insert")
                op = insert
            else:
                break
            if plan.case == CASE_FANOUT_INCREASE:
                assert len(plan.sections) <= 3
                sources = {ref.label for s in plan.sections for ref in s.sources}
                descended = 1 if plan.descends_into is not None else 0
                assert len(sources) + descended <= 2
            elif plan.case == CASE_FANOUT_DECREASE:
                assert len(plan.sections) <= 2
            elif plan.anchor is not None and plan.case.startswith("in-array"):
                anchor_fanout = tree.store.peek(plan.anchor).fanout
                cap = 3 if anchor_fanout == alpha + 1 else 4
                assert len(plan.sections) <= cap, (plan.case, plan.sections)
            op(tree, k)


def test_top_whole_subtree_returns_array(rng):
    params = Params.explicit(3, 2)
    keys = rng.sample(range(1 << 20), 120)
    tree = build_by_inserts(keys, params, seed=6)
    root = tree.store.peek(tree.root)
    got_keys, gaps = top(tree, 3, tree.root, -1, 1 << 64)
    assert sorted(got_keys) == root.keys
    # reported in ascending priority order
    prios = [tree.prio.priority(k) for k in got_keys]
    assert prios == sorted(prios)
    # gap counts equal the stored child weights of the full-fanout root
    if root.fanout == 4:
        want = [c.weight if c else 0 for c in root.children]
        assert gaps == want
    assert sum(gaps) == len(keys) - 3


def test_top_empty_range():
    tree = build_by_inserts([10, 20, 30], Params.unbuffered(3), seed=1)
    keys, gaps = top(tree, 3, tree.root, 21, 29)
    assert keys == [] and gaps == [0]


def test_top_k_bounds():
    tree = build_by_inserts([10, 20], Params.unbuffered(2), seed=1)
    with pytest.raises(ConfigError):
        top(tree, 3, tree.root, 0, 100)


@pytest.mark.parametrize("case", range(40))
def test_top_against_flat_scan(case):
    rng = random.Random(case + 100)
    alpha, rho = GRID[case % len(GRID)]
    params = Params.explicit(alpha, rho)
    n = rng.randrange(1, 64)
    keys = rng.sample(range(1000), n)
    prio = HashedPriority(case)
    tree = build_by_inserts(keys, params, seed=0, prio=prio)
    lo = rng.randrange(-1, 1000)
    hi = lo + rng.randrange(0, 1000 - max(lo, 0))
    k = rng.randrange(1, alpha + 1)
    got_keys, gaps = top(tree, k, tree.root, lo, hi)
    in_range = [key for key in keys if lo < key < hi]
    want = sorted(in_range, key=prio.priority)[:k]
    assert got_keys == want
    reported = sorted(got_keys)
    want_gaps = [0] * (len(reported) + 1)
    import bisect
    for key in in_range:
        if key not in reported:
            want_gaps[bisect.bisect_right(reported, key)] += 1
    assert gaps == want_gaps


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
    params = Params.explicit(alpha, 64)
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
        # the head once to classify it, then every block of the chain once
        assert r.reads == chain + 1
        # waves hold alpha keys each; the chain is rewritten from the wave the
        # key joins, which is the later of the two waves at a boundary
        assert r.freed == chain - min(rank // alpha, chain - 1)


@pytest.mark.parametrize("case", range(12))
def test_locality_untouched_blocks_identical(case):
    # blocks outside the rebuilt regions and the root path must not change
    rng = random.Random(case + 900)
    alpha, rho = GRID[case % len(GRID)]
    params = Params.explicit(alpha, rho)
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
    params = Params.explicit(3, 2)
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
    params = Params.explicit(alpha, rho)
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


def _planned_update(tree, k, op):
    # run the dry-run plan, then the update it previews, and check they agree
    plan = locate_rebuild(tree, k, op)
    r = (insert if op == "insert" else delete)(tree, k)
    assert r.cases[0] == plan.case
    if plan.case.startswith("fanout"):
        assert (plan.carry is None) == (plan.descends_into is not None), plan
    if plan.case == CASE_IN_ARRAY_DELETE:
        # rebuilt sections lie between consecutive separators of the new anchor
        new = [tree.store.peek(l) for l in r.staged_labels
               if tree.store.peek(l).depth == plan.depth]
        seps = active_separators(new[0], tree.prio) if new else []
        bounds = [plan.interval[0]] + seps + [plan.interval[1]]
        assert {(s.lo, s.hi) for s in plan.sections} <= set(zip(bounds, bounds[1:])), plan
    return plan


def test_case_frequency_cross_check(rng):
    # every update's plan case must be consistent with what actually changed
    params = Params.explicit(2, 2)
    tree = Tree.empty(params, seed=10)
    present = []
    counts = {}
    for i in range(400):
        if present and rng.random() < 0.45:
            k = present.pop(rng.randrange(len(present)))
            plan = _planned_update(tree, k, "delete")
        else:
            k = rng.randrange(1 << 26)
            if k in present:
                continue
            present.append(k)
            plan = _planned_update(tree, k, "insert")
        counts[plan.case] = counts.get(plan.case, 0) + 1
    # the workload must have exercised list, in-array, and fan-out cases
    assert any(c.startswith("list") for c in counts)
    assert any(c.startswith("in-array") for c in counts)
    assert any(c.startswith("fanout") for c in counts)
    # key 0 is a legal key and block label: small trees that hold it
    for trial in range(60):
        params = Params.explicit(rng.choice((1, 2, 3)), rng.choice((1, 2)))
        keys = [0] + rng.sample(range(1, 200), rng.randrange(4, 40))
        rng.shuffle(keys)
        tree = Tree.empty(params, seed=trial)
        for k in keys:
            _planned_update(tree, k, "insert")
        for k in rng.sample(keys, len(keys)):
            _planned_update(tree, k, "delete")
    assert tree.n == 0


@pytest.mark.parametrize("alpha,rho", [(1, 0), (2, 0), (3, 1), (3, 2)])
def test_explicit_mode_order_invariance(alpha, rho):
    # explicit rank assignments: the image depends only on the rank order,
    # never on the insertion call order
    import itertools
    params = Params.explicit(alpha, rho)
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
    params = Params.explicit(2, 1)
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
