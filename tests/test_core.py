import dataclasses
import functools
import hashlib
import json
import random
from bisect import bisect_right
from pathlib import Path

import pytest

from rbst import (
    Params, Tree, check_invariants, fanout_bound, insert, range_count,
    range_report, select_kth, successor,
)
from rbst.blocks import BlockNode
from rbst.core import NEG_INF, POS_INF, active_separators, scan_keys, search_path_profile
from rbst.errors import ConfigError, FormatError, InvalidRangeError, InvalidRankError
from rbst.metrics import fast_build, sample_keys
from rbst.oracle import oracle_tree
from rbst.priority import MASK64, ExplicitPriority, HashedPriority

import numpy as np


def test_fanout_bound_formula():
    p = Params(3, 4)
    assert fanout_bound(3, p) == 1
    assert fanout_bound(8, p) == 2
    assert fanout_bound(100, p) == 4
    assert fanout_bound(0, p) == 1
    with pytest.raises(ConfigError, match="negative subtree weight -1"):
        fanout_bound(-1, p)


def test_fanout_bound_unbuffered():
    p = Params.unbuffered(3)
    for n in (1, 2, 3, 10, 1000):
        assert fanout_bound(n, p) == 4


def test_params_validation():
    with pytest.raises(ConfigError):
        Params.of(2, 0.9)
    with pytest.raises(ConfigError):
        Params.of(2, 0.0)
    with pytest.raises(ConfigError):
        Params(0, 1)
    # rho is a u32 image field: a larger one would crash image() with struct.error
    with pytest.raises(ConfigError):
        Params(2, 1 << 32)
    with pytest.raises(ConfigError):
        Params.of(65534, 0.001)
    with pytest.raises(ConfigError):
        Params(2, -1)
    with pytest.raises(ConfigError):
        Params.of(2, 0.5, c_rho=0)    # would silently disable buffering
    assert Params(2, (1 << 32) - 1).rho == (1 << 32) - 1
    assert Params(2, 0) == Params.unbuffered(2)
    assert Params.of(2, 0.5).rho == 432
    assert Params.of(2, 0.5).beta == 3 * 432
    assert Params.unbuffered(2).beta == 0
    assert [f.name for f in dataclasses.fields(Params)] == ["alpha", "rho"]


@pytest.mark.parametrize("params", [Params.of(2, 0.5), Params(3, 2),
                                    Params.unbuffered(4)], ids=["of", "explicit", "unbuffered"])
def test_params_round_trip_through_image(params):
    tree = oracle_tree(range(1, 40), HashedPriority(6), params)
    assert Tree.from_image_bytes(tree.image()).params == params


def test_successor_empty():
    tree = Tree.empty(Params.of(2, 0.5), seed=1)
    assert successor(tree, 5) is None


def test_successor_single_block():
    tree = oracle_tree([1, 3, 7], HashedPriority(2), Params.unbuffered(3))
    assert successor(tree, 4) == 7
    assert successor(tree, 3) == 3
    assert successor(tree, 8) is None
    assert successor(tree, 0) == 1


@pytest.mark.parametrize("alpha,rho", [(1, 0), (2, 1), (3, 2), (4, 0), (2, 50)])
def test_successor_against_sorted_oracle(alpha, rho, rng):
    params = Params(alpha, rho)
    keys = sorted(rng.sample(range(10_000), 500))
    tree = oracle_tree(keys, HashedPriority(5), params)
    import bisect
    for _ in range(100):
        q = rng.randrange(10_500)
        i = bisect.bisect_left(keys, q)
        want = keys[i] if i < len(keys) else None
        assert successor(tree, q) == want


def test_range_report_basics():
    tree = oracle_tree([2, 4, 6], HashedPriority(0), Params.unbuffered(2))
    assert range_report(tree, 2, 6) == [2, 4, 6]
    assert range_report(tree, 3, 3) == []
    with pytest.raises(InvalidRangeError):
        range_report(tree, 5, 4)
    with pytest.raises(InvalidRangeError):
        range_count(tree, 5, 4)
    assert range_report(Tree.empty(Params.of(2, 0.5)), 0, MASK64) == []


def test_range_count_and_select_basics():
    keys = list(range(10, 200, 7))
    tree = oracle_tree(keys, HashedPriority(3), Params(2, 2))
    assert range_count(tree, min(keys), max(keys)) == len(keys)
    assert select_kth(tree, 1) == min(keys)
    assert select_kth(tree, len(keys)) == max(keys)
    with pytest.raises(InvalidRankError):
        select_kth(tree, 0)
    with pytest.raises(InvalidRankError):
        select_kth(tree, len(keys) + 1)


def _weight_fault_tree() -> Tree:
    return fast_build(sample_keys(np.random.default_rng(1), 2000), HashedPriority(1),
                      Params.of(4, 0.5, 2))


def _reloaded_with_weight(tree: Tree, label: int, delta: int) -> Tree:
    """`tree` through its image, with `delta` added to block `label`'s slot-0 weight."""
    tree.store.blocks[label].children[0].weight += delta
    return Tree.from_image_bytes(tree.image())


def test_select_kth_refuses_a_slot_weight_above_its_chain():
    # loads do not check slot weights yet, so the rank walk must: here it ends
    # in a chain that holds fewer keys than the rank it carries there
    tree = _weight_fault_tree()
    blocks = tree.store.blocks
    label = min(l for l, b in blocks.items() if b.fanout > 1 and b.children[0] is not None
                and blocks[b.children[0].label].fanout <= 1)
    tree = _reloaded_with_weight(tree, label, 1)
    with pytest.raises(InvalidRankError, match="rank walk exhausted block"):
        select_kth(tree, 6)


def test_select_kth_refuses_slot_weights_below_the_tree_size():
    tree = _weight_fault_tree()
    root = tree.root
    tree = _reloaded_with_weight(tree, root, -1)
    with pytest.raises(InvalidRankError, match=f"rank walk exhausted block {root}$"):
        select_kth(tree, tree.n)


@pytest.mark.parametrize("alpha,rho,seed", [(1, 1, 0), (2, 1, 1), (3, 2, 2), (4, 4, 3),
                                            (2, 0, 4), (5, 3, 5)])
def test_queries_against_sorted_oracle(alpha, rho, seed):
    rng = random.Random(seed)
    params = Params(alpha, rho)
    keys = sorted(rng.sample(range(100_000), 400))
    tree = oracle_tree(keys, HashedPriority(seed), params)
    import bisect
    for _ in range(200):
        lo = rng.randrange(110_000)
        hi = lo + rng.randrange(5_000)
        want = keys[bisect.bisect_left(keys, lo): bisect.bisect_right(keys, hi)]
        assert range_report(tree, lo, hi) == want
        assert range_count(tree, lo, hi) == len(want)
    for _ in range(50):
        k = rng.randrange(1, len(keys) + 1)
        assert select_kth(tree, k) == keys[k - 1]


U64_EDGES = [0, 1, (1 << 63) - 1, 1 << 63, (1 << 63) + 1, (1 << 64) - 2, (1 << 64) - 1]


@pytest.mark.parametrize("alpha,rho", [(1, 0), (4, 864)])
def test_queries_at_the_u64_extremes_return_python_ints(alpha, rho):
    # keys on both sides of 2^63 and at both ends of u64: a signed cast or a
    # numpy scalar in the sort or the partition would show here
    rng = random.Random(alpha)
    keys = sorted(set(U64_EDGES + [rng.getrandbits(64) for _ in range(300)]))
    tree = oracle_tree(keys, HashedPriority(alpha), Params(alpha, rho))
    ranges = [(lo, hi) for lo in U64_EDGES[:4] for hi in U64_EDGES[3:] if lo <= hi]
    ranges += [(rng.randrange(1 << 63), rng.randrange(1 << 63, 1 << 64)) for _ in range(20)]
    ranges += [(-5, 2 ** 70)]
    for lo, hi in ranges:
        got = range_report(tree, lo, hi)
        assert got == [k for k in keys if lo <= k <= hi]
        assert all(type(k) is int for k in got)
    for k in range(1, len(keys) + 1):
        got = select_kth(tree, k)
        assert got == keys[k - 1]
        assert type(got) is int


def test_query_purity_no_writes():
    rng = random.Random(9)
    tree = oracle_tree(rng.sample(range(10_000), 300), HashedPriority(1),
                       Params(3, 2))
    before = tree.store.stats().writes
    successor(tree, 77)
    range_report(tree, 100, 5000)
    range_count(tree, 100, 5000)
    select_kth(tree, 10)
    assert tree.store.stats().writes == before


@pytest.mark.parametrize("case", range(21))
def test_checker_accepts_fresh_builds(case):
    rng = random.Random(case)
    alpha = rng.choice([1, 2, 3, 4])
    rho = rng.choice([0, 1, 2, 4, 100])
    params = Params(alpha, rho)
    n = rng.randrange(0, 200)
    if case == 20:
        # alpha=1, eps=0.05 (rho=2160): one chain of 2,000 blocks, deeper
        # than the interpreter's recursion limit
        params, n = Params.of(1, 0.05), 2000
    keys = rng.sample(range(1 << 30), n)
    tree = oracle_tree(keys, HashedPriority(case), params)
    report = check_invariants(tree)
    assert report.ok, report.violations[:3]


def test_checker_empty_tree_ok():
    tree = Tree.empty(Params.of(4, 0.25), seed=0)
    assert check_invariants(tree).ok


def test_checker_names_corrupted_weight():
    rng = random.Random(3)
    tree = oracle_tree(rng.sample(range(10_000), 60), HashedPriority(3),
                       Params(2, 1))
    label = next(l for l, b in tree.store.blocks.items()
                 if any(c is not None for c in b.children))
    node = tree.store.blocks[label]
    slot = next(i for i, c in enumerate(node.children) if c is not None)
    node.children[slot].weight += 1
    report = check_invariants(tree)
    assert not report.ok
    assert any(str(label) in v for v in report.violations)


def test_checker_rejects_wrong_depth_and_parent():
    rng = random.Random(4)
    tree = oracle_tree(rng.sample(range(10_000), 80), HashedPriority(2),
                       Params(2, 2))
    child_label = next(l for l, b in tree.store.blocks.items() if b.parent is not None)
    tree.store.blocks[child_label].depth += 1
    assert not check_invariants(tree).ok


def test_checker_names_a_label_field_other_than_the_store_label():
    # the label field is what a block's image entry records, so with it wrong
    # the image does not load; the checker must say so first
    tree = Tree.empty(Params(3, 2), seed=90)
    for k in random.Random(90).sample(range(100_000), 120):
        insert(tree, k)
    label = next(l for l, b in tree.store.blocks.items()
                 if len(b.keys) > 1 and not any(b.children))
    node = tree.store.blocks[label]
    node.label = next(k for k in node.keys if k != label)
    assert check_invariants(tree).violations == [f"block {label}: label field {node.label}"]
    with pytest.raises(FormatError):
        Tree.from_image_bytes(tree.image())


@pytest.mark.parametrize("fault", ["no-root-n-5", "no-root-with-blocks", "n-0-with-root",
                                   "root-not-in-store"])
def test_checker_reports_root_level_faults(fault):
    tree = oracle_tree(range(10, 400, 13), HashedPriority(7), Params(2, 2))
    root = tree.root
    if fault == "no-root-n-5":
        tree = Tree.empty(tree.params)
        tree.n = 5
    elif fault == "no-root-with-blocks":
        tree.root, tree.n = None, 0
    elif fault == "n-0-with-root":
        tree.n = 0
    else:
        del tree.store.blocks[root]
    report = check_invariants(tree)
    assert not report.ok
    assert any(v.startswith(("tree:", "store:", f"block {root}:")) for v in report.violations)


def _slot_weight_lowered(params: Params, below) -> tuple[Tree, int]:
    """A tree reloaded with the slot weight above a linked block that `below` picks
    set to alpha, and that block's label."""
    tree = oracle_tree(range(10, 4000, 13), HashedPriority(8), params)
    blocks = tree.store.blocks
    ref = next(c for l in sorted(blocks) if blocks[l].fanout > 1 for c in blocks[l].children
               if c is not None and below(blocks[c.label]))
    ref.weight = params.alpha
    return Tree.from_image_bytes(tree.image()), ref.label


def test_checker_names_a_child_below_a_light_fanout_block():
    # loads do not check slot weights yet, so a fan-out block can carry one of
    # at most alpha above its own children
    tree, label = _slot_weight_lowered(Params.unbuffered(2), lambda b: any(b.children))
    assert f"block {label}: child below a subtree of weight 2" in check_invariants(tree).violations


def test_checker_names_a_chain_that_continues_below_a_light_weight():
    tree, label = _slot_weight_lowered(
        Params(2, 8), lambda b: b.fanout == 1 and b.children[0] is not None)
    assert f"block {label}: chain continues below weight 2" in check_invariants(tree).violations


@pytest.mark.parametrize("explicit", [False, True], ids=["hashed", "explicit"])
@pytest.mark.parametrize("reachable", [True, False], ids=["reachable", "unreachable"])
@pytest.mark.parametrize("key", [-1, 1 << 64], ids=["minus-1", "2^64"])
def test_checker_reports_an_out_of_range_key(key, reachable, explicit):
    rng = random.Random(5)
    keys = rng.sample(range(10_000), 60)
    prio = ExplicitPriority.from_order(keys) if explicit else HashedPriority(5)
    tree = oracle_tree(keys, prio, Params(2, 1))
    if reachable:
        label = max(tree.store.blocks)
        tree.store.blocks[label].keys[-1] = key
        named = f"block {label}: key {key} outside u64 range"
    else:
        tree.store.blocks[key] = BlockNode([key], [None] * 3, None, 0, 1, key)
        named = f"store: unreachable blocks [{key}]"
    assert named in check_invariants(tree).violations


# The checker's golden corpus: seeded oracle trees, each with one injected
# fault, the second half with a wrong depth in the same block as well.  tests/checker_reports.sha256 pins, per case, the sha256 of the
# JSON of its violation list (or "raise <Type>" where the checker raises),
# so message text and order cannot drift unnoticed.
CORPUS_FAULTS = ("key=-1", "key=2^64", "key=random", "reversed", "fanout-1",
                 "weight+1", "depth+1", "wrong-parent", "dangling-child",
                 "duplicated-child", "n+1", "unreachable")
CORPUS_CASES = 600


def _corrupted_tree(case: int) -> tuple[str, Tree]:
    """Corpus case `case`: its name and its tree, one fault injected."""
    rng = random.Random(case)
    alpha = (1, 2, 3, 4, 8)[case % 5]
    rho = (0, 1, 2, 4, 100)[case // 5 % 5]
    fault = CORPUS_FAULTS[case // 25 % len(CORPUS_FAULTS)]
    keys = rng.sample(range(1 << 30), rng.randrange(2 * alpha + 2, 12 * alpha + 3 * rho + 40))
    explicit = rng.random() < 0.25
    prio = ExplicitPriority.from_order(keys) if explicit else HashedPriority(case)
    tree = oracle_tree(keys, prio, Params(alpha, rho))
    blocks = tree.store.blocks
    labels = sorted(blocks)
    node = blocks[rng.choice(labels)]
    parent = rng.choice([blocks[l] for l in labels if any(blocks[l].children)])
    slot = rng.choice([i for i, c in enumerate(parent.children) if c is not None])
    node = _inject(tree, fault, node, parent, slot, rng)
    if case >= CORPUS_CASES // 2:                     # a second fault, in the same block
        node.depth += 1
    kind = "explicit" if explicit else "hashed"
    return f"{case} a={alpha} rho={rho} {fault} {kind}", tree


def _inject(tree: Tree, fault: str, node: BlockNode, parent: BlockNode, slot: int,
            rng: random.Random) -> BlockNode:
    """Inject `fault` at `node`, or at `parent`'s child slot `slot`; returns the
    block it corrupted.  "unreachable" is "stray" or "cut-off", drawn from rng."""
    blocks, alpha = tree.store.blocks, tree.params.alpha
    fresh = rng.randrange(1 << 30, 1 << 31)           # a label no block has
    if fault.startswith("key="):
        value = {"key=-1": -1, "key=2^64": 1 << 64}.get(fault, rng.randrange(1 << 30))
        node.keys[rng.randrange(len(node.keys))] = value
    elif fault == "reversed":
        node = rng.choice([b for b in blocks.values() if len(b.keys) > 1] or [node])
        node.keys.reverse()
    elif fault == "fanout-1":
        node.fanout -= 1
    elif fault == "weight+1":
        parent.children[slot].weight += 1
    elif fault == "depth+1":
        node.depth += 1
    elif fault == "wrong-parent":
        node.parent = rng.choice([l for l in sorted(blocks) if l != node.parent])
    elif fault == "dangling-child":
        parent.children[slot].label = fresh
    elif fault == "duplicated-child":
        other = rng.choice([i for i in range(alpha + 1) if i != slot])
        parent.children[other] = parent.children[slot]
    elif fault == "n+1":
        tree.n += 1
    elif fault == "stray" or fault == "unreachable" and rng.random() < 0.5:
        blocks[fresh] = BlockNode([fresh], [None] * (alpha + 1), None, 0, 1, fresh)
    else:                                             # cut-off: a subtree unlinked
        parent.children[slot] = None
    return node


def _report_digest(tree: Tree) -> str:
    try:
        violations = check_invariants(tree).violations
    except Exception as exc:                          # pinned like a report
        return f"raise {type(exc).__name__}"
    return hashlib.sha256(json.dumps(violations).encode()).hexdigest()


def test_checker_reports_match_the_golden_corpus():
    golden = dict(line.split(" ", 1) for line in
                  (Path(__file__).parent / "checker_reports.sha256").read_text().splitlines())
    assert len(golden) == CORPUS_CASES
    changed = []
    for case in range(CORPUS_CASES):
        name, tree = _corrupted_tree(case)
        if _report_digest(tree) != golden[str(case)]:
            changed.append(name)
    assert not changed, f"{len(changed)} reports changed, first: {changed[:5]}"


# Reports on long chains, which the corpus's small trees lack: one n = 20,000
# fast_build tree per benchmark workload's (alpha, c_rho) at eps = 1/2, and
# each fault of LONG_FAULTS put about 100 blocks down the chain that the
# heaviest child slots lead to (or in the fan-out block above it).
# tests/checker_reports_long.sha256 pins the report digests, recorded before
# the checker ran on one frame stack.
LONG_TREES = {"query-a4": (4, 108), "churn-a16": (16, 108), "mixed-a4-c2": (4, 2)}
LONG_FAULTS = ("weight+1", "depth+1", "wrong-parent", "duplicated-child", "n+1", "stray",
               "key=random", "key=2^64", "fanout-1", "dangling-child")


@functools.cache
def _long_image(alpha: int, c_rho: int) -> bytes:
    keys = sample_keys(np.random.default_rng(20), 20_000)
    return fast_build(keys, HashedPriority(20), Params.of(alpha, 0.5, c_rho)).image()


def _long_chain_tree(workload: str, fault: str) -> Tree:
    tree = Tree.from_image_bytes(_long_image(*LONG_TREES[workload]))
    blocks = tree.store.blocks
    fan, block = None, blocks[tree.root]
    while block.fanout > 1:                           # the heaviest path to a chain head
        fan = block
        slot = max((c.weight, i) for i, c in enumerate(fan.children) if c is not None)[1]
        block = blocks[fan.children[slot].label]
    for _ in range(100):                              # then down the chain
        below = block.children[0]
        if below is None or blocks[below.label].children[0] is None:
            break
        block = blocks[below.label]
    parent, slot = (fan, slot) if fault == "duplicated-child" else (block, 0)
    _inject(tree, fault, block, parent, slot, random.Random(f"{workload} {fault}"))
    return tree


def test_checker_reports_on_long_chains_are_pinned():
    golden = dict(line.rsplit(" ", 1) for line in
                  (Path(__file__).parent / "checker_reports_long.sha256").read_text().splitlines())
    assert len(golden) == len(LONG_TREES) * len(LONG_FAULTS)
    changed = [f"{w} {f}" for w in LONG_TREES for f in LONG_FAULTS
               if _report_digest(_long_chain_tree(w, f)) != golden[f"{w} {f}"]]
    assert not changed, f"{len(changed)} reports changed: {changed}"


def test_scan_matches_fast_build_key_set():
    rng = np.random.default_rng(8)
    keys = np.unique(rng.integers(0, 1 << 40, 5000, dtype=np.uint64))
    tree = fast_build(keys, HashedPriority(11), Params.of(2, 0.5))
    got = range_report(tree, 0, (1 << 64) - 1)
    assert got == [int(k) for k in keys]
    assert range_count(tree, 0, (1 << 64) - 1) == len(keys)


def test_rank_queries_on_a_3000_level_path():
    # priorities follow key order, so every block holds one key and sends
    # its successors right: a path 3,000 blocks deep
    keys = list(range(1, 3001))
    tree = oracle_tree(keys, ExplicitPriority.from_order(keys), Params.unbuffered(1))
    for lo, hi in [(1, 3000), (2, 3000), (1, 2999), (1500, 2999), (2999, 3000), (0, 9999)]:
        want = [k for k in keys if lo <= k <= hi]
        assert range_count(tree, lo, hi) == len(want)
        assert range_report(tree, lo, hi) == want
    for k in (1, 2, 1500, 2999, 3000):
        assert select_kth(tree, k) == keys[k - 1]


def _preorder(store, prio, label, lo, hi, out):
    node = store.peek(label)
    out.append(label)
    if node.fanout <= 1:
        if node.children[0] is not None:
            _preorder(store, prio, node.children[0].label, lo, hi, out)
        return
    bounds = [NEG_INF] + active_separators(node, prio) + [POS_INF]
    for i, child in enumerate(node.children[:len(bounds) - 1]):
        if child is not None and bounds[i] < hi and bounds[i + 1] > lo:
            _preorder(store, prio, child.label, lo, hi, out)


def _grid_tree(case: int):
    """(rng, keys, tree) of one case of the 24-case query grid, rng past the draws."""
    rng = random.Random(case + 300)
    params = Params(case % 4 + 1, rng.choice([0, 1, 2, 4, 30]))
    keys = rng.sample(range(1 << 20), rng.randrange(1, 300))
    return rng, keys, oracle_tree(keys, HashedPriority(case), params)


@pytest.mark.parametrize("case", range(24))
def test_scan_reads_each_block_once_in_preorder(case):
    rng, _, tree = _grid_tree(case)
    store = tree.store
    ranges = [(NEG_INF, POS_INF)] + [sorted(rng.sample(range(-1, (1 << 20) + 1), 2))
                                     for _ in range(10)]
    for lo, hi in ranges:
        want: list[int] = []
        _preorder(store, tree.prio, tree.root, lo, hi, want)
        visited: list[int] = []
        out: list[int] = []
        store.reset_stats()
        scan_keys(store, tree.prio, tree.root, lo, hi, out=out,
                  on_block=lambda label, node: visited.append(label))
        assert visited == want
        # one slice per visited block: its keys in (lo, hi), in visit order
        assert out == [key for label in visited for key in store.peek(label).keys
                       if lo < key < hi]
        assert store.stats().reads == len(visited)
        assert store.stats().peak_pinned == 1
        assert store.stats().cur_pinned == 0
        if (lo, hi) == (NEG_INF, POS_INF):
            assert sorted(visited) == sorted(store.blocks)


def _search_path(store, prio, root, q):
    """Labels of the root-to-leaf path of a search for q, by peek."""
    path, label = [], root
    while label is not None:
        node = store.peek(label)
        path.append(label)
        if node.fanout <= 1:
            child = node.children[0]
        else:
            child = node.children[bisect_right(active_separators(node, prio), q)]
        label = child.label if child is not None else None
    return path


@pytest.mark.parametrize("case", range(24))
def test_search_path_profile_counts_the_search_path(case):
    # the grid of test_scan_reads_each_block_once_in_preorder; q is unstored:
    # random, a stored key's neighbour, or an end of the key space
    rng, keys, tree = _grid_tree(case)
    params = tree.params
    store, full = tree.store, params.alpha + 1
    stored = set(keys)
    near = [k + d for k in rng.sample(keys, min(10, len(keys))) for d in (-1, 1)]
    qs = [rng.randrange(1 << 20) for _ in range(10)] + near + [0, MASK64]
    for q in [q for q in qs if q >= 0 and q not in stored]:
        path = _search_path(store, tree.prio, tree.root, q)
        primary = sum(1 for label in path if store.peek(label).fanout == full)
        store.reset_stats()
        assert search_path_profile(tree, q) == (primary, len(path) - primary)
        assert store.stats().reads == len(path)
        assert store.stats().peak_pinned == 1
    assert search_path_profile(Tree.empty(params), 5) == (0, 0)


def _read_log(store) -> list[int]:
    """Labels of the blocks `store` reads from now on, in read order, chain reads included."""
    log: list[int] = []
    read, read_chain = store.read, store.read_chain

    def logged_read(label):
        log.append(label)
        return read(label)

    def logged_chain(label):
        for node in read_chain(label):
            log.append(node.label)
            yield node

    store.read, store.read_chain = logged_read, logged_chain
    return log


@pytest.mark.parametrize("case", range(24))
def test_queries_read_each_block_once(case):
    # a successor reads its search path, a range report the blocks whose
    # interval meets (lo - 1, hi + 1) in pre-order: each once, one pinned at a time
    rng, keys, tree = _grid_tree(case)
    store, prio = tree.store, tree.prio
    qs = [rng.randrange(1 << 20) for _ in range(10)] + rng.sample(keys, min(5, len(keys)))
    ranges = [sorted(rng.sample(range(1 << 20), 2)) for _ in range(10)] + [(0, MASK64)]
    log = _read_log(store)
    for q in qs + [0, MASK64]:
        want = _search_path(store, prio, tree.root, q)
        store.reset_stats()
        log.clear()
        assert successor(tree, q) == min((k for k in keys if k >= q), default=None)
        assert log == want
        s = store.stats()
        assert (s.reads, s.peak_pinned, s.cur_pinned) == (len(want), 1, 0)
    for lo, hi in ranges:
        want = []
        _preorder(store, prio, tree.root, lo - 1, hi + 1, want)
        store.reset_stats()
        log.clear()
        assert range_report(tree, lo, hi) == sorted(k for k in keys if lo <= k <= hi)
        assert log == want
        s = store.stats()
        assert (s.reads, s.peak_pinned, s.cur_pinned) == (len(want), 1, 0)


def test_rank_query_reads_are_frozen():
    # total reads of 240 range counts and 240 selections over the query grid,
    # recorded before chain walks went through read_chain: a chain walk that
    # skips or double-counts a block moves them
    count_reads = select_reads = 0
    for case in range(24):
        rng, keys, tree = _grid_tree(case)
        store, ranked = tree.store, sorted(keys)
        store.reset_stats()
        for _ in range(10):
            lo, hi = sorted(rng.sample(range(1 << 20), 2))
            assert range_count(tree, lo, hi) == sum(1 for k in keys if lo <= k <= hi)
        count_reads += store.stats().reads
        store.reset_stats()
        for _ in range(10):
            k = rng.randrange(1, len(keys) + 1)
            assert select_kth(tree, k) == ranked[k - 1]
        select_reads += store.stats().reads
        assert store.stats().peak_pinned == 1 and store.stats().cur_pinned == 0
    assert (count_reads, select_reads) == (2882, 1630)
