import dataclasses
import random

import pytest

from rbst import (
    Params, Tree, check_invariants, fanout_bound, range_count,
    range_report, select_kth, successor,
)
from rbst.core import NEG_INF, POS_INF, active_separators, scan_keys
from rbst.errors import ConfigError, InvalidRangeError, InvalidRankError
from rbst.metrics import fast_build
from rbst.oracle import oracle_tree
from rbst.priority import ExplicitPriority, HashedPriority

import numpy as np


def test_fanout_bound_formula():
    p = Params.explicit(3, 4)
    assert fanout_bound(3, p) == 1
    assert fanout_bound(8, p) == 2
    assert fanout_bound(100, p) == 4
    assert fanout_bound(0, p) == 1


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
        Params.explicit(0, 1)
    # rho is a u32 image field: a larger one would crash image() with struct.error
    with pytest.raises(ConfigError):
        Params.explicit(2, 1 << 32)
    with pytest.raises(ConfigError):
        Params.of(65534, 0.001)
    with pytest.raises(ConfigError):
        Params.explicit(2, -1)
    with pytest.raises(ConfigError):
        Params.of(2, 0.5, c_rho=0)    # would silently disable buffering
    assert Params.explicit(2, (1 << 32) - 1).rho == (1 << 32) - 1
    assert Params.explicit(2, 0) == Params.unbuffered(2)
    assert Params.of(2, 0.5).rho == 432
    assert Params.of(2, 0.5).beta == 3 * 432
    assert Params.unbuffered(2).beta == 0
    assert [f.name for f in dataclasses.fields(Params)] == ["alpha", "rho"]


@pytest.mark.parametrize("params", [Params.of(2, 0.5), Params.explicit(3, 2),
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
    params = Params.explicit(alpha, rho)
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


def test_range_count_and_select_basics():
    keys = list(range(10, 200, 7))
    tree = oracle_tree(keys, HashedPriority(3), Params.explicit(2, 2))
    assert range_count(tree, min(keys), max(keys)) == len(keys)
    assert select_kth(tree, 1) == min(keys)
    assert select_kth(tree, len(keys)) == max(keys)
    with pytest.raises(InvalidRankError):
        select_kth(tree, 0)
    with pytest.raises(InvalidRankError):
        select_kth(tree, len(keys) + 1)


@pytest.mark.parametrize("alpha,rho,seed", [(1, 1, 0), (2, 1, 1), (3, 2, 2), (4, 4, 3),
                                            (2, 0, 4), (5, 3, 5)])
def test_queries_against_sorted_oracle(alpha, rho, seed):
    rng = random.Random(seed)
    params = Params.explicit(alpha, rho)
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


def test_query_purity_no_writes():
    rng = random.Random(9)
    tree = oracle_tree(rng.sample(range(10_000), 300), HashedPriority(1),
                       Params.explicit(3, 2))
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
    params = Params.explicit(alpha, rho)
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
                       Params.explicit(2, 1))
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
                       Params.explicit(2, 2))
    child_label = next(l for l, b in tree.store.blocks.items() if b.parent is not None)
    tree.store.blocks[child_label].depth += 1
    assert not check_invariants(tree).ok


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


@pytest.mark.parametrize("case", range(24))
def test_scan_reads_each_block_once_in_preorder(case):
    rng = random.Random(case + 300)
    params = Params.explicit(case % 4 + 1, rng.choice([0, 1, 2, 4, 30]))
    keys = rng.sample(range(1 << 20), rng.randrange(1, 300))
    tree = oracle_tree(keys, HashedPriority(case), params)
    store = tree.store
    ranges = [(NEG_INF, POS_INF)] + [sorted(rng.sample(range(-1, (1 << 20) + 1), 2))
                                     for _ in range(10)]
    for lo, hi in ranges:
        want: list[int] = []
        _preorder(store, tree.prio, tree.root, lo, hi, want)
        visited: list[int] = []
        store.reset_stats()
        scan_keys(store, tree.prio, tree.root, lo, hi,
                  on_block=lambda label, node: visited.append(label))
        assert visited == want
        assert store.stats().reads == len(visited)
        assert store.stats().peak_pinned == 1
        assert store.stats().cur_pinned == 0
        if (lo, hi) == (NEG_INF, POS_INF):
            assert sorted(visited) == sorted(store.blocks)
