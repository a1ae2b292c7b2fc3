import random
from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from rbst import Params, Tree, insert
from rbst.errors import ConfigError, EnumerationLimitError
from rbst.oracle import (
    exact_expected_size, oracle_blocks, oracle_build, oracle_tree, section_distribution_checks,
    section_tail_by_enumeration, section_tail_prob, treap_reference, treap_shape_of_tree,
)
from rbst.priority import ExplicitPriority, HashedPriority
from rbst.store import BlockStore


def test_hand_trace_identity_permutation():
    prio = ExplicitPriority.from_order([1, 2, 3, 4, 5, 6])
    root, blocks = oracle_blocks([1, 2, 3, 4, 5, 6], prio, Params.unbuffered(3))
    assert root == 1
    assert blocks[1].keys == [1, 2, 3]
    children = [c for c in blocks[1].children if c is not None]
    assert len(children) == 1 and children[0].label == 4 and children[0].weight == 3
    assert blocks[4].keys == [4, 5, 6]
    assert blocks[4].depth == 1


def test_single_key_build():
    root, blocks = oracle_blocks([42], HashedPriority(1), Params.of(3, 0.5))
    assert root == 42 and blocks[42].keys == [42] and blocks[42].depth == 0


@pytest.mark.parametrize("alpha,n,want", [(1, 2, Fraction(2)), (2, 4, Fraction(5, 2)),
                                          (3, 6, Fraction(3))])
def test_expected_size_at_two_alpha(alpha, n, want):
    s, _, _ = exact_expected_size(n, Params.unbuffered(alpha))
    assert s == want == 1 + Fraction(alpha + 1, 2)


def test_expected_size_single_block():
    for alpha in (1, 2, 3):
        s, f, e = exact_expected_size(alpha, Params.unbuffered(alpha))
        assert s == 1 and f == 1 and e == 0


def test_expected_size_n7_alpha3_rho1_frozen():
    # full enumeration over 7! permutations; values frozen from the run
    s, f, e = exact_expected_size(7, Params(3, 1))
    assert s == Fraction(17, 5)
    assert e == Fraction(68, 35)
    eps_implied = 108 * 3 / 1
    assert e <= max(eps_implied * 7 / 3, 1)


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        exact_expected_size(10, Params.unbuffered(2))


def test_section_tail_formula():
    assert section_tail_prob(6, 3, 1) == Fraction(1, 2)
    assert section_tail_prob(6, 3, 0) == 1
    with pytest.raises(ConfigError):
        section_tail_prob(6, 3, 4)


@pytest.mark.parametrize("n,alpha", [(5, 2), (6, 3), (8, 3), (9, 4), (12, 5)])
def test_section_tail_matches_enumeration_and_exchange(n, alpha):
    for t in range(0, n - alpha + 1):
        per_section = section_tail_by_enumeration(n, alpha, t)
        want = section_tail_prob(n, alpha, t)
        assert all(p == want for p in per_section)


def test_distribution_brackets_example():
    exact, lower, upper = section_distribution_checks(10, 4, 5)
    assert exact == Fraction(56, 286)
    assert lower == (1 - Fraction(5, 11)) ** 3
    assert upper == (1 - Fraction(5, 13)) ** 3
    assert lower <= exact <= upper


def test_distribution_brackets_t_zero():
    exact, lower, upper = section_distribution_checks(12, 3, 0)
    assert exact == lower == upper == 1


@pytest.mark.parametrize("n,m", [(12, 3), (10, 4), (9, 5), (7, 2)])
def test_distribution_brackets_sweep(n, m):
    for t in range(0, n + 1):
        exact, lower, upper = section_distribution_checks(n, m, t)
        assert lower <= exact <= upper


def test_census_chain_configurations():
    # with fan-out one the layout is a chain whose only possible non-full
    # block is the tail, so E equals the tail statistic exactly
    for n, alpha, rho in [(5, 3, 4), (6, 2, 5), (7, 3, 6), (4, 4, 9)]:
        e = exact_expected_size(n, Params(alpha, rho))[2]
        assert e == (1 if n % alpha else 0)
        assert e <= 1


def test_census_exact_n8_frozen():
    e = exact_expected_size(8, Params(3, 2))[2]
    assert e == Fraction(12, 7)
    assert e <= 27 * 3


def test_census_monte_carlo_mode():
    from rbst import fanout_bound
    params = Params.of(2, 0.5)   # rho = 432
    delta = fanout_bound(10_000, params)
    keys = range(1, 10_001)
    nonfull = []
    for seed in range(1, 7):
        _, blocks = oracle_blocks(keys, HashedPriority(seed), params)
        nonfull.append(sum(len(b.keys) < params.alpha for b in blocks.values()))
    assert sum(nonfull) / len(nonfull) <= 27 * delta


def test_enumerate_images_perm6():
    # 720 permutations are built; distinct images collapse to 120 because
    # single-block sections do not depend on the order within the section
    keys = range(1, 7)
    seen = Counter(oracle_build(keys, ExplicitPriority.from_order(order), Params.unbuffered(3))
                   for order in permutations(keys))
    assert sum(seen.values()) == 720
    assert len(seen) == 120


def test_treap_single_key():
    assert treap_reference([7], HashedPriority(1)) == [7, None, None]


def test_treap_forced_left_spine():
    prio = ExplicitPriority.from_order([30, 20, 10])
    tree = Tree(BlockStore(1), Params.unbuffered(1), prio)
    for k in (10, 20, 30):
        insert(tree, k)
    shape = treap_shape_of_tree(tree)
    assert shape == [30, 20, 10, None, None, None, None]
    assert shape == treap_reference([10, 20, 30], prio)


@pytest.mark.parametrize("params", [Params.unbuffered(2), Params(1, 1)], ids=["alpha2", "rho1"])
def test_treap_shape_refuses_other_params(params):
    tree = oracle_tree([1, 2, 3], HashedPriority(0), params)
    with pytest.raises(ConfigError, match="alpha=1 without buffering"):
        treap_shape_of_tree(tree)


@pytest.mark.parametrize("case", range(25))
def test_treap_isomorphism_random(case):
    rng = random.Random(case * 7 + 1)
    n = rng.randrange(1, 101)
    keys = rng.sample(range(1 << 20), n)
    prio = HashedPriority(case)
    tree = Tree(BlockStore(1), Params.unbuffered(1), prio)
    for k in keys:
        insert(tree, k)
    assert treap_shape_of_tree(tree) == treap_reference(keys, prio)


def test_treap_deeper_than_recursion_limit():
    # priorities ascend with the key: a right spine of 2,000 levels
    keys = range(1, 2001)
    prio = ExplicitPriority.from_order(keys)
    tree = oracle_tree(keys, prio, Params.unbuffered(1))
    assert tree.store.blocks[2000].depth == 1999
    assert treap_shape_of_tree(tree) == treap_reference(keys, prio)
    assert treap_shape_of_tree(tree) != treap_reference(range(1, 2000), prio)


def test_oracle_image_header_carries_params():
    from rbst.store import parse_image
    params = Params(3, 2)
    img = oracle_build([5, 6, 7], HashedPriority(9), params)
    _, header = parse_image(img)
    assert header.alpha == 3 and header.rho == 2 and header.seed == 9 and header.n == 3
