"""Every small state, every transition: an exhaustive update check.

For a universe of U keys, every priority order (`ExplicitPriority.from_order`),
every subset and every key: the legal toggle (insert the key if absent,
delete it if present) must leave the image of a fresh `oracle_build` of the
new set, and the refused opposite must change nothing.  The same loop gives
exact expectations under a uniform priority order: mean reads, writes,
staged and freed blocks per (alpha, rho, op, set size), frozen below so an
I/O change shows as an exact diff of the table.  Query reads and update I/O
are enumerated the same way where a closed form is known: on the treap.
"""

from fractions import Fraction
from itertools import permutations

import pytest

from rbst import (
    Params, check_invariants, delete, insert, range_report, select_kth, successor,
)
from rbst.errors import DuplicateKeyError, MissingKeyError
from rbst.oracle import oracle_build, oracle_tree
from rbst.priority import ExplicitPriority

GRID = [(a, r) for a in (1, 2, 3) for r in (0, 1, 2)]


def _toggle_all(universe: list[int], params: Params) -> dict:
    """(op, set size) -> (mean reads, writes, staged, freed) over every transition.

    Checks each transition on the way: image, checker, aux, pins, criterion
    7's receipt contract, and that the refused opposite changes nothing.
    """
    sums: dict[tuple[str, int], list[int]] = {}
    for order in permutations(universe):
        prio = ExplicitPriority.from_order(order)
        for mask in range(1 << len(universe)):
            keys = [k for i, k in enumerate(universe) if mask >> i & 1]
            for key in universe:
                tree = oracle_tree(keys, prio, params)
                where = (params, order, keys, key)
                if key in keys:
                    op, legal, refused, err = "delete", delete, insert, DuplicateKeyError
                    new = [k for k in keys if k != key]
                else:
                    op, legal, refused, err = "insert", insert, delete, MissingKeyError
                    new = keys + [key]
                img, writes = tree.image(), tree.store.stats().writes
                with pytest.raises(err):
                    refused(tree, key)
                assert tree.image() == img and tree.store.stats().writes == writes, where
                r = legal(tree, key)
                assert tree.image() == oracle_build(new, prio, params), where
                assert check_invariants(tree).ok, where
                assert not tree.store.aux and tree.store.stats().cur_pinned == 0, where
                assert r.writes <= 4 * (r.m + r.m_prime) + 4, (where, r)
                assert r.reads <= 4 * (r.m_prime + r.d_prime * r.m) + 4, (where, r)
                acc = sums.setdefault((op, len(keys)), [0, 0, 0, 0, 0])
                for i, v in enumerate((r.reads, r.writes, r.staged, r.freed, 1)):
                    acc[i] += v
    return {case: tuple(Fraction(v, acc[4]) for v in acc[:4]) for case, acc in sums.items()}


# (alpha, rho) -> op -> one "E[reads] E[writes] E[staged] E[freed]" row per
# set size before the update: 0..3 for an insert, 1..4 for a delete (U = 4)
EXPECTED_U4 = {
    (1, 0): {
        "insert": [
            "0 2 1 0",
            "3/2 7/2 3/2 1/2",
            "10/3 14/3 17/9 8/9",
            "77/16 45/8 53/24 29/24",
        ],
        "delete": [
            "1 0 0 1",
            "4 3/2 1/2 3/2",
            "52/9 8/3 8/9 17/9",
            "85/12 29/8 29/24 53/24",
        ],
    },
    (1, 1): {
        "insert": [
            "0 2 1 0",
            "1 4 2 1",
            "5 6 3 2",
            "43/8 25/4 11/4 7/4",
        ],
        "delete": [
            "1 0 0 1",
            "5/2 3/2 1/2 3/2",
            "11/3 38/9 16/9 25/9",
            "145/24 101/24 37/24 61/24",
        ],
    },
    (1, 2): {
        "insert": [
            "0 2 1 0",
            "1 4 2 1",
            "8/3 16/3 7/3 4/3",
            "9 8 4 3",
        ],
        "delete": [
            "1 0 0 1",
            "5/2 3/2 1/2 3/2",
            "4 3 1 2",
            "19/4 6 21/8 29/8",
        ],
    },
    (2, 0): {
        "insert": [
            "0 2 1 0",
            "1 2 1 1",
            "4/3 11/3 5/3 2/3",
            "71/24 31/8 5/3 7/6",
        ],
        "delete": [
            "1 0 0 1",
            "1 2 1 1",
            "13/3 5/3 2/3 5/3",
            "25/6 11/4 13/12 19/12",
        ],
    },
    (2, 1): {
        "insert": [
            "0 2 1 0",
            "1 2 1 1",
            "1 4 2 1",
            "5 14/3 7/3 2",
        ],
        "delete": [
            "1 0 0 1",
            "1 2 1 1",
            "7/3 5/3 2/3 5/3",
            "8/3 13/3 2 7/3",
        ],
    },
    (2, 2): {
        "insert": [
            "0 2 1 0",
            "1 2 1 1",
            "1 4 2 1",
            "5/2 7/2 3/2 3/2",
        ],
        "delete": [
            "1 0 0 1",
            "1 2 1 1",
            "7/3 5/3 2/3 5/3",
            "5/2 7/2 3/2 3/2",
        ],
    },
    (3, 0): {
        "insert": [
            "0 2 1 0",
            "1 2 1 1",
            "1 2 1 1",
            "5/4 15/4 7/4 3/4",
        ],
        "delete": [
            "1 0 0 1",
            "1 2 1 1",
            "1 2 1 1",
            "9/2 7/4 3/4 7/4",
        ],
    },
    (3, 1): {
        "insert": [
            "0 2 1 0",
            "1 2 1 1",
            "1 2 1 1",
            "1 4 2 1",
        ],
        "delete": [
            "1 0 0 1",
            "1 2 1 1",
            "1 2 1 1",
            "9/4 7/4 3/4 7/4",
        ],
    },
    (3, 2): {
        "insert": [
            "0 2 1 0",
            "1 2 1 1",
            "1 2 1 1",
            "1 4 2 1",
        ],
        "delete": [
            "1 0 0 1",
            "1 2 1 1",
            "1 2 1 1",
            "9/4 7/4 3/4 7/4",
        ],
    },
}


@pytest.mark.parametrize("alpha,rho", GRID)
def test_every_toggle_of_four_keys(alpha, rho):
    got = _toggle_all([1, 2, 3, 4], Params(alpha, rho))
    want = {}
    for op, rows in EXPECTED_U4[alpha, rho].items():
        for i, row in enumerate(rows):
            want[op, i + (op == "delete")] = tuple(map(Fraction, row.split()))
    assert got == want


@pytest.mark.slow
def test_every_toggle_of_five_keys():
    # E[writes] to insert a uniform key into a 4-key set, first measured by a
    # probe of all 172,800 U = 5 toggles
    want = {(1, 0): Fraction(161, 25), (2, 2): Fraction(6), (3, 2): Fraction(18, 5)}
    for alpha, rho in GRID:
        got = _toggle_all([1, 2, 3, 4, 5], Params(alpha, rho))
        if (alpha, rho) in want:
            assert got["insert", 4][1] == want[alpha, rho]


def _harmonic(m: int) -> Fraction:
    return sum((Fraction(1, k) for k in range(1, m + 1)), Fraction(0))


@pytest.mark.parametrize("u", [5, 6])
def test_treap_successor_reads_are_harmonic(u):
    # at (alpha, rho) = (1, 0) every block holds one key and the tree is the
    # treap; its search path to the gap between keys i and i + 1 holds key j
    # exactly when j ranks first among the keys from j to the gap (Seidel and
    # Aragon, "Randomized search trees"), so E[reads] = H_i + H_{U-i}
    universe = [10 * k for k in range(1, u + 1)]
    orders = list(permutations(universe))
    reads = [0] * (u + 1)
    for order in orders:
        tree = oracle_tree(universe, ExplicitPriority.from_order(order), Params(1, 0))
        for i in range(u + 1):
            before = tree.store.stats().reads
            assert successor(tree, 10 * i + 5) == (10 * (i + 1) if i < u else None)
            reads[i] += tree.store.stats().reads - before
    got = [Fraction(r, len(orders)) for r in reads]
    assert got == got[::-1]
    assert got == [_harmonic(i) + _harmonic(u - i) for i in range(u + 1)]


@pytest.mark.parametrize("u", [5, 6])
def test_treap_select_reads_are_harmonic(u):
    # on the treap select_kth(k) reads the path to key k: key j is on it
    # exactly when j ranks first among the keys from j to k, so
    # E[reads] = H_k + H_{U-k+1} - 1
    universe = [10 * k for k in range(1, u + 1)]
    orders = list(permutations(universe))
    reads = [0] * u
    for order in orders:
        tree = oracle_tree(universe, ExplicitPriority.from_order(order), Params(1, 0))
        for k in range(1, u + 1):
            before = tree.store.stats().reads
            assert select_kth(tree, k) == 10 * k
            reads[k - 1] += tree.store.stats().reads - before
    got = [Fraction(r, len(orders)) for r in reads]
    assert got == got[::-1]
    assert got == [_harmonic(k) + _harmonic(u - k + 1) - 1 for k in range(1, u + 1)]
    if u == 5:
        assert got == [Fraction(137, 60), Fraction(31, 12), Fraction(8, 3),
                       Fraction(31, 12), Fraction(137, 60)]


@pytest.mark.parametrize("u", [5, 6])
def test_treap_range_report_reads_are_harmonic(u):
    # range_report(10i, 10j) scans (10i - 1, 10j + 1) on the treap: it reads
    # the j - i + 1 keys in range, and a key m < i exactly when m ranks first
    # among keys m..i-1, so that its interval reaches key i (likewise on the
    # right), so E[reads] = (j - i + 1) + H_{i-1} + H_{U-j}.  That includes the
    # spine of each boundary key's inner subtree, where no key is in range
    universe = [10 * k for k in range(1, u + 1)]
    orders = list(permutations(universe))
    pairs = [(i, j) for i in range(1, u + 1) for j in range(i, u + 1)]
    reads = dict.fromkeys(pairs, 0)
    for order in orders:
        tree = oracle_tree(universe, ExplicitPriority.from_order(order), Params(1, 0))
        for i, j in pairs:
            before = tree.store.stats().reads
            assert range_report(tree, 10 * i, 10 * j) == universe[i - 1:j]
            reads[i, j] += tree.store.stats().reads - before
    got = {pair: Fraction(r, len(orders)) for pair, r in reads.items()}
    assert all(got[i, j] == got[u + 1 - j, u + 1 - i] for i, j in pairs)
    assert got == {(i, j): (j - i + 1) + _harmonic(i - 1) + _harmonic(u - j) for i, j in pairs}


# E[reads] of an update at (alpha, rho) = (1, 0), per rank k = 1..U of the key: an
# insert into the other U - 1 keys, a delete from all U.  No closed form yet: a partial
# rebuild reads some old blocks twice
TREAP_UPDATE_READS = {
    5: {"insert": "74/15 793/120 427/60 793/120 74/15",
        "delete": "91/12 253/30 131/15 253/30 91/12"},
    6: {"insert": "169/30 297/40 2953/360 2953/360 297/40 169/30",
        "delete": "124/15 1663/180 97/10 97/10 1663/180 124/15"},
    7: {"insert": "218/35 6793/840 22759/2520 5861/630 22759/2520 6793/840 218/35",
        "delete": "929/105 3121/315 13201/1260 319/30 13201/1260 3121/315 929/105"},
}


@pytest.mark.parametrize("u", [5, 6, pytest.param(7, marks=pytest.mark.slow)])
def test_treap_update_io_is_harmonic(u):
    # on the treap an update rebuilds the subtree of the key of rank k and rewrites one
    # slot per proper ancestor; with H = H_k + H_{U+1-k} that subtree holds H - 1 keys on
    # average and the key has H - 2 proper ancestors (Seidel and Aragon).  An insert
    # stages the subtree with the key (H - 1 blocks) and frees it without (H - 2), a
    # delete the reverse; writes are 2 staged + rewritten, a commit counting each
    # promoted block as a second write
    universe = [10 * k for k in range(1, u + 1)]
    orders = list(permutations(universe))
    sums = {op: [[0] * 5 for _ in universe] for op in ("insert", "delete")}
    for order in orders:
        prio = ExplicitPriority.from_order(order)
        for k, key in enumerate(universe):
            for op, update, keys in (("insert", insert, universe[:k] + universe[k + 1:]),
                                     ("delete", delete, universe)):
                r = update(oracle_tree(keys, prio, Params(1, 0)), key)
                for i, v in enumerate((r.staged, r.freed, r.rewritten, r.writes, r.reads)):
                    sums[op][k][i] += v
    for op, rows in sums.items():
        got = [tuple(Fraction(v, len(orders)) for v in row) for row in rows]
        assert got == got[::-1], op
        h = [_harmonic(k) + _harmonic(u + 1 - k) for k in range(1, u + 1)]
        if op == "insert":
            assert [row[:4] for row in got] == [(x - 1, x - 2, x - 2, 3 * x - 4) for x in h]
        else:
            assert [row[:4] for row in got] == [(x - 2, x - 1, x - 2, 3 * x - 6) for x in h]
        assert [row[4] for row in got] == list(map(Fraction, TREAP_UPDATE_READS[u][op].split()))
