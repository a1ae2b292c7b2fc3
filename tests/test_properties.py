import random
from bisect import bisect_left, bisect_right, insort

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine, initialize, invariant, precondition, rule, run_state_machine_as_test,
)

from rbst import (
    BlockStore, Params, Tree, check_invariants, delete, insert, range_count, select_kth,
    successor,
)
from rbst.errors import DuplicateKeyError, MissingKeyError
from rbst.oracle import oracle_build
from rbst.priority import MASK64, HashedPriority
from rbst.store import parse_image

key_sets = st.sets(st.integers(min_value=0, max_value=(1 << 64) - 1),
                   min_size=0, max_size=40)
param_grid = st.sampled_from(
    [Params.unbuffered(a) for a in (1, 2, 3)]
    + [Params(a, r) for a in (1, 2, 3) for r in (1, 3)]
)


def _fresh(params, seed):
    return Tree(BlockStore(params.alpha), params, HashedPriority(seed))


@given(keys=key_sets, params=param_grid, seed=st.integers(0, 1 << 16))
@settings(max_examples=60, deadline=None)
def test_image_independent_of_insertion_order(keys, params, seed):
    keys = list(keys)
    want = oracle_build(keys, HashedPriority(seed), params)
    for order in (sorted(keys), sorted(keys, reverse=True)):
        tree = _fresh(params, seed)
        for k in order:
            insert(tree, k)
        assert tree.image() == want


@given(keys=key_sets, params=param_grid, seed=st.integers(0, 1 << 16),
       data=st.data())
@settings(max_examples=60, deadline=None)
def test_delete_inverts_insert(keys, params, seed, data):
    keys = sorted(keys)
    if not keys:
        return
    tree = _fresh(params, seed)
    for k in keys:
        insert(tree, k)
    img = tree.image()
    victim = data.draw(st.sampled_from(keys))
    delete(tree, victim)
    insert(tree, victim)
    assert tree.image() == img
    assert check_invariants(tree).ok


@given(keys=key_sets, params=param_grid, seed=st.integers(0, 1 << 16))
@settings(max_examples=40, deadline=None)
def test_image_parse_serialize_roundtrip(keys, params, seed):
    img = oracle_build(list(keys), HashedPriority(seed), params)
    store, header = parse_image(img)
    assert store.image_bytes(header) == img


@given(keys=key_sets, q=st.integers(0, (1 << 64) - 1),
       params=param_grid, seed=st.integers(0, 1 << 16))
@settings(max_examples=60, deadline=None)
def test_successor_matches_sorted_set(keys, q, params, seed):
    from rbst.oracle import oracle_tree
    tree = oracle_tree(list(keys), HashedPriority(seed), params)
    want = min((k for k in keys if k >= q), default=None)
    assert successor(tree, q) == want


# small keys collide, so some inserts repeat a key and some deletes miss
machine_keys = st.integers(0, MASK64) | st.integers(0, 64)


class UpdateMachine(RuleBasedStateMachine):
    """Inserts, deletes and queries on one live tree, checked after every step.

    The model is the sorted list of present keys; the image must equal a
    fresh `oracle_build` of it.  `start` bounds the size of the first key set.
    """

    params = Params(1, 0)
    start = (0, 24)

    @initialize(seed=st.integers(0, 1 << 16), key_seed=st.integers(0, 1 << 16),
                data=st.data())
    def build(self, seed, key_seed, data):
        # the first keys come from a seeded generator, so a failure shrinks fast
        n = data.draw(st.integers(*self.start))
        rnd = random.Random(key_seed)
        self.tree = _fresh(self.params, seed)
        self.keys = sorted({rnd.randrange(MASK64 + 1) for _ in range(n)})
        for k in self.keys:
            insert(self.tree, k)

    @rule(key=machine_keys)
    def insert_key(self, key):
        if key in self.keys:
            with pytest.raises(DuplicateKeyError):
                insert(self.tree, key)
        else:
            insert(self.tree, key)
            insort(self.keys, key)

    @rule(key=machine_keys, data=st.data())
    def delete_key(self, key, data):
        if self.keys and data.draw(st.booleans()):
            key = data.draw(st.sampled_from(self.keys))
        if key in self.keys:
            delete(self.tree, key)
            self.keys.remove(key)
        else:
            with pytest.raises(MissingKeyError):
                delete(self.tree, key)

    @rule(q=machine_keys)
    def check_successor(self, q):
        i = bisect_left(self.keys, q)
        assert successor(self.tree, q) == (self.keys[i] if i < len(self.keys) else None)

    @rule(a=machine_keys, b=machine_keys)
    def check_range_count(self, a, b):
        lo, hi = min(a, b), max(a, b)
        want = bisect_right(self.keys, hi) - bisect_left(self.keys, lo)
        assert range_count(self.tree, lo, hi) == want

    @precondition(lambda self: self.keys)
    @rule(data=st.data())
    def check_select_kth(self, data):
        k = data.draw(st.integers(1, len(self.keys)))
        assert select_kth(self.tree, k) == self.keys[k - 1]

    @invariant()
    def same_as_fresh_build(self):
        assert self.tree.n == len(self.keys)
        assert self.tree.image() == oracle_build(self.keys, self.tree.prio, self.params)


# (alpha, rho, first key set sizes): at rho=64 a tree of up to 66 keys is
# one chain, so re-waves from its head rank tails past `_by_priority`'s
# numpy crossover
MACHINES = [(a, r, (0, 24)) for a in (1, 2, 3) for r in (0, 1, 3)] + [(2, 64, (40, 64))]


@pytest.mark.parametrize("alpha,rho,start", MACHINES, ids=lambda v: str(v))
def test_update_machine(alpha, rho, start):
    machine = type("Machine", (UpdateMachine,), {"params": Params(alpha, rho), "start": start})
    run_state_machine_as_test(machine, settings=settings(
        max_examples=20, stateful_step_count=25, deadline=None))
