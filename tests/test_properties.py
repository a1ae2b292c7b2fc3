from hypothesis import given, settings, strategies as st

from rbst import BlockStore, Params, Tree, check_invariants, delete, insert
from rbst.oracle import oracle_build
from rbst.priority import HashedPriority
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
    from rbst import successor
    from rbst.oracle import oracle_tree
    tree = oracle_tree(list(keys), HashedPriority(seed), params)
    want = min((k for k in keys if k >= q), default=None)
    assert successor(tree, q) == want
