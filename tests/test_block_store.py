import pytest

from rbst import BlockStore, Params, Tree, insert
from rbst.blocks import BlockNode, ChildRef, pack_record, record_size, unpack_record
from rbst.errors import (
    AccountingError, ConfigError, CorruptionError, FormatError, InvalidBlockError, NotFoundError,
)
from rbst.oracle import oracle_tree
from rbst.priority import ExplicitPriority, HashedPriority
from rbst.store import parse_image


def leaf(keys, alpha, label=None):
    return BlockNode(sorted(keys), [None] * (alpha + 1), None, 0, 1,
                     label if label is not None else min(keys))


def test_record_roundtrip():
    alpha = 3
    node = BlockNode([5, 9, 12], [None, ChildRef(7, 4), None, ChildRef(20, 2)],
                     parent=99, depth=3, fanout=2, label=9)
    buf = pack_record(node, alpha)
    assert len(buf) == record_size(alpha)
    back = unpack_record(buf, alpha, 9)
    assert back.keys == node.keys
    assert back.children == node.children
    assert back.parent == 99 and back.depth == 3 and back.fanout == 2


def test_read_root_of_three_key_build():
    tree = oracle_tree([1, 2, 3], HashedPriority(0), Params.unbuffered(3))
    node = tree.store.read(tree.root)
    assert node.keys == [1, 2, 3]
    tree.store.release(tree.root)


def test_read_missing_label():
    store = BlockStore(2)
    with pytest.raises(NotFoundError):
        store.read(123)


def test_two_reads_count_twice():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    store.read(5)
    store.read(5)
    assert store.stats().reads == 2
    store.release(5)
    store.release(5)


def test_write_aux_roundtrip_and_counters():
    store = BlockStore(2)
    before = store.stats()
    h = store.write_aux(leaf([5], 2))
    after = store.stats()
    assert after.writes - before.writes == 1
    assert after.allocs - before.allocs == 1
    assert store.read(h).keys == [5]
    store.release(h)


def test_write_aux_rejects_overfull_and_unsorted():
    store = BlockStore(2)
    with pytest.raises(InvalidBlockError):
        store.write_aux(BlockNode([1, 2, 3], [None] * 3, None, 0, 1, 1))
    bad = BlockNode([1, 2], [None] * 3, None, 0, 1, 1)
    bad.keys = [2, 1]
    with pytest.raises(InvalidBlockError):
        store.write_aux(bad)


def test_commit_smallest_rebuild():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    h = store.write_aux(leaf([5, 9], 2))
    before = store.stats()
    store.commit_rebuild({5}, [h])
    after = store.stats()
    assert len(store.blocks) == 1
    assert after.frees - before.frees == 1
    assert after.writes - before.writes == 1
    assert not store.aux


def test_commit_pure_growth_frees_nothing():
    store = BlockStore(2)
    h = store.write_aux(leaf([7], 2))
    before = store.stats()
    store.commit_rebuild(set(), [h])
    assert store.stats().frees == before.frees
    assert store.blocks[7].keys == [7]


def test_commit_collision_is_corruption():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    h = store.write_aux(leaf([5, 9], 2))
    with pytest.raises(CorruptionError):
        store.commit_rebuild(set(), [h])


def test_commit_unknown_obsolete():
    store = BlockStore(2)
    with pytest.raises(NotFoundError):
        store.commit_rebuild({77}, [])


def test_pin_release_cycle():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    store.read(5)
    assert store.stats().cur_pinned == 1
    store.release(5)
    assert store.stats().cur_pinned == 0
    assert store.stats().peak_pinned == 1
    with pytest.raises(AccountingError):
        store.release(5)


def test_reset_stats_preserves_pins():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    store.read(5)
    store.reset_stats()
    s = store.stats()
    assert s.reads == 0 and s.writes == 0
    assert s.cur_pinned == 1 and s.peak_pinned == 1
    store.release(5)


def test_stats_monotone_between_snapshots():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    a = store.stats()
    store.read(5)
    store.release(5)
    store.write_aux(leaf([9], 2))
    b = store.stats()
    assert b.reads >= a.reads and b.writes >= a.writes and b.allocs >= a.allocs


def test_fresh_store_all_zero():
    s = BlockStore(4).stats()
    assert (s.reads, s.writes, s.allocs, s.frees, s.cur_pinned, s.peak_pinned) == (0,) * 6


def test_image_roundtrip_100_keys(tmp_path, rng):
    params = Params.explicit(3, 2)
    tree = Tree.empty(params, seed=17)
    for k in rng.sample(range(1 << 20), 100):
        insert(tree, k)
    path = tmp_path / "t.rbst"
    tree.save(str(path))
    again = Tree.load(str(path))
    assert again.image() == tree.image()
    assert again.n == tree.n and again.root == tree.root


def test_save_refuses_explicit_priorities(tmp_path):
    # the image stores a seed, not ranks: such a tree would reload with other priorities
    keys = [3, 9, 14, 20, 27, 31, 40]
    tree = Tree(BlockStore(2), Params.explicit(2, 1), ExplicitPriority.from_order(keys[::-1]))
    for k in keys:
        insert(tree, k)
    path = tmp_path / "t.rbst"
    with pytest.raises(ConfigError):
        tree.save(str(path))
    assert not path.exists()


def test_image_bad_magic(tmp_path):
    tree = Tree.empty(Params.unbuffered(2), seed=0)
    insert(tree, 4)
    raw = bytearray(tree.image())
    raw[0] ^= 0xFF
    with pytest.raises(FormatError):
        parse_image(bytes(raw))


def test_image_truncated(tmp_path):
    tree = Tree.empty(Params.unbuffered(2), seed=0)
    insert(tree, 4)
    raw = tree.image()
    with pytest.raises(FormatError):
        parse_image(raw[:-3])


def test_image_dangling_child_names_label():
    tree = Tree.empty(Params.unbuffered(1), seed=0)
    for k in (10, 20, 30):
        insert(tree, k)
    node = next(b for b in tree.store.blocks.values()
                if any(c is not None for c in b.children))
    child = next(c for c in node.children if c is not None)
    missing = child.label
    del tree.store.blocks[missing]
    tree.n -= 1  # keep the header plausible; the dangling reference is the fault
    with pytest.raises(FormatError, match=str(missing)):
        parse_image(tree.image())


def test_empty_tree_image():
    tree = Tree.empty(Params.of(2, 0.5), seed=3)
    store, header = parse_image(tree.image())
    assert header.n == 0 and header.root is None and not store.blocks


def test_aux_region_not_in_image():
    tree = Tree.empty(Params.unbuffered(2), seed=0)
    insert(tree, 4)
    img = tree.image()
    tree.store.write_aux(leaf([99], 2))
    assert tree.image() == img
