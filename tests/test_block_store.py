import hashlib
import struct

import numpy as np
import pytest

from rbst import BlockStore, Params, Tree, insert
from rbst.blocks import BlockNode, ChildRef, pack_record, record_struct, unpack_record
from rbst.errors import (
    AccountingError, ConfigError, CorruptionError, FormatError, InvalidBlockError, NotFoundError,
)
from rbst.metrics import fast_build, sample_keys
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
    entry = record_struct(alpha)
    buf = pack_record(node, alpha)
    assert len(buf) == entry.size
    back = unpack_record(entry.unpack(buf), alpha)
    assert back.keys == node.keys
    assert back.children == node.children
    assert back.parent == 99 and back.depth == 3 and back.fanout == 2 and back.label == 9


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
    store.write_aux(leaf([5], 2))
    after = store.stats()
    assert after.writes - before.writes == 1
    assert after.allocs - before.allocs == 1
    assert store.aux[5].keys == [5]


def test_write_aux_refuses_a_second_block_with_a_staged_label():
    store = BlockStore(2)
    store.write_aux(leaf([5], 2))
    before = store.stats()
    with pytest.raises(CorruptionError, match="two staged blocks share label 5"):
        store.write_aux(leaf([5, 9], 2))
    assert store.stats() == before
    assert store.aux[5].keys == [5]


def test_write_aux_rejects_overfull_and_unsorted():
    store = BlockStore(2)
    with pytest.raises(InvalidBlockError):
        store.write_aux(BlockNode([1, 2, 3], [None] * 3, None, 0, 1, 1))
    bad = BlockNode([1, 2], [None] * 3, None, 0, 1, 1)
    bad.keys = [2, 1]
    with pytest.raises(InvalidBlockError):
        store.write_aux(bad)


@pytest.mark.parametrize("keys,fault", [
    ([1, 5, 9], None),
    ([0, (1 << 64) - 1], None),
    ([-1, 5], "key -1 outside u64 range"),
    ([3, 1 << 64], f"key {1 << 64} outside u64 range"),
    ([5, 5], "keys not strictly ascending at 5,5"),
    ([1, 9, 4], "keys not strictly ascending at 9,4"),
    # a range fault is named before an order fault, wherever it sits
    ([9, -1], "key -1 outside u64 range"),
    ([1, 1 << 70, 5], f"key {1 << 70} outside u64 range"),
])
def test_local_violation_names_key_fault(keys, fault):
    node = BlockNode(keys, [None] * 4, None, 0, 1, keys[0])
    assert node.local_violation(3) == (fault and f"block {keys[0]}: {fault}")


@pytest.mark.parametrize("slots,keys,fault", [
    (3, [5], "3 child slots, want 4"),
    (4, [], "empty key array"),
])
def test_local_violation_names_block_shape_fault(slots, keys, fault):
    node = BlockNode(keys, [None] * slots, None, 0, 1, 5)
    assert node.local_violation(3) == f"block 5: {fault}"
    with pytest.raises(InvalidBlockError, match=fault):
        pack_record(node, 3)


def test_commit_smallest_rebuild():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    store.write_aux(leaf([5, 9], 2))
    before = store.stats()
    store.commit_rebuild({5})
    after = store.stats()
    assert len(store.blocks) == 1
    assert after.frees - before.frees == 1
    assert after.writes - before.writes == 1
    assert not store.aux


def test_commit_pure_growth_frees_nothing():
    store = BlockStore(2)
    store.write_aux(leaf([7], 2))
    before = store.stats()
    store.commit_rebuild(set())
    assert store.stats().frees == before.frees
    assert store.blocks[7].keys == [7]


def test_commit_collision_is_corruption():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    store.write_aux(leaf([5, 9], 2))
    with pytest.raises(CorruptionError):
        store.commit_rebuild(set())


def test_commit_unknown_obsolete():
    store = BlockStore(2)
    with pytest.raises(NotFoundError):
        store.commit_rebuild({77})


def test_rewrite_replaces_the_block_with_one_write():
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    before = store.stats()
    store.rewrite(leaf([5, 9], 2))
    after = store.stats()
    assert after.writes - before.writes == 1
    assert (after.reads, after.allocs, after.frees) == (before.reads, before.allocs, before.frees)
    assert store.blocks[5].keys == [5, 9]


@pytest.mark.parametrize("fault", ["staged", "absent", "invalid"])
def test_rewrite_refused_counts_nothing_and_changes_nothing(fault):
    store = BlockStore(2)
    store.blocks[5] = leaf([5], 2)
    store.write_aux(leaf([7], 2))
    if fault == "staged":
        node, error = leaf([7, 9], 2), NotFoundError
    elif fault == "absent":
        node, error = leaf([8], 2), NotFoundError
    else:
        node, error = leaf([5, 6, 9], 2), InvalidBlockError   # three keys overfill alpha 2
    before = store.stats()
    with pytest.raises(error):
        store.rewrite(node)
    assert store.stats() == before
    assert {l: b.keys for l, b in store.blocks.items()} == {5: [5]}
    assert {l: b.keys for l, b in store.aux.items()} == {7: [7]}


def test_copy_shares_keys_and_not_children():
    node = BlockNode([5, 9], [ChildRef(3, 1), None, None], None, 0, 2, 5)
    dup = node.copy()
    assert dup.keys is node.keys
    assert dup.children == node.children and dup.children is not node.children


def test_rewrite_of_a_copy_skips_the_key_scan(monkeypatch):
    store = BlockStore(2)
    store.blocks[5] = leaf([5, 9], 2)
    node = store.blocks[5].copy()
    node.children[0] = ChildRef(3, 1)
    scanned = []
    monkeypatch.setattr(BlockNode, "local_violation", lambda self, alpha: scanned.append(self))
    store.rewrite(node)
    assert scanned == [] and store.blocks[5] is node and store.stats().writes == 1


@pytest.mark.parametrize("fault,message", [
    ("slots", "block 5: 2 child slots, want 3"),
    ("fanout", "block 5: fanout_state 0 outside 1..3"),
    ("unsorted", "block 5: keys not strictly ascending at 9,5"),
    ("overfull", "block 5: 3 keys exceed capacity 2"),
])
def test_rewrite_refuses_a_bad_copy_and_counts_nothing(fault, message):
    # a copy sharing the stored keys skips their scan, never the slot count or
    # the fan-out range; a copy given a new key list is scanned in full
    store = BlockStore(2)
    store.blocks[5] = leaf([5, 9], 2)
    node = store.blocks[5].copy()
    if fault == "slots":
        node.children.pop()
    elif fault == "fanout":
        node.fanout = 0
    else:
        node.keys = [9, 5] if fault == "unsorted" else [5, 7, 9]
    before = store.stats()
    with pytest.raises(InvalidBlockError, match=message):
        store.rewrite(node)
    assert store.stats() == before
    assert store.blocks[5] is not node and store.blocks[5].keys == [5, 9]


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


def _chain_store(length: int, alpha: int = 2) -> BlockStore:
    """One chain of `length` one-key waves labelled 1..length, head 1."""
    store = BlockStore(alpha)
    for label in range(1, length + 1):
        store.blocks[label] = leaf([label], alpha)
        if label < length:
            store.blocks[label].children[0] = ChildRef(label + 1, length - label)
    return store


def test_read_chain_reads_each_block_once_under_one_pin():
    store = _chain_store(5)
    seen = []
    for node in store.read_chain(1):
        seen.append(node.label)
        assert store.stats().cur_pinned == 1
    s = store.stats()
    assert seen == [1, 2, 3, 4, 5]
    assert (s.reads, s.cur_pinned, s.peak_pinned) == (5, 0, 1)


def test_read_chain_stops_after_a_fanout_block():
    store = _chain_store(5)
    store.blocks[3].fanout = 2
    assert [node.label for node in store.read_chain(1)] == [1, 2, 3]
    s = store.stats()
    assert (s.reads, s.cur_pinned, s.peak_pinned) == (3, 0, 1)
    assert [node.label for node in store.read_chain(3)] == [3]


def test_read_chain_unpins_when_left_early_or_raising():
    store = _chain_store(5)
    for node in store.read_chain(1):
        if node.label == 3:
            break
    assert store.stats().reads == 3 and store.stats().cur_pinned == 0
    with pytest.raises(RuntimeError, match="walk body"):
        for node in store.read_chain(2):
            if node.label == 4:
                raise RuntimeError("walk body")
    s = store.stats()
    assert (s.reads, s.cur_pinned, s.peak_pinned) == (6, 0, 1)


def test_read_chain_to_a_missing_label_counts_the_reads_made():
    store = _chain_store(5)
    del store.blocks[4]
    seen = []
    with pytest.raises(NotFoundError, match="block label 4 not found"):
        for node in store.read_chain(1):
            seen.append(node.label)
    s = store.stats()
    assert seen == [1, 2, 3]
    assert (s.reads, s.cur_pinned, s.peak_pinned) == (3, 0, 1)


def test_reset_stats_during_a_chain_walk_keeps_counting():
    store = _chain_store(5)
    for node in store.read_chain(1):
        if node.label == 2:
            store.reset_stats()
            assert store.stats().cur_pinned == 1
    s = store.stats()
    assert (s.reads, s.cur_pinned, s.peak_pinned) == (3, 0, 1)


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
    params = Params(3, 2)
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
    tree = Tree(BlockStore(2), Params(2, 1), ExplicitPriority.from_order(keys[::-1]))
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


def _empty_image(alpha: int) -> bytes:
    # magic, version, alpha, rho, seed, n, root_present, root, block_count
    return struct.pack("<4sHHIQQBQQ", b"RBST", 1, alpha, 0, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("alpha", [0, 65535])
def test_image_alpha_out_of_range_names_field(alpha):
    with pytest.raises(FormatError, match="alpha"):
        parse_image(_empty_image(alpha))
    with pytest.raises(FormatError, match="alpha"):
        Tree.from_image_bytes(_empty_image(alpha))


@pytest.mark.parametrize("fault", ["root-without-presence", "presence-2", "n-without-root"])
def test_image_root_fields_are_canonical(fault):
    # without these checks both images load and re-pack to other bytes
    at = struct.calcsize("<4sHHIQQ")   # root_present (u8), then root (u64)
    if fault == "root-without-presence":
        raw = bytearray(Tree.empty(Params(2, 2)).image())
        struct.pack_into("<Q", raw, at + 1, 77)
        why = "bad root 77: root_present is 0"
    elif fault == "n-without-root":
        raw = bytearray(Tree.empty(Params(2, 2)).image())
        struct.pack_into("<Q", raw, at - 8, 5)    # n, just before root_present
        why = "missing root for a non-empty image"
    else:
        tree = Tree.empty(Params(2, 2))
        insert(tree, 5)
        raw = bytearray(tree.image())
        raw[at] = 2
        why = "bad root_present 2: not 0 or 1"
    with pytest.raises(FormatError, match=why):
        Tree.from_image_bytes(bytes(raw))


def test_image_largest_alpha_loads():
    tree = Tree.from_image_bytes(_empty_image(65534))
    assert tree.params == Params.unbuffered(65534) and tree.n == 0


def test_image_truncated(tmp_path):
    tree = Tree.empty(Params.unbuffered(2), seed=0)
    insert(tree, 4)
    raw = tree.image()
    with pytest.raises(FormatError):
        parse_image(raw[:-3])


@pytest.mark.parametrize("fault", ["short-header", "version-2", "labels-descending"])
def test_image_header_and_block_order_faults_name_the_field(fault):
    tree = Tree.empty(Params(2, 2), seed=0)
    for k in range(10, 100, 7):
        insert(tree, k)
    raw = bytearray(tree.image())
    head, size = struct.calcsize("<4sHHIQQBQQ"), record_struct(2).size
    if fault == "short-header":
        raw, why = raw[:head - 1], "image shorter than header"
    elif fault == "version-2":
        struct.pack_into("<H", raw, 4, 2)
        why = "unsupported version 2"
    else:
        first, second = raw[head:head + size], raw[head + size:head + 2 * size]
        raw[head:head + 2 * size] = second + first
        why = f"block labels not ascending at {min(tree.store.blocks)}"
    with pytest.raises(FormatError, match=why):
        parse_image(bytes(raw))


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


def _linked_tree() -> Tree:
    tree = Tree.empty(Params(2, 2), seed=0)
    for k in range(210):
        insert(tree, k)
    return tree


def test_image_with_a_link_back_to_the_root_is_refused():
    # without the link check this image loads, and a successor sweep never ends
    tree = _linked_tree()
    blocks = tree.store.blocks
    leaf_label = next(l for l, b in blocks.items() if not any(b.children))
    blocks[leaf_label].children[0] = ChildRef(tree.root, tree.n)
    why = f"block {tree.root}: linked again, from block {leaf_label}"
    with pytest.raises(FormatError, match=why):
        Tree.from_image_bytes(tree.image())


@pytest.mark.parametrize("fault", ["linked-twice", "wrong-parent", "root-parent", "wrong-depth",
                                   "stray"])
def test_image_that_is_not_one_tree_is_refused(fault):
    tree = _linked_tree()
    blocks = tree.store.blocks
    leaves = sorted(l for l, b in blocks.items() if not any(b.children))
    named = leaves[0]
    parent, depth = blocks[named].parent, blocks[named].depth
    if fault == "linked-twice":
        blocks[leaves[1]].children[0] = ChildRef(named, len(blocks[named].keys))
        why = f"linked again, from block {max(leaves[1], parent)}"
    elif fault == "wrong-parent":
        blocks[named].parent = tree.root
        why = f"parent {tree.root}, depth {depth}, want parent {parent}, depth {depth}"
    elif fault == "root-parent":
        named = tree.root
        blocks[named].parent = parent
        why = f"parent {parent}, depth 0, want parent None, depth 0"
    elif fault == "wrong-depth":
        blocks[named].depth += 1
        why = f"parent {parent}, depth {depth + 1}, want parent {parent}, depth {depth}"
    else:
        named, why = 1000, "linked from no block"
        blocks[named] = leaf([named], 2)
    with pytest.raises(FormatError, match=f"block {named}: {why}"):
        parse_image(tree.image())


def _patched(img: bytes, label: int, field: int, value: int) -> bytes:
    """`img` with field `field` of block `label`'s entry set to `value`."""
    store, _ = parse_image(img)
    entry = record_struct(store.alpha)
    at = len(img) - entry.size * (len(store.blocks) - sorted(store.blocks).index(label))
    vals = list(entry.unpack_from(img, at))
    vals[field] = value
    return img[:at] + entry.pack(*vals) + img[at + entry.size:]


@pytest.mark.parametrize("fault", ["unused-key", "unsorted-key", "absent-parent",
                                   "parent-presence", "absent-slot-label",
                                   "absent-slot-weight", "slot-presence"])
def test_image_not_written_by_pack_is_refused(fault):
    # one tree, one file: at alpha 4 an entry is label, depth, key_count, fanout_state,
    # parent presence and key, 4 key slots, then 5 (presence, label, weight) slots
    tree = Tree.empty(Params(4, 2), seed=3)
    for k in range(10, 400, 7):
        insert(tree, k)
    img = tree.image()
    blocks = tree.store.blocks
    other = next(l for l in sorted(blocks) if l != tree.root)
    inner = next(l for l in sorted(blocks) if any(blocks[l].children))
    slots = blocks[inner].children
    used = slots.index(next(c for c in slots if c is not None))
    absent = slots.index(None)
    label, field, value = {
        "unused-key": (66, 6 + 3, 12345),
        "unsorted-key": (tree.root, 6 + 1, blocks[tree.root].keys[0] - 1),
        "absent-parent": (tree.root, 5, 7),
        "parent-presence": (other, 4, 2),
        "absent-slot-label": (inner, 10 + 3 * absent + 1, 5),
        "absent-slot-weight": (inner, 10 + 3 * absent + 2, 5),
        "slot-presence": (inner, 10 + 3 * used, 2),
    }[fault]
    if fault == "unused-key":
        # without the zero-fill check this image loads, checks clean and re-packs to
        # other bytes: a second file for the same tree
        assert len(blocks[66].keys) < 4
    with pytest.raises(FormatError, match=f"block {label}: "):
        Tree.from_image_bytes(_patched(img, label, field, value))


@pytest.mark.parametrize("n,seed,params,digest", [
    (100_000, 101, Params.of(4, 0.5, 108), "c3f75016f8c523c4"),    # query-a4
    (100_000, 101, Params.of(16, 0.5, 108), "a3d55e993cc460e8"),   # churn-a16
    (100_000, 101, Params.of(4, 0.5, 2), "a5ac609102966e44"),      # mixed-a4-c2
    (0, 1, Params.of(4, 0.5), "0e4f9691c2cab010"),
    (1, 1, Params.of(4, 0.5), "ebd1c9ade72e1819"),
    (300, 5, Params.unbuffered(1), "e71206a7bad58c70"),
    (5000, 7, Params.of(64, 0.5, 2), "cb4e652848e82990"),
])
def test_image_bytes_are_pinned(n, seed, params, digest):
    # every other image test is relative (update against oracle, pack against parse),
    # so only an absolute digest catches a format drift made in pack and parse alike
    keys = sample_keys(np.random.default_rng(seed), n)
    img = fast_build(keys, HashedPriority(seed), params).image()
    assert hashlib.sha256(img).hexdigest()[:16] == digest
    store, header = parse_image(img)
    assert store.image_bytes(header) == img
    # a load builds its fields from numpy columns: each must be a Python int, not a
    # numpy scalar, which would wrap where an int grows
    for label, node in store.blocks.items():
        ints = [label, node.label, node.depth, node.fanout, *node.keys]
        ints += [v for c in node.children if c is not None for v in (c.label, c.weight)]
        assert all(type(v) is int for v in ints), label
        assert node.parent is None or type(node.parent) is int, label
        assert type(node.keys) is list and type(node.children) is list, label


@pytest.mark.parametrize("field,offset,value", [
    ("key_count", 4, 0), ("key_count", 4, 9), ("fanout_state", 6, 0), ("fanout_state", 6, 4),
])
def test_image_bad_record_field_names_field_and_label(field, offset, value):
    # at alpha 2 a record's key_count lies in 1..2 and its fanout_state in 1..3
    tree = Tree.empty(Params(2, 1), seed=0)
    for k in range(10, 310, 10):
        insert(tree, k)
    raw = bytearray(tree.image())
    at = len(Tree.empty(tree.params).image())  # header size: the first label follows
    (label,) = struct.unpack_from("<Q", raw, at)
    struct.pack_into("<H", raw, at + 8 + offset, value)
    with pytest.raises(FormatError, match=f"block {label}: {field} {value} "):
        Tree.from_image_bytes(bytes(raw))


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
