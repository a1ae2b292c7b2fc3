"""The bulk image load against a record-by-record reference, and the collector pause."""

import gc
import struct

import numpy as np
import pytest

import rbst.store
from rbst import BlockStore, Params, Tree, insert
from rbst.blocks import (BlockNode, ChildRef, collector_paused, pack_record, record_dtype,
                         record_struct, unpack_record)
from rbst.errors import FormatError
from rbst.metrics import fast_build, sample_keys
from rbst.priority import HashedPriority
from rbst.store import _HEADER, ImageHeader, parse_image

# byte offsets of the header fields the mutations below rewrite
_N_AT, _PRESENT_AT, _ROOT_AT = (struct.calcsize(f) for f in ("<4sHHIQ", "<4sHHIQQ",
                                                             "<4sHHIQQB"))


def _check_links(blocks: dict[int, BlockNode], root: int | None) -> None:
    """One tree or a FormatError: the header links the root at depth 0, and every other
    block is linked once, by the block its parent field names, at its distance from the
    root (one below its linker's off the root's tree, as on a cycle)."""
    linker = {} if root is None else {root: None}   # label -> label of the block linking it
    for label, node in blocks.items():
        for ref in node.children:
            if ref is not None:
                if ref.label in linker:
                    raise FormatError(f"block {ref.label}: linked again, from block {label}")
                linker[ref.label] = label
    dist, todo = {}, [(root, 0)] if root in blocks else []
    while todo:                                     # each label is linked once: no cycle
        label, d = todo.pop()
        dist[label] = d
        todo += [(ref.label, d + 1) for ref in blocks[label].children
                 if ref is not None and ref.label in blocks]
    for label, node in blocks.items():
        if label not in linker:
            raise FormatError(f"block {label}: linked from no block")
        parent = linker.pop(label)
        depth = dist[label] if label in dist else blocks[parent].depth + 1
        if node.parent != parent or node.depth != depth:
            raise FormatError(f"block {label}: parent {node.parent}, depth {node.depth}, "
                              f"want parent {parent}, depth {depth}")
    for label, parent in linker.items():
        where = "the header" if parent is None else f"block {parent}"
        raise FormatError(f"dangling label {label}, linked from {where}")


def _one_by_one(img: bytes):
    """The record-by-record load: the header's root fields, every entry through
    `unpack_record` in label order, the root, then the link walk `_check_links`.  Gives
    the tree's re-packed bytes, or the FormatError's text."""
    _, _, alpha, rho, seed, n, present, root, _ = _HEADER.unpack_from(img)
    try:
        if present not in (0, 1):
            raise FormatError(f"bad root_present {present}: not 0 or 1")
        if not present and root:
            raise FormatError(f"bad root {root}: root_present is 0")
        store, prev = BlockStore(alpha), -1
        for vals in record_struct(alpha).iter_unpack(img[_HEADER.size:]):
            node = unpack_record(vals, alpha)
            if node.label <= prev:
                raise FormatError(f"block labels not ascending at {node.label}")
            prev = node.label
            store.blocks[prev] = node
        root = root if present else None
        if root is None and n > 0:
            raise FormatError("missing root for a non-empty image")
        _check_links(store.blocks, root)
    except FormatError as exc:
        return str(exc)
    return store.image_bytes(ImageHeader(alpha, rho, seed, n, root))


def _bulk(img: bytes):
    try:
        store, header = parse_image(img)
    except FormatError as exc:
        return str(exc)
    return store.image_bytes(header)


def _tree(alpha: int) -> Tree:
    """A small tree with fan-out blocks, chains, empty slots and part-filled key arrays."""
    tree = Tree.empty(Params(alpha, 2), seed=alpha)
    for k in range(0, 37 * 16 * (alpha + 1), 37):     # key 0: at alpha 1 a block label 0
        insert(tree, k)
    return tree


def _values(v: int, bits: int, labels: tuple[int, ...]):
    """0, 1, 2, v - 1, v + 1, the largest `bits`-bit value and the given labels, those
    that fit `bits` bits, less v."""
    top = (1 << bits) - 1
    return {x for x in (0, 1, 2, v - 1, v + 1, top, *labels) if 0 <= x <= top} - {v}


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_bulk_load_refuses_what_the_record_path_refuses(alpha):
    tree = _tree(alpha)
    img = tree.image()
    entry = record_struct(alpha)
    widths = [8 * struct.calcsize("<" + c) for c in entry.format[1:]]
    labels = sorted(tree.store.blocks)
    assert _bulk(img) == _one_by_one(img) == img
    checked = refused = 0
    for i, label in enumerate(labels):
        at = _HEADER.size + i * entry.size
        vals = entry.unpack_from(img, at)
        other = labels[i - 1] if i else labels[-1]
        for field, v in enumerate(vals):
            for x in _values(v, widths[field], (other, tree.root)):
                raw = bytearray(img)
                entry.pack_into(raw, at, *vals[:field], x, *vals[field + 1:])
                want = _one_by_one(bytes(raw))
                assert _bulk(bytes(raw)) == want, (label, field, x)
                checked += 1
                refused += isinstance(want, str)
    # a missing root and a bad record together: the record's fault comes first
    raw = bytearray(img)
    raw[_PRESENT_AT] = 0
    struct.pack_into("<Q", raw, _ROOT_AT, 0)
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == "missing root for a non-empty image"
    raw[_HEADER.size + 8 + 4:_HEADER.size + 8 + 6] = b"\0\0"      # the first key_count
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == (
        f"block {labels[0]}: key_count 0 outside 1..{alpha}")
    # the header's root fields and n
    for at, fmt, v in ((_PRESENT_AT, "<B", 1), (_ROOT_AT, "<Q", tree.root), (_N_AT, "<Q", tree.n)):
        for x in _values(v, 8 * struct.calcsize(fmt), (labels[0], labels[-1], tree.root)):
            raw = bytearray(img)
            struct.pack_into(fmt, raw, at, x)
            assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)), (at, x)
            checked += 1
    # most mutations are refused; some (a weight, n) load and re-pack as written
    assert refused > checked // 2, (checked, refused)


def test_bulk_load_refuses_two_records_under_one_label():
    # a leaf relabelled as its sibling, next in label order, and its slot pointed there:
    # the sorted links equal the label column, and every linked row has the right parent
    tree = _tree(4)
    blocks, labels, entry = tree.store.blocks, sorted(tree.store.blocks), record_struct(4)
    i = next(i for i, (a, b) in enumerate(zip(labels, labels[1:]))
             if blocks[a].parent == blocks[b].parent and not any(blocks[b].children))
    first, second = labels[i], labels[i + 1]
    raw = bytearray(tree.image())
    at = _HEADER.size + (i + 1) * entry.size
    entry.pack_into(raw, at, first, *entry.unpack_from(raw, at)[1:])
    parent = labels.index(blocks[second].parent)
    at = _HEADER.size + parent * entry.size
    vals = list(entry.unpack_from(raw, at))
    vals[vals.index(second, 6)] = first
    entry.pack_into(raw, at, *vals)
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == (
        f"block labels not ascending at {first}")


def test_bulk_load_of_an_empty_and_a_one_block_image():
    empty = Tree.empty(Params(2, 2)).image()
    one = Tree.empty(Params(2, 2))
    insert(one, 5)
    for img in (empty, one.image()):
        assert _bulk(img) == _one_by_one(img) == img
    raw = bytearray(empty)
    struct.pack_into("<Q", raw, _N_AT, 1)
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == "missing root for a non-empty image"
    # a root with no block to name
    raw[_PRESENT_AT] = 1
    struct.pack_into("<Q", raw, _ROOT_AT, 5)
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == "dangling label 5, linked from the header"


def _bump_last_depth(img: bytes, alpha: int) -> bytes:
    """`img` with its last record's depth one higher: a link fault, not a record fault."""
    raw, at = bytearray(img), len(img) - record_struct(alpha).size + 8
    struct.pack_into("<I", raw, at, struct.unpack_from("<I", raw, at)[0] + 1)
    return bytes(raw)


def test_naming_a_fault_decodes_one_record(monkeypatch):
    calls = dict.fromkeys(("unpack_record", "_build_blocks"), 0)
    for name in calls:
        def counted(*args, _name=name, _real=getattr(rbst.store, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(rbst.store, name, counted)
    tree = fast_build(sample_keys(np.random.default_rng(3), 2000), HashedPriority(3),
                      Params.of(4, 0.5, 2))
    img = tree.image()
    assert _bulk(img) == img
    assert calls == {"unpack_record": 0, "_build_blocks": 1}
    calls.update(_build_blocks=0)
    raw = bytearray(img)
    raw[len(img) - record_struct(4).size + 12] = 0      # the last block's key_count
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == (
        f"block {max(tree.store.blocks)}: key_count 0 outside 1..4")
    assert calls == {"unpack_record": 1, "_build_blocks": 0}
    calls.update(unpack_record=0)
    deeper = _bump_last_depth(img, 4)
    want = _one_by_one(deeper)
    assert "depth" in want and _bulk(deeper) == want
    assert calls == {"unpack_record": 0, "_build_blocks": 0}


def _edit(raw: bytearray, row: int, fields: dict[int, int]) -> int:
    """Rewrite entry fields (by index in `record_struct(3)`) of one row; its label."""
    entry = record_struct(3)
    at = _HEADER.size + row * entry.size
    vals = list(entry.unpack_from(raw, at))
    for field, x in fields.items():
        vals[field] = x
    entry.pack_into(raw, at, *vals)
    return vals[0]


@pytest.mark.parametrize("order_row,slot_row", [(1, 3), (3, 1), (2, 2)])
def test_the_first_bad_row_is_named_whichever_test_finds_it(order_row, slot_row):
    tree = _tree(3)
    img, labels = tree.image(), sorted(tree.store.blocks)
    kc, presence = 2, 6 + 3        # key_count, and slot 0's presence byte, at alpha 3
    # two faults in one record: the key_count test comes first
    raw = bytearray(img)
    _edit(raw, order_row, {kc: 0, presence: 2})
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == (
        f"block {labels[order_row]}: key_count 0 outside 1..3")
    # a label equal to the one before it in one row, a presence byte 2 in another
    raw = bytearray(img)
    _edit(raw, order_row, {0: labels[order_row - 1]})
    label = _edit(raw, slot_row, {presence: 2})
    want = _one_by_one(bytes(raw))
    assert _bulk(bytes(raw)) == want
    if order_row < slot_row:
        assert want == f"block labels not ascending at {labels[order_row - 1]}"
    else:
        assert want.startswith(f"block {label}: child slot (presence, label, weight) (2, ")


def test_a_wrong_depth_names_its_own_block():
    # a block with a child that sorts before it: in label order the child comes first,
    # and its depth is right, so the depth wanted is the distance from the root
    tree = _tree(3)
    blocks, labels = tree.store.blocks, sorted(tree.store.blocks)
    label, child = next((label, ref.label) for label in labels if label != tree.root
                        for ref in blocks[label].children if ref and ref.label < label)
    node, row = blocks[label], labels.index(label)
    for depth in (node.depth + 1, node.depth - 2):
        raw = bytearray(tree.image())
        _edit(raw, row, {1: depth})
        assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == (
            f"block {label}: parent {node.parent}, depth {depth}, "
            f"want parent {node.parent}, depth {node.depth}")
    # a two-block cycle the root does not reach: the block and its child link each
    # other, and the grandparent's slot is emptied; off the root's tree a depth is
    # one below its linker's
    raw = bytearray(tree.image())
    slot = 9 + 3 * [ref and ref.label for ref in blocks[node.parent].children].index(label)
    _edit(raw, labels.index(node.parent), {slot: 0, slot + 1: 0, slot + 2: 0})
    slot = 9 + 3 * blocks[child].children.index(None)
    _edit(raw, labels.index(child), {slot: 1, slot + 1: label, slot + 2: 1})
    _edit(raw, row, {5: child})
    assert _bulk(bytes(raw)) == _one_by_one(bytes(raw)) == (
        f"block {label}: parent {child}, depth {node.depth}, "
        f"want parent {child}, depth {blocks[child].depth + 1}")


@pytest.mark.parametrize("enabled", [True, False])
def test_loads_and_builds_leave_the_collector_as_they_found_it(enabled):
    keys = sample_keys(np.random.default_rng(3), 2000)
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        tree = fast_build(keys, HashedPriority(3), Params.of(4, 0.5, 2))
        assert gc.isenabled() is enabled
        img = tree.image()
        assert Tree.from_image_bytes(img).image() == img
        assert gc.isenabled() is enabled
        raw = bytearray(img)
        raw[_HEADER.size + 12] = 0    # the first block's key_count
        with pytest.raises(FormatError, match="key_count 0"):
            parse_image(bytes(raw))
        assert gc.isenabled() is enabled
        # a link fault: refused before any block is built
        with pytest.raises(FormatError, match="depth"):
            parse_image(_bump_last_depth(img, 4))
        assert gc.isenabled() is enabled
        with pytest.raises(ZeroDivisionError), collector_paused():
            1 / 0
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()


@pytest.mark.parametrize("alpha", [*range(1, 65), 65534])
def test_record_dtype_is_the_record_struct(alpha):
    assert record_dtype(alpha).itemsize == record_struct(alpha).size


@pytest.mark.parametrize("alpha", [1, 2, 5, 16])
def test_record_dtype_reads_each_struct_field(alpha):
    kc = max(1, alpha - 1)
    keys = [(1 << 64) - kc + i for i in range(kc)]
    children = [ChildRef((1 << 63) + 3 * s, 7 * s + 1) if s % 2 else None
                for s in range(alpha + 1)]
    node = BlockNode(keys, children, (1 << 64) - 1, 0xFFFF_FFFE, alpha, keys[0])
    buf = pack_record(node, alpha)
    vals = record_struct(alpha).unpack(buf)
    (row,) = np.frombuffer(buf, record_dtype(alpha))
    head = ("label", "depth", "key_count", "fanout", "parent_present", "parent")
    assert [int(row[name]) for name in head] == list(vals[:6])
    assert row["keys"].tolist() == list(vals[6:6 + alpha])
    slots = row["slots"]
    got = zip(slots["present"].tolist(), slots["child"].tolist(), slots["weight"].tolist())
    assert [v for slot in got for v in slot] == list(vals[6 + alpha:])
