"""Block node layout and fixed-width binary records.

A block is one external-memory unit: up to alpha keys, alpha+1 child
slots, a parent reference, its distance from the root, and the stored
fan-out of its subtree.  The serialized record is fixed-size per alpha so
equality of logical states is a plain byte comparison:

    depth        u32
    key_count    u16
    fanout_state u16                   (stored fan-out of the subtree)
    parent       u8 presence + u64 key
    keys         alpha x u64           (unused slots zero-filled)
    children     (alpha+1) x (u8 presence + u64 child label + u64 weight)

All integers little-endian.  The block label (the minimum-priority key of
the block's array) is the map key, not part of the record.
"""

from __future__ import annotations

import struct

from .errors import InvalidBlockError

MASK64 = (1 << 64) - 1


class ChildRef:
    """Child slot payload: label of the child block plus its subtree key count."""

    __slots__ = ("label", "weight")

    def __init__(self, label: int, weight: int):
        self.label = label
        self.weight = weight

    def __eq__(self, other):
        return (
            isinstance(other, ChildRef)
            and self.label == other.label
            and self.weight == other.weight
        )

    def __repr__(self):
        return f"ChildRef({self.label}, {self.weight})"


class BlockNode:
    __slots__ = ("keys", "children", "parent", "depth", "fanout", "label")

    def __init__(self, keys, children, parent, depth, fanout, label):
        self.keys = keys              # sorted ascending
        self.children = children      # exactly alpha+1 slots, ChildRef or None
        self.parent = parent          # parent label or None
        self.depth = depth
        self.fanout = fanout          # stored fan-out of this subtree
        self.label = label            # minimum-priority key of `keys`

    def copy(self) -> "BlockNode":
        return BlockNode(
            list(self.keys), list(self.children), self.parent,
            self.depth, self.fanout, self.label,
        )

    def subtree_weight(self) -> int:
        return len(self.keys) + sum(c.weight for c in self.children if c is not None)

    def local_violation(self, alpha: int) -> str | None:
        """Check invariants visible from the block alone; None when clean."""
        if len(self.children) != alpha + 1:
            return f"block {self.label}: {len(self.children)} child slots, want {alpha + 1}"
        if len(self.keys) > alpha:
            return f"block {self.label}: {len(self.keys)} keys exceed capacity {alpha}"
        if not self.keys:
            return f"block {self.label}: empty key array"
        for k in self.keys:
            if not 0 <= k <= MASK64:
                return f"block {self.label}: key {k} outside u64 range"
        for a, b in zip(self.keys, self.keys[1:]):
            if a >= b:
                return f"block {self.label}: keys not strictly ascending at {a},{b}"
        if not 1 <= self.fanout <= alpha + 1:
            return f"block {self.label}: fanout_state {self.fanout} outside 1..{alpha + 1}"
        return None


def record_size(alpha: int) -> int:
    return 17 + 8 * alpha + 17 * (alpha + 1)


_FMT_CACHE: dict[int, struct.Struct] = {}


def _record_struct(alpha: int) -> struct.Struct:
    st = _FMT_CACHE.get(alpha)
    if st is None:
        st = struct.Struct("<IHHBQ" + "Q" * alpha + "BQQ" * (alpha + 1))
        _FMT_CACHE[alpha] = st
    return st


def pack_record(node: BlockNode, alpha: int) -> bytes:
    bad = node.local_violation(alpha)
    if bad is not None:
        raise InvalidBlockError(bad)
    fields = [
        node.depth,
        len(node.keys),
        node.fanout,
        1 if node.parent is not None else 0,
        node.parent if node.parent is not None else 0,
    ]
    fields.extend(node.keys)
    fields.extend([0] * (alpha - len(node.keys)))
    for child in node.children:
        if child is None:
            fields.extend((0, 0, 0))
        else:
            fields.extend((1, child.label, child.weight))
    return _record_struct(alpha).pack(*fields)


def unpack_record(buf: bytes, alpha: int, label: int) -> BlockNode:
    vals = _record_struct(alpha).unpack(buf)
    depth, key_count, fanout, parent_present, parent = vals[:5]
    keys = list(vals[5:5 + key_count])
    children = []
    base = 5 + alpha
    for i in range(alpha + 1):
        present, clabel, weight = vals[base + 3 * i: base + 3 * i + 3]
        children.append(ChildRef(clabel, weight) if present else None)
    return BlockNode(
        keys, children, parent if parent_present else None, depth, fanout, label
    )
