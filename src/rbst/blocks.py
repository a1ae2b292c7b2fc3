"""Block node layout and the one fixed-width image entry per block.

A block is one external-memory unit: up to alpha keys, alpha+1 child
slots, a parent reference, its distance from the root, and the stored
fan-out of its subtree.  Its image entry is fixed-size per alpha, so
equality of logical states is a plain byte comparison:

    label        u64                   (the minimum-priority key of the array)
    depth        u32
    key_count    u16
    fanout_state u16                   (stored fan-out of the subtree)
    parent       u8 presence + u64 key
    keys         alpha x u64           (unused slots zero-filled)
    children     (alpha+1) x (u8 presence + u64 child label + u64 weight)

All integers little-endian; an absent parent or child slot is all zero.
One field list, `_HEAD` and `_SLOT`, gives both the struct that packs an
entry and the numpy dtype that reads a whole image body at once.
"""

from __future__ import annotations

import gc
import struct
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from operator import lt

import numpy as np

from .errors import FormatError, InvalidBlockError
from .priority import MASK64


@dataclass(slots=True)
class ChildRef:
    """Child slot payload: label of the child block plus its subtree key count."""

    label: int
    weight: int


@dataclass(slots=True, eq=False)      # blocks compare by identity
class BlockNode:
    keys: list[int]               # sorted ascending
    children: list                # exactly alpha+1 slots, ChildRef or None
    parent: int | None            # parent label or None
    depth: int
    fanout: int                   # stored fan-out of this subtree
    label: int                    # minimum-priority key of `keys`

    def copy(self) -> "BlockNode":
        """Own child slots, shared `keys`: no code mutates a key list in place, and none
        may, for `BlockStore.rewrite` skips the key scan of a copy still holding it."""
        return BlockNode(
            self.keys, list(self.children), self.parent,
            self.depth, self.fanout, self.label,
        )

    def local_violation(self, alpha: int) -> str | None:
        """Check invariants visible from the block alone; None when clean."""
        if len(self.children) != alpha + 1:
            return f"block {self.label}: {len(self.children)} child slots, want {alpha + 1}"
        if len(self.keys) > alpha:
            return f"block {self.label}: {len(self.keys)} keys exceed capacity {alpha}"
        keys = self.keys
        if not keys:
            return f"block {self.label}: empty key array"
        # a clean array passes one C-level scan; the loops only name a fault
        if not (0 <= keys[0] and keys[-1] <= MASK64 and all(map(lt, keys, keys[1:]))):
            for k in keys:
                if not 0 <= k <= MASK64:
                    return f"block {self.label}: key {k} outside u64 range"
            for a, b in zip(keys, keys[1:]):
                if a >= b:
                    return f"block {self.label}: keys not strictly ascending at {a},{b}"
        if not 1 <= self.fanout <= alpha + 1:
            return f"block {self.label}: fanout_state {self.fanout} outside 1..{alpha + 1}"
        return None


# (name, struct code) of each entry field before the keys, and of each child slot's
_HEAD = (("label", "Q"), ("depth", "I"), ("key_count", "H"), ("fanout", "H"),
         ("parent_present", "B"), ("parent", "Q"))
_SLOT = (("present", "B"), ("child", "Q"), ("weight", "Q"))


@cache
def record_struct(alpha: int) -> struct.Struct:
    """The image entry for one block: its u64 label, then its record."""
    head, slot = ("".join(code for _, code in fields) for fields in (_HEAD, _SLOT))
    return struct.Struct("<" + head + "Q" * alpha + slot * (alpha + 1))


@cache
def record_dtype(alpha: int) -> np.dtype:
    """`record_struct(alpha)` as a packed numpy record: the `_HEAD` fields, `keys`
    of shape (alpha,) and `slots` of shape (alpha + 1,) with the `_SLOT` fields."""
    def little(fields):
        return [(name, "<" + code) for name, code in fields]
    return np.dtype(little(_HEAD) + [("keys", "<Q", (alpha,)),
                                     ("slots", little(_SLOT), (alpha + 1,))])


@contextmanager
def collector_paused():
    """Run the body with the cyclic garbage collector off, then restore its state.

    Building a whole tree's blocks makes a few container objects per block
    (the node, its two lists, its `ChildRef`s), and each young generation
    they fill sets off a collection that rescans more of the heap.  Blocks
    hold ints, lists and `ChildRef`s only, so they form no cycle to collect.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def pack_record(node: BlockNode, alpha: int) -> bytes:
    bad = node.local_violation(alpha)
    if bad is not None:
        raise InvalidBlockError(bad)
    fields = [
        node.label,
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
    return record_struct(alpha).pack(*fields)


def unpack_record(vals: tuple, alpha: int) -> BlockNode:
    """The block of one `record_struct(alpha)` entry.  One tree has one image, so
    keys must strictly ascend, unused keys and absent fields must be zero and
    presence bytes 0 or 1."""
    label, depth, key_count, fanout, parent_present, parent = vals[:6]
    if not 1 <= key_count <= alpha:
        raise FormatError(f"block {label}: key_count {key_count} outside 1..{alpha}")
    if not 1 <= fanout <= alpha + 1:
        raise FormatError(f"block {label}: fanout_state {fanout} outside 1..{alpha + 1}")
    if parent_present != 1 and (parent_present or parent):
        raise FormatError(f"block {label}: parent presence {parent_present}, parent {parent}")
    base = 6 + alpha
    keys = list(vals[6:6 + key_count])
    if not all(map(lt, keys, keys[1:])):
        raise FormatError(f"block {label}: keys not strictly ascending")
    if any(vals[6 + key_count:base]):
        raise FormatError(f"block {label}: unused key slot not zero")
    children = [ChildRef(c, w) if p == 1 else None if p == c == w == 0
                else _bad_slot(label, p, c, w)
                for p, c, w in zip(vals[base::3], vals[base + 1::3], vals[base + 2::3])]
    return BlockNode(keys, children,
                     parent if parent_present else None, depth, fanout, label)


def _bad_slot(label: int, p: int, c: int, w: int) -> None:
    raise FormatError(f"block {label}: child slot (presence, label, weight) {(p, c, w)}")
