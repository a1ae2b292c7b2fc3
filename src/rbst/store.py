"""Simulated block-addressable external memory with exact I/O accounting.

Two regions share one store, and both are addressed by block label: the
uniquely-represented (UR) region, and an auxiliary region that stages a
rebuild's blocks write-only until an atomic commit promotes all of them.
Promoting the whole staged region is promoting one rebuild site's blocks,
because every update commits what it stages at that site before it stages
anything at another.  Every block access goes through read/write calls
that bump the counters; reads pin the block until the caller releases it,
so peak_pinned measures how many blocks an algorithm really holds in main
memory at once.  Every query walk and every update's chain pass reads
through read_chain, which goes down slot 0 and stops after the first block
whose fan-out is above one: one counted read per block, one pin held at a
time, without a release call.

Image file format (all integers little-endian):

    magic         "RBST" (4 bytes)
    version       u16 = 1
    alpha         u16
    rho           u32          (0 encodes buffering disabled)
    seed          u64
    n             u64
    root_present  u8
    root          u64
    block_count   u64
    blocks        block_count x record (blocks.record_struct), label ascending

Only the UR region is serialized; auxiliary blocks never reach an image.
A load checks the whole body in one numpy pass (`blocks.record_dtype`) and
builds the blocks with the cyclic collector paused.  A refused record is
named from its own row alone, and a refused link from the blocks built.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .blocks import (BlockNode, ChildRef, collector_paused, pack_record, record_dtype,
                     record_struct, unpack_record)
from .errors import AccountingError, CorruptionError, FormatError, InvalidBlockError, NotFoundError

MAGIC = b"RBST"
VERSION = 1
ALPHA_MAX = 65534              # fan-out alpha + 1 fits a block's u16 field
RHO_MAX = 0xFFFFFFFF          # rho is a u32 header field

_HEADER = struct.Struct("<4sHHIQQBQQ")


@dataclass
class IoStats:
    reads: int = 0
    writes: int = 0
    allocs: int = 0
    frees: int = 0
    cur_pinned: int = 0
    peak_pinned: int = 0


@dataclass(frozen=True)
class ImageHeader:
    alpha: int
    rho: int          # 0 means buffering disabled
    seed: int
    n: int
    root: int | None


class BlockStore:
    """Label-addressed UR region plus label-addressed staging region `aux`."""

    def __init__(self, alpha: int):
        self.alpha = alpha
        self.blocks: dict[int, BlockNode] = {}
        self.aux: dict[int, BlockNode] = {}
        self._stats = IoStats()
        self._pins: dict[int, int] = {}

    # -- access -------------------------------------------------------

    def read(self, label: int) -> BlockNode:
        """Counted read; pins the block until release(label)."""
        node = self._lookup(label)
        stats, pins = self._stats, self._pins
        stats.reads += 1
        pins[label] = pins.get(label, 0) + 1
        stats.cur_pinned += 1
        if stats.cur_pinned > stats.peak_pinned:
            stats.peak_pinned = stats.cur_pinned
        return node

    def read_chain(self, label: int):
        """Counted reads of the chain from `label` down through slot 0, yielded in order.

        The walk stops after a block of fan-out above one, or with no child
        in slot 0: a fan-out block alone reads as a chain of one, and the
        caller routes from it.  One read per block and one pin, held while
        the caller is on a block and dropped however the walk ends: run out,
        left early or raising.
        """
        blocks, stats = self.blocks, self._stats
        stats.cur_pinned += 1
        stats.peak_pinned = max(stats.peak_pinned, stats.cur_pinned)
        try:
            while True:
                try:
                    node = blocks[label]
                except KeyError:
                    raise NotFoundError(f"block label {label} not found") from None
                stats.reads += 1
                yield node
                if node.fanout > 1 or node.children[0] is None:
                    return
                label = node.children[0].label
        finally:
            stats.cur_pinned -= 1

    def peek(self, label: int) -> BlockNode:
        """Uncounted access for the oracle and tests only (the invariant checker reads
        `blocks` directly).  No update calls it: every block an update touches goes
        through read.
        """
        return self._lookup(label)

    def release(self, label: int) -> None:
        pins = self._pins
        cnt = pins.get(label, 0)
        if cnt <= 0:
            raise AccountingError(f"release of unpinned block {label!r}")
        if cnt == 1:
            del pins[label]
        else:
            pins[label] = cnt - 1
        self._stats.cur_pinned -= 1

    def _lookup(self, label: int) -> BlockNode:
        try:
            return self.blocks[label]
        except KeyError:
            raise NotFoundError(f"block label {label} not found") from None

    # -- mutation -----------------------------------------------------

    def write_aux(self, node: BlockNode) -> None:
        """Stage `node` under its label until the next commit: one write, one alloc."""
        bad = node.local_violation(self.alpha)
        if bad is not None:
            raise InvalidBlockError(bad)
        if node.label in self.aux:
            raise CorruptionError(f"two staged blocks share label {node.label}")
        self.aux[node.label] = node
        self._stats.writes += 1
        self._stats.allocs += 1

    def rewrite(self, node: BlockNode) -> None:
        """In-place overwrite of the UR block with node's label, one counted write.  Slot
        count and fan-out are checked always, keys unless `node.keys` is the stored list."""
        stored, alpha = self.blocks.get(node.label), self.alpha
        if stored is None:
            raise NotFoundError(f"block label {node.label} not found")
        if (node.keys is not stored.keys or len(node.children) != alpha + 1
                or not 1 <= node.fanout <= alpha + 1) and (bad := node.local_violation(alpha)):
            raise InvalidBlockError(bad)
        self.blocks[node.label] = node
        self._stats.writes += 1

    def commit_rebuild(self, obsolete) -> None:
        """Atomically free the obsolete UR blocks and promote every staged block."""
        obsolete = set(obsolete)
        blocks, aux = self.blocks, self.aux
        for label in obsolete:
            if label not in blocks:
                raise NotFoundError(f"obsolete label {label} not found")
        for label in aux:
            if label in blocks and label not in obsolete:
                raise CorruptionError(
                    f"staged block label {label} collides with a surviving block"
                )
        for label in obsolete:
            del blocks[label]               # zeroed: nothing of the old block survives
        self._stats.frees += len(obsolete)
        blocks.update(aux)
        self._stats.writes += len(aux)
        aux.clear()

    # -- stats --------------------------------------------------------

    def stats(self) -> IoStats:
        s = self._stats
        return IoStats(s.reads, s.writes, s.allocs, s.frees, s.cur_pinned, s.peak_pinned)

    def reset_stats(self) -> None:
        """Zero the counters in place, so a chain walk under way keeps counting into them."""
        s = self._stats
        s.reads = s.writes = s.allocs = s.frees = 0
        s.peak_pinned = s.cur_pinned

    # -- images -------------------------------------------------------

    def image_bytes(self, header: ImageHeader) -> bytes:
        blocks, alpha = self.blocks, self.alpha
        head = _HEADER.pack(
            MAGIC, VERSION, header.alpha, header.rho, header.seed, header.n,
            1 if header.root is not None else 0,
            header.root if header.root is not None else 0,
            len(blocks),
        )
        return b"".join([head] + [pack_record(blocks[label], alpha) for label in sorted(blocks)])


def parse_image(data: bytes) -> tuple[BlockStore, ImageHeader]:
    """The store and header of an image, or a FormatError naming its first fault.

    One bulk pass reads the body as a numpy record array and runs every load
    check as array tests, then builds the blocks with the cyclic collector
    paused.  A fault is named by `unpack_record` on the first bad row alone, or
    by `_check_links` on the blocks built when the array link test fails.
    """
    if len(data) < _HEADER.size:
        raise FormatError("image shorter than header")
    magic, version, alpha, rho, seed, n, root_present, root, count = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if root_present not in (0, 1):
        raise FormatError(f"bad root_present {root_present}: not 0 or 1")
    if not root_present and root:
        raise FormatError(f"bad root {root}: root_present is 0")
    if not 1 <= alpha <= ALPHA_MAX:
        raise FormatError(f"bad alpha {alpha}: outside 1..{ALPHA_MAX}")
    entry = record_struct(alpha)
    body = memoryview(data)[_HEADER.size:]
    if len(body) != count * entry.size:
        raise FormatError(
            f"truncated image: {len(body)} body bytes for {count} blocks of {entry.size}"
        )
    header = ImageHeader(alpha, rho, seed, n, root if root_present else None)
    table = np.frombuffer(body, record_dtype(alpha), count)
    bad = _first_bad_record(table, alpha)
    if bad is not None:
        node = unpack_record(entry.unpack_from(body, bad * entry.size), alpha)
        raise FormatError(f"block labels not ascending at {node.label}")
    if header.root is None and n > 0:
        raise FormatError("missing root for a non-empty image")
    store = BlockStore(alpha)
    with collector_paused():
        _build_blocks(store.blocks, table, alpha)
    if not _links_clean(table, header.root):
        _check_links(store.blocks, header.root)
    return store, header


def _first_bad_record(table: np.ndarray, alpha: int) -> int | None:
    """The first row `unpack_record` refuses or whose label does not ascend, or None:
    `unpack_record`'s tests in its order, and only a failed test searched for its row."""
    kc, fanout, pp = table["key_count"], table["fanout"], table["parent_present"]
    keys, slots, labels = table["keys"], table["slots"], table["label"]
    used = np.arange(alpha) < kc[:, None]
    present, child, weight = slots["present"], slots["child"], slots["weight"]
    ascending = labels[1:] > labels[:-1]            # row i + 1 against row i
    rows = [np.flatnonzero(~ok)[0] // ok[0].size + (ok is ascending) for ok in (
        (1 <= kc) & (kc <= alpha),
        (1 <= fanout) & (fanout <= alpha + 1),
        (pp == 1) | ((pp == 0) & (table["parent"] == 0)),
        (keys[:, 1:] > keys[:, :-1]) | ~used[:, 1:],
        used | (keys == 0),
        (present == 1) | ((present == 0) & (child == 0) & (weight == 0)),
        ascending) if not ok.all()]
    return int(min(rows)) if rows else None


def _links_clean(table: np.ndarray, root: int | None) -> bool:
    """Whether `_check_links` passes, for records `_first_bad_record` passed: the present
    child labels and the root are the label column, and each child's parent and depth
    match the block whose slot names it."""
    labels, depth, pp, parent = (table["label"], table["depth"].astype(np.int64),  # no wrap
                                 table["parent_present"], table["parent"])
    slots = table["slots"]
    present = slots["present"] == 1
    rows = np.nonzero(present)[0]                 # the linking block of each child
    child = slots["child"][present]
    linked = child if root is None else np.append(child, np.uint64(root))
    if not np.array_equal(np.sort(linked), labels):
        return False
    at = np.searchsorted(labels, child)           # each child's own row
    if root is not None:
        top = np.searchsorted(labels, np.uint64(root))
        if pp[top] != 0 or depth[top] != 0:
            return False
    return bool(np.all(pp[at] == 1) and np.all(parent[at] == labels[rows])
                and np.all(depth[at] == depth[rows] + 1))


def _build_blocks(blocks: dict[int, BlockNode], table: np.ndarray, alpha: int) -> None:
    """The blocks of a clean record table, every field a Python int."""
    slots = table["slots"]
    present = slots["present"] == 1
    rows, cols = np.nonzero(present)
    refs = list(map(ChildRef, slots["child"][present].tolist(),
                    slots["weight"][present].tolist()))
    empty = [None] * (alpha + 1)
    nodes = []
    for label, depth, kc, fanout, pp, parent, keys in zip(
            table["label"].tolist(), table["depth"].tolist(), table["key_count"].tolist(),
            table["fanout"].tolist(), table["parent_present"].tolist(),
            table["parent"].tolist(), table["keys"].tolist()):
        del keys[kc:]
        node = BlockNode(keys, empty[:], parent if pp else None, depth, fanout, label)
        nodes.append(node)
        blocks[label] = node
    for row, col, ref in zip(rows.tolist(), cols.tolist(), refs):
        nodes[row].children[col] = ref


def _check_links(blocks: dict[int, BlockNode], root: int | None) -> None:
    """One tree or a FormatError: the header links the root at depth 0, and every other
    block is linked once, by the block its parent field names, one level below (no cycle)."""
    linker = {} if root is None else {root: None}   # label -> label of the block linking it
    for label, node in blocks.items():
        for ref in node.children:
            if ref is not None:
                if ref.label in linker:
                    raise FormatError(f"block {ref.label}: linked again, from block {label}")
                linker[ref.label] = label
    for label, node in blocks.items():
        if label not in linker:
            raise FormatError(f"block {label}: linked from no block")
        parent = linker.pop(label)
        depth = 0 if parent is None else blocks[parent].depth + 1
        if node.parent != parent or node.depth != depth:
            raise FormatError(f"block {label}: parent {node.parent}, depth {node.depth}, "
                              f"want parent {parent}, depth {depth}")
    for label, parent in linker.items():
        where = "the header" if parent is None else f"block {parent}"
        raise FormatError(f"dangling label {label}, linked from {where}")
