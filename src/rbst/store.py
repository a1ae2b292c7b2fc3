"""Simulated block-addressable external memory with exact I/O accounting.

Two regions share one store: the uniquely-represented region, addressed
by block label, and an auxiliary scratch region addressed by opaque
handles, used to stage rebuilds before an atomic commit.  Every block
access goes through read/write calls that bump the counters; reads pin
the block until the caller releases it, so peak_pinned measures how many
blocks an algorithm really holds in main memory at once.

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
    blocks        block_count x (u64 label + fixed-size record), label ascending

Only the UR region is serialized; auxiliary blocks never reach an image.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .blocks import BlockNode, pack_record, record_size, unpack_record
from .errors import AccountingError, CorruptionError, FormatError, InvalidBlockError, NotFoundError

MAGIC = b"RBST"
VERSION = 1
ALPHA_MAX = 65534              # fan-out alpha + 1 fits a block's u16 field
RHO_MAX = 0xFFFFFFFF          # rho is a u32 header field

_HEADER = struct.Struct("<4sHHIQQBQQ")


@dataclass(frozen=True)
class AuxHandle:
    id: int


@dataclass
class IoStats:
    reads: int = 0
    writes: int = 0
    allocs: int = 0
    frees: int = 0
    cur_pinned: int = 0
    peak_pinned: int = 0

    def snapshot(self) -> "IoStats":
        return IoStats(self.reads, self.writes, self.allocs, self.frees,
                       self.cur_pinned, self.peak_pinned)


@dataclass(frozen=True)
class ImageHeader:
    alpha: int
    rho: int          # 0 means buffering disabled
    seed: int
    n: int
    root: int | None


class BlockStore:
    """Label-addressed UR region plus handle-addressed auxiliary region."""

    def __init__(self, alpha: int):
        self.alpha = alpha
        self.blocks: dict[int, BlockNode] = {}
        self.aux: dict[int, BlockNode] = {}
        self._stats = IoStats()
        self._next_handle = 1
        self._pins: dict[object, int] = {}

    # -- access -------------------------------------------------------

    def read(self, ref) -> BlockNode:
        """Counted read; pins the block until release(ref)."""
        node = self._lookup(ref)
        stats, pins = self._stats, self._pins
        stats.reads += 1
        # an AuxHandle never equals an int label, so the ref is the pin key
        pins[ref] = pins.get(ref, 0) + 1
        stats.cur_pinned += 1
        if stats.cur_pinned > stats.peak_pinned:
            stats.peak_pinned = stats.cur_pinned
        return node

    def peek(self, ref) -> BlockNode:
        """Uncounted access for the invariant checker, the oracle and tests only.

        No update calls it: every block an update touches goes through read.
        """
        return self._lookup(ref)

    def release(self, ref) -> None:
        pins = self._pins
        cnt = pins.get(ref, 0)
        if cnt <= 0:
            raise AccountingError(f"release of unpinned block {ref!r}")
        if cnt == 1:
            del pins[ref]
        else:
            pins[ref] = cnt - 1
        self._stats.cur_pinned -= 1

    def _lookup(self, ref) -> BlockNode:
        if isinstance(ref, AuxHandle):
            try:
                return self.aux[ref.id]
            except KeyError:
                raise NotFoundError(f"auxiliary handle {ref.id} not found") from None
        try:
            return self.blocks[ref]
        except KeyError:
            raise NotFoundError(f"block label {ref} not found") from None

    # -- mutation -----------------------------------------------------

    def write_aux(self, node: BlockNode) -> AuxHandle:
        bad = node.local_violation(self.alpha)
        if bad is not None:
            raise InvalidBlockError(bad)
        handle = AuxHandle(self._next_handle)
        self._next_handle += 1
        self.aux[handle.id] = node
        self._stats.writes += 1
        self._stats.allocs += 1
        return handle

    def rewrite(self, label: int, node: BlockNode) -> None:
        """In-place overwrite of a UR block (same label), one counted write."""
        if label not in self.blocks:
            raise NotFoundError(f"block label {label} not found")
        if node.label != label:
            raise CorruptionError(f"rewrite of {label} with a block labelled {node.label}")
        bad = node.local_violation(self.alpha)
        if bad is not None:
            raise InvalidBlockError(bad)
        self.blocks[label] = node
        self._stats.writes += 1

    def commit_rebuild(self, obsolete, staged) -> None:
        """Atomically free obsolete UR blocks and promote staged aux blocks."""
        obsolete = set(obsolete)
        staged = list(staged)
        for label in obsolete:
            if label not in self.blocks:
                raise NotFoundError(f"obsolete label {label} not found")
        incoming: dict[int, BlockNode] = {}
        for handle in staged:
            node = self.aux.get(handle.id)
            if node is None:
                raise NotFoundError(f"auxiliary handle {handle.id} not found")
            if node.label in incoming:
                raise CorruptionError(f"two staged blocks share label {node.label}")
            incoming[node.label] = node
        for label in incoming:
            if label in self.blocks and label not in obsolete:
                raise CorruptionError(
                    f"staged block label {label} collides with a surviving block"
                )
        for label in obsolete:
            del self.blocks[label]          # zeroed: nothing of the old block survives
        self._stats.frees += len(obsolete)
        for handle in staged:
            node = self.aux.pop(handle.id)
            self.blocks[node.label] = node
            self._stats.writes += 1

    # -- stats --------------------------------------------------------

    def stats(self) -> IoStats:
        return self._stats.snapshot()

    def reset_stats(self) -> None:
        cur = self._stats.cur_pinned
        self._stats = IoStats(cur_pinned=cur, peak_pinned=cur)

    # -- images -------------------------------------------------------

    def image_bytes(self, header: ImageHeader) -> bytes:
        items = sorted(self.blocks.items())
        out = [
            _HEADER.pack(
                MAGIC, VERSION, header.alpha, header.rho, header.seed, header.n,
                1 if header.root is not None else 0,
                header.root if header.root is not None else 0,
                len(items),
            )
        ]
        for label, node in items:
            out.append(struct.pack("<Q", label))
            out.append(pack_record(node, self.alpha))
        return b"".join(out)


def parse_image(data: bytes) -> tuple[BlockStore, ImageHeader]:
    if len(data) < _HEADER.size:
        raise FormatError("image shorter than header")
    magic, version, alpha, rho, seed, n, root_present, root, count = _HEADER.unpack(
        data[:_HEADER.size]
    )
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if not 1 <= alpha <= ALPHA_MAX:
        raise FormatError(f"bad alpha {alpha}: outside 1..{ALPHA_MAX}")
    rec = record_size(alpha)
    body = data[_HEADER.size:]
    if len(body) != count * (8 + rec):
        raise FormatError(
            f"truncated image: {len(body)} body bytes for {count} blocks of {8 + rec}"
        )
    store = BlockStore(alpha)
    prev_label = -1
    off = 0
    for _ in range(count):
        (label,) = struct.unpack_from("<Q", body, off)
        if label <= prev_label:
            raise FormatError(f"block labels not ascending at {label}")
        prev_label = label
        node = unpack_record(body[off + 8: off + 8 + rec], alpha, label)
        store.blocks[label] = node
        off += 8 + rec
    header = ImageHeader(alpha, rho, seed, n, root if root_present else None)
    if header.root is None and n > 0:
        raise FormatError("missing root for a non-empty image")
    if header.root is not None and header.root not in store.blocks:
        raise FormatError(f"dangling root label {header.root}")
    for label, node in store.blocks.items():
        for child in node.children:
            if child is not None and child.label not in store.blocks:
                raise FormatError(f"dangling child label {child.label} in block {label}")
    return store, header
