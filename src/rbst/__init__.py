"""Uniquely represented randomized block search trees over a simulated block store."""

from .blocks import BlockNode, ChildRef
from .core import (
    Params, Tree, check_invariants, fanout_bound, range_count, range_report,
    select_kth, successor,
)
from .oracle import oracle_build, oracle_tree, treap_reference
from .priority import ExplicitPriority, HashedPriority
from .store import BlockStore, ImageHeader, IoStats
from .update import UpdateReceipt, delete, insert

__all__ = [
    "BlockNode", "BlockStore", "ChildRef", "ExplicitPriority", "HashedPriority",
    "ImageHeader", "IoStats", "Params", "Tree", "UpdateReceipt",
    "check_invariants", "delete", "fanout_bound", "insert",
    "oracle_build", "oracle_tree", "range_count",
    "range_report", "select_kth", "successor", "treap_reference",
]
