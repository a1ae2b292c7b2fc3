"""Deterministic key priorities.

The tree shape is a pure function of (key set, seed, parameters), so the
random insertion order is realized as a keyed 64-bit mixing function: each
key gets a pseudorandom rank, and ties (which require a hash collision)
are broken by the key itself.  The mixing function is part of the image
format: format version 1 means exactly the splitmix64 construction below.
`HashedPriority.priority`, the hot path, inlines that mix with the seed's
own splitmix64 precomputed; `tests/test_priority.py` pins it to `rank_of`.

For exact enumerations an explicit priority source assigns ranks from a
given bijection onto {1..n}, so drivers can iterate every permutation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InvalidPermutationError

MASK64 = (1 << 64) - 1

_PHI = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(z: int) -> int:
    z = (z + _PHI) & MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def rank_of(key: int, seed: int) -> int:
    """64-bit pseudorandom rank of a key under a seed."""
    return _splitmix64(key ^ _splitmix64(seed & MASK64))


def rank_of_array(keys: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized rank_of over a uint64 array (bit-identical to the scalar)."""
    with np.errstate(over="ignore"):
        z = keys.astype(np.uint64) ^ np.uint64(_splitmix64(seed & MASK64))
        z = z + np.uint64(_PHI)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


class HashedPriority:
    """Priority source backed by the seeded mixing function."""

    def __init__(self, seed: int):
        # image headers persist the seed so a reloaded tree keeps its shape
        self.seed = seed & MASK64
        self._seed_mix = _splitmix64(self.seed)

    def priority(self, key: int) -> tuple[int, int]:
        # rank_of(key, self.seed), with the seed's mix hoisted out
        z = ((key ^ self._seed_mix) + _PHI) & MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return (z ^ (z >> 31), key)

    def ranks(self, keys: np.ndarray) -> np.ndarray:
        return rank_of_array(keys, self.seed)


class ExplicitPriority:
    """Priority source following a fixed rank assignment.

    The assignment must be a bijection from the keys onto {1..n}; this is
    what enumeration drivers use to iterate all permutations of a key set.
    """

    seed = 0

    def __init__(self, assignment: dict[int, int]):
        n = len(assignment)
        if set(assignment.values()) != set(range(1, n + 1)):
            raise InvalidPermutationError(
                f"rank assignment is not a bijection onto 1..{n}"
            )
        self._ranks = dict(assignment)

    @classmethod
    def from_order(cls, keys_in_priority_order: Iterable[int]) -> "ExplicitPriority":
        return cls({k: i + 1 for i, k in enumerate(keys_in_priority_order)})

    def priority(self, key: int) -> tuple[int, int]:
        if key not in self._ranks:
            raise InvalidPermutationError(f"key {key} has no rank in the assignment")
        return (self._ranks[key], key)

    def ranks(self, keys: np.ndarray) -> np.ndarray:
        return np.array([self.priority(int(k))[0] for k in keys], dtype=np.uint64)
