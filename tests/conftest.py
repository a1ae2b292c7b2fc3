import random

import numpy as np
import pytest

from rbst import BlockStore, Params, Tree, insert
from rbst.priority import MASK64, HashedPriority


def sample_set(rng: random.Random, n: int, hi: int = 1 << 32) -> list[int]:
    return rng.sample(range(hi), n)


def build_by_inserts(keys, params: Params, seed: int = 0, prio=None) -> Tree:
    tree = Tree(BlockStore(params.alpha), params, prio or HashedPriority(seed))
    for k in keys:
        insert(tree, k)
    return tree


class CollidingPriority:
    """Four-bit ranks: many keys share one, and ranks do not follow key order."""

    seed = 0

    def priority(self, key: int) -> tuple[int, int]:
        return ((key * 0x9E3779B97F4A7C15) & MASK64) >> 60, key

    def ranks(self, keys: np.ndarray) -> np.ndarray:
        return (keys * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(60)


@pytest.fixture
def rng():
    return random.Random(12345)
