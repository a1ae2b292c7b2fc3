import random

import pytest

from rbst import BlockStore, Params, Tree, insert
from rbst.priority import HashedPriority


def sample_set(rng: random.Random, n: int, hi: int = 1 << 32) -> list[int]:
    return rng.sample(range(hi), n)


def build_by_inserts(keys, params: Params, seed: int = 0, prio=None) -> Tree:
    tree = Tree(BlockStore(params.alpha), params, prio or HashedPriority(seed))
    for k in keys:
        insert(tree, k)
    return tree


@pytest.fixture
def rng():
    return random.Random(12345)
