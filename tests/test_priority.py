import random

import numpy as np
import pytest
from scipy import stats

from rbst.errors import InvalidPermutationError
from rbst.priority import (
    MASK64, ExplicitPriority, HashedPriority, rank_of, rank_of_array,
)


def test_deterministic():
    for key in (0, 1, 42, (1 << 64) - 1):
        assert HashedPriority(7).priority(key) == HashedPriority(7).priority(key)
    assert HashedPriority(7).priority(42) != HashedPriority(8).priority(42)


def test_distinct_keys_never_equal():
    seen = {}
    prio = HashedPriority(3)
    for key in range(2000):
        p = prio.priority(key)
        assert p not in seen
        seen[p] = key


@pytest.mark.parametrize("seed", [0, 1, MASK64, (1 << 64) + 12345])
def test_hashed_priority_matches_rank_of(seed):
    # HashedPriority.priority inlines the format-defining mix with the seed's
    # own mix precomputed; it must agree bit for bit with rank_of
    rng = random.Random(seed)
    keys = [0, 1, 1 << 63, MASK64] + [rng.getrandbits(64) for _ in range(500)]
    prio = HashedPriority(seed)
    assert prio.seed == seed & MASK64
    ranks = rank_of_array(np.array(keys, dtype=np.uint64), seed)
    for key, rank in zip(keys, ranks):
        assert prio.priority(key) == (int(rank), key)
        assert prio.priority(key)[0] == rank_of(key, seed & MASK64)


def test_explicit_identity_order():
    prio = ExplicitPriority({k: k for k in range(1, 7)})
    assert min(range(1, 7), key=prio.priority) == 1
    assert max(range(1, 7), key=prio.priority) == 6


def test_explicit_rejects_non_bijection():
    with pytest.raises(InvalidPermutationError):
        ExplicitPriority({10: 1, 20: 1})
    with pytest.raises(InvalidPermutationError):
        ExplicitPriority({10: 1, 20: 3})


def test_explicit_refuses_unranked_key():
    prio = ExplicitPriority({10: 1, 20: 2})
    with pytest.raises(InvalidPermutationError, match="key 30 "):
        prio.priority(30)
    with pytest.raises(InvalidPermutationError, match="key 30 "):
        prio.ranks(np.array([10, 30], dtype=np.uint64))


def test_vectorized_matches_scalar():
    keys = np.array([0, 1, 12345, (1 << 63) + 17, (1 << 64) - 1], dtype=np.uint64)
    for seed in (0, 9, 1 << 40):
        got = rank_of_array(keys, seed)
        for k, r in zip(keys, got):
            assert int(r) == rank_of(int(k), seed)


def test_rank_uniformity_chi_square():
    # ranks of keys 1..10^4 bucketed by high byte; all 100 fixed seeds pass
    # at p > 0.01, and the pooled counts pass as well
    keys = np.arange(1, 10_001, dtype=np.uint64)
    pooled = np.zeros(256, dtype=np.int64)
    passing = 0
    for seed in range(100):
        ranks = rank_of_array(keys, seed)
        buckets = np.bincount((ranks >> np.uint64(56)).astype(int), minlength=256)
        pooled += buckets
        if stats.chisquare(buckets)[1] > 0.01:
            passing += 1
    assert passing == 100
    assert stats.chisquare(pooled)[1] > 0.01
