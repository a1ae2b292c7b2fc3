import hashlib
import random

import numpy as np
import pytest

from rbst import Params, check_invariants, delete, insert, metrics
from rbst.errors import ConfigError
from rbst.metrics import (
    ExperimentConfig, _distinct_sorted, bench_depth, bench_size, bench_updates,
    fast_build, receipts_to_csv, rows_to_csv, sample_keys,
)
from rbst.oracle import oracle_build
from rbst.priority import MASK64, ExplicitPriority, HashedPriority

from conftest import CollidingPriority


# (priority kind, rho, n) at alpha 4: no key, one key, one full block, and
# 31, 32 and 33 keys around `_NUMPY_FROM` (32), where the ranking switches
# from a per-key sort to one lexsort; rho 40 makes 33 keys a chain
EDGES = [pytest.param((kind, rho, n), id=f"{kind}-rho{rho}-n{n}")
         for kind in ("hashed", "explicit") for rho in (0, 1, 40)
         for n in (0, 1, 4, 31, 32, 33)]


@pytest.mark.parametrize("case", list(range(16)) + EDGES)
def test_fast_build_matches_oracle(case):
    if isinstance(case, tuple):
        kind, rho, n = case
        rng = np.random.default_rng(n)
        params = Params(4, rho)
        keys = sample_keys(rng, n)
        if kind == "hashed":
            prio = HashedPriority(n + rho)
        else:
            prio = ExplicitPriority.from_order(int(k) for k in rng.permutation(keys))
    else:
        rng = np.random.default_rng(case)
        alpha = [1, 2, 3, 5][case % 4]
        rho = [0, 1, 3, 40][case // 4]
        params = Params(alpha, rho)
        n = int(rng.integers(0, 400))
        keys = sample_keys(rng, n)
        prio = HashedPriority(case)
    tree = fast_build(keys, prio, params)
    assert tree.image() == oracle_build([int(k) for k in keys], prio, params)


def test_fast_build_deep_path_without_recursion():
    # ascending priorities at alpha 1, unbuffered: every block holds one key
    # and a right child only, so the tree is one path 3,000 blocks deep
    keys = list(range(1, 3001))
    prio = ExplicitPriority.from_order(keys)
    params = Params.unbuffered(1)
    tree = fast_build(np.array(keys, dtype=np.uint64), prio, params)
    assert tree.image() == oracle_build(keys, prio, params)


# sha256 of the image of each benchmark workload's starting tree at seed 101
# (n = 1e5, eps = 0.5), recorded while set-up still binned keys by one bisect
# each: nothing else compares a layout this large with anything but itself
WORKLOAD_IMAGES = [
    (4, 108, "c3f75016f8c523c409dc1de1576c62909f768387265c46d9df5095f0b1e70180"),
    (16, 108, "a3d55e993cc460e8f416f94b03bcd296c49fa45e3bab1fa97ae1c3691e667dec"),
    (4, 2, "a5ac609102966e4489fc9d904c9978abed17f190334fa471c58e99abf7170d99"),
]


@pytest.mark.parametrize("alpha,c_rho,digest", WORKLOAD_IMAGES)
def test_workload_starting_images_are_pinned(alpha, c_rho, digest):
    keys = sample_keys(np.random.default_rng(101), 100_000)
    tree = fast_build(keys, HashedPriority(101), Params.of(alpha, 0.5, c_rho))
    assert hashlib.sha256(tree.image()).hexdigest() == digest


@pytest.mark.parametrize("alpha,rho", [(2, 4), (4, 16), (4, 864), (16, 3456)])
def test_rank_ties_break_by_key(alpha, rho):
    # the numpy rankings (set-up's and the checker's) must order tied ranks
    # by key, as the oracle's (rank, key) tuples do
    keys = sample_keys(np.random.default_rng(alpha * rho), 3000)
    prio, params = CollidingPriority(), Params(alpha, rho)
    tree = fast_build(keys, prio, params)
    assert tree.image() == oracle_build(keys.tolist(), prio, params)
    report = check_invariants(tree)
    assert report.ok, report.violations[:3]


@pytest.mark.parametrize("alpha,rho", [(2, 4), (4, 16), (3, 0), (2, 40)])
def test_updates_under_tied_ranks(alpha, rho):
    # an update ranks new arrays, rebuilt sections and re-waved chains in
    # one `_by_priority` call each, so tied ranks must fall to the key there
    # too: after every insert and delete the image is the oracle's
    rng = random.Random(alpha * 100 + rho)
    keys = sorted(rng.sample(range(1 << 20), 64))
    prio, params = CollidingPriority(), Params(alpha, rho)
    tree = fast_build(np.array(keys, dtype=np.uint64), prio, params)
    for i in range(300):
        if i % 2:
            key = keys.pop(rng.randrange(len(keys)))
            delete(tree, key)
        else:
            key = next(k for k in iter(lambda: rng.randrange(1 << 20), None) if k not in keys)
            keys.append(key)
            insert(tree, key)
        assert tree.image() == oracle_build(keys, prio, params), (i, key)
    report = check_invariants(tree)
    assert report.ok, report.violations[:3]


def test_sample_keys_distinct_sorted():
    rng = np.random.default_rng(5)
    keys = sample_keys(rng, 5000)
    assert len(keys) == 5000
    assert len(np.unique(keys)) == 5000
    assert (np.diff(keys.astype(object)) > 0).all()


def _sample_keys_by_unique(rng, n):
    # the np.unique formulation of sample_keys, draw for draw
    keys = np.unique(rng.integers(0, 1 << 63, size=n + max(16, n // 256), dtype=np.uint64))
    while len(keys) < n:
        extra = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        keys = np.unique(np.concatenate([keys, extra]))
    return keys[:n]


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [0, 1, 16, 5000])
def test_sample_keys_matches_unique_reference(seed, n):
    got = sample_keys(np.random.default_rng(seed), n)
    want = _sample_keys_by_unique(np.random.default_rng(seed), n)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)


class _TinyRange:
    """A generator whose `integers` draws from [low, low + span): draws repeat."""

    def __init__(self, seed, span):
        self._rng = np.random.default_rng(seed)
        self._span = span
        self.calls = 0

    def integers(self, low, high, size, dtype):
        self.calls += 1
        return self._rng.integers(low, low + self._span, size=size, dtype=dtype)


@pytest.mark.parametrize("seed", range(5))
def test_sample_keys_refill_matches_unique_reference(seed):
    # 56 draws from 48 values leave fewer than 40 distinct, so the refill runs
    rng = _TinyRange(seed, 48)
    got = sample_keys(rng, 40)
    assert rng.calls > 1
    want = _sample_keys_by_unique(_TinyRange(seed, 48), 40)
    assert np.array_equal(got, want)
    assert len(got) == 40


@pytest.mark.parametrize("values", [[], [7], [7, 7], [9, 3], [5] * 6,
                                    [MASK64, 3, 0, MASK64, 3, 1 << 63, 0, 2]],
                         ids=["empty", "one", "two-equal", "two", "all-equal", "ends"])
def test_distinct_sorted_matches_unique(values):
    arr = np.array(values, dtype=np.uint64)
    got = _distinct_sorted(arr)
    assert got.dtype == np.uint64
    assert np.array_equal(got, np.unique(arr))
    assert np.array_equal(arr, np.array(values, dtype=np.uint64))  # input untouched


@pytest.mark.parametrize("kind", ["hashed", "explicit"])
@pytest.mark.parametrize("n", [0, 1, 2, 31, 32, 33, 300])
@pytest.mark.parametrize("form", ["list", "array"])
def test_fast_build_shuffled_duplicates_match_oracle(kind, n, form):
    # any order, duplicates dropped: the tree of the distinct keys, on both
    # sides of `_NUMPY_FROM` (32); rho 40 makes 33 keys a chain
    rng = np.random.default_rng(1000 + n)
    keys = sample_keys(rng, n)
    given = np.concatenate([keys, keys[:max(1, n // 2)], keys[-1:]])
    rng.shuffle(given)
    if form == "list":
        given = given.tolist()
    prio = (HashedPriority(n) if kind == "hashed"
            else ExplicitPriority.from_order(int(k) for k in rng.permutation(keys)))
    for params in (Params(4, 1), Params(4, 40)):
        tree = fast_build(given, prio, params)
        assert tree.n == n
        assert tree.image() == oracle_build(keys.tolist(), prio, params)


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[100], trials=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[0])
    cfg = ExperimentConfig(alphas=[4], eps_list=[0.5], ns=[2], trials=1)
    with pytest.raises(ConfigError):
        bench_depth(cfg)


@pytest.mark.parametrize("change", [
    pytest.param({"searches": 0}, id="searches-0"),
    pytest.param({"searches": -3}, id="searches-neg3"),
    pytest.param({"churn_ops": 0}, id="churn_ops-0"),
    pytest.param({"ranges": -1}, id="ranges-neg1"),
    pytest.param({"alphas": []}, id="no-alphas"),
    pytest.param({"eps_list": []}, id="no-eps"),
    pytest.param({"ns": []}, id="no-ns"),
    pytest.param({"eps_list": [0.0]}, id="eps-0"),
    pytest.param({"eps_list": [0.5, 0.6]}, id="eps-0.6"),
    pytest.param({"eps_list": [float("nan")]}, id="eps-nan"),
    pytest.param({"eps_list": [5.0], "no_buffering": True}, id="unbuffered-eps-5"),
])
def test_config_refuses_a_degenerate_bench(change):
    with pytest.raises(ConfigError):
        ExperimentConfig(**{"alphas": [2], "eps_list": [0.5], "ns": [100], **change})


def _no_build(*_args, **_kwargs):
    raise AssertionError("a trial ran before the grid was checked")


@pytest.mark.parametrize("bench", [bench_depth, bench_size, bench_updates])
def test_bad_grid_is_refused_before_the_first_trial(monkeypatch, bench):
    # the grid's last configuration is the bad one
    monkeypatch.setattr(metrics, "fast_build", _no_build)
    cfg = ExperimentConfig(alphas=[2, 4], eps_list=[0.5], ns=[20000, 3], trials=3)
    with pytest.raises(ConfigError, match="n=3 below alpha=4"):
        bench(cfg)


def test_grid_is_the_run_order():
    cfg = ExperimentConfig(alphas=[4, 2], eps_list=[0.5, 0.25], ns=[9, 4], c_rho=1)
    assert cfg.grid() == [(a, e, Params.of(a, e, 1)) for a in (4, 2) for e in (0.5, 0.25)]


def test_config_accepts_the_smallest_bench():
    ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[1], trials=1, searches=1,
                     ranges=0, churn_ops=1, no_buffering=True)


def test_bench_size_rows_and_determinism():
    cfg = ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[500], trials=3,
                           seed_base=9)
    rows1 = bench_size(cfg)
    rows2 = bench_size(cfg)
    assert rows_to_csv(rows1) == rows_to_csv(rows2)
    metrics = {r.metric for r in rows1}
    assert {"nonfull_blocks", "total_blocks"} <= metrics
    # n < alpha + beta: no load-factor row at this size
    assert "load_factor" not in metrics
    assert all(r.passed for r in rows1)


def test_bench_depth_small():
    cfg = ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[300], trials=2,
                           seed_base=1, searches=50, ranges=20)
    rows = bench_depth(cfg)
    prim = next(r for r in rows if r.metric == "primary_visits")
    assert prim.passed and prim.mean <= prim.bound
    assert any(r.metric == "secondary_visits" for r in rows)
    rr = next(r for r in rows if r.metric == "range_report_read_constant")
    assert rr.mean > 0 and rr.mean < 100


def test_bench_depth_trend_monotone():
    # growing n never shrinks the mean primary depth (beyond noise)
    cfg = ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[2000, 16000, 128000],
                           trials=4, seed_base=3, searches=200, ranges=0)
    rows = [r for r in bench_depth(cfg) if r.metric == "primary_visits"]
    rows.sort(key=lambda r: r.n)
    means = [r.mean for r in rows]
    assert all(b >= a - 0.25 for a, b in zip(means, means[1:])), means
    assert means[-1] > means[0]


def test_bench_updates_small():
    cfg = ExperimentConfig(alphas=[4], eps_list=[0.5], ns=[200, 400], trials=2,
                           seed_base=2, churn_ops=20)
    rows, receipts = bench_updates(cfg, collect_receipts=True)
    audit = [r for r in rows if r.metric == "audit_violations"]
    assert audit and all(r.mean == 0 for r in audit)
    ratio = [r for r in rows if r.metric == "writes_flatness_ratio"]
    assert len(ratio) == 1
    csv = receipts_to_csv(receipts)
    assert csv.splitlines()[0] == "m,m_prime,reads,writes,d_prime"
    assert len(csv.splitlines()) == 1 + 2 * 2 * 20


def test_csv_format():
    cfg = ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[64], trials=2)
    csv = rows_to_csv(bench_size(cfg))
    header = csv.splitlines()[0]
    assert header == "experiment,alpha,eps,rho,n,trials,metric,mean,stddev,bound,pass"
    for line in csv.splitlines()[1:]:
        assert len(line.split(",")) == 11
