"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single PASS line with the measured numbers when it
succeeds; statistical criteria report means with 95% confidence interval
half-widths.  Exact criteria compare bytes or rationals with no slack.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from rbst import Params, Tree, check_invariants, delete, insert
from rbst.metrics import ExperimentConfig, bench_depth, bench_size, bench_updates, fast_build, sample_keys
from rbst.oracle import (
    exact_expected_size, oracle_build, section_distribution_checks,
    section_tail_by_enumeration, section_tail_prob,
)
from rbst.priority import HashedPriority
from rbst.selfcheck import check_fault_injection, check_treap_degeneration


def _report(num: int, detail: str) -> None:
    print(f"\nACCEPTANCE {num} PASS: {detail}")


def test_criterion_1_unique_representation_exact():
    # >= 200 random cases over alpha in 1..4, rho in {1,2,4}, n <= 64:
    # arbitrary insert/delete churn ends byte-identical to a fresh build;
    # the invariant checker runs after every operation (criterion 9 tie-in)
    grid = [(a, r) for a in (1, 2, 3, 4) for r in (1, 2, 4)]
    cases = 204
    checked_ops = 0
    for case in range(cases):
        alpha, rho = grid[case % len(grid)]
        params = Params(alpha, rho)
        rng = random.Random(case * 77 + 1)
        n_target = rng.randrange(1, 65)
        tree = Tree.empty(params, seed=case)
        prio = tree.prio
        uni = rng.sample(range(1 << 30), n_target + n_target // 2 + 4)
        present = []
        ops = 0
        while ops < 2 * n_target:
            if present and (len(present) > n_target or rng.random() < 0.35):
                delete(tree, present.pop(rng.randrange(len(present))))
            else:
                k = uni.pop()
                present.append(k)
                insert(tree, k)
            ops += 1
            report = check_invariants(tree)
            assert report.ok, (case, report.violations[:3])
            checked_ops += 1
        got = tree.image()
        want = oracle_build(present, prio, params)
        assert got == want, f"case {case}: image differs from fresh build"
    _report(1, f"{cases} churn cases byte-identical to fresh builds; "
               f"invariants ok after all {checked_ops} operations")


def test_criterion_2_treap_degeneration_exact():
    cases = 200
    _, ok, detail = check_treap_degeneration(cases)
    assert ok, detail
    _report(2, f"{cases} trees with alpha=1, no buffering, isomorphic to the treap")


def test_criterion_3_expected_size_examples_exact():
    values = []
    for alpha, n in [(1, 2), (2, 4), (3, 6)]:
        s, _, _ = exact_expected_size(n, Params.unbuffered(alpha))
        want = 1 + Fraction(alpha + 1, 2)
        assert s == want, f"alpha={alpha}, n={n}: E[S]={s}, want {want}"
        values.append(f"E[S]({n},{alpha})={s}")
    _report(3, "exact enumeration: " + ", ".join(values))


def test_criterion_4_combinatorial_lemmas_exact():
    # exchange equality and the tail closed form over full composition
    # enumerations; the accumulative-probability brackets for every t
    tail_checks = 0
    for n in range(4, 13):
        for alpha in range(1, min(n, 6)):
            for t in range(0, n - alpha + 1):
                per_section = section_tail_by_enumeration(n, alpha, t)
                want = section_tail_prob(n, alpha, t)
                assert all(p == want for p in per_section), (n, alpha, t)
                tail_checks += 1
    bracket_checks = 0
    for n in range(1, 13):
        for m in range(2, 6):
            for t in range(0, n + 1):
                exact, lower, upper = section_distribution_checks(n, m, t)
                assert lower <= exact <= upper, (n, m, t)
                bracket_checks += 1
    _report(4, f"{tail_checks} exchange/tail equalities and "
               f"{bracket_checks} bracket inequalities hold exactly")


def test_criterion_5_size_bound_statistical():
    cfg = ExperimentConfig(alphas=[2], eps_list=[0.5], ns=[20_000], trials=30,
                           seed_base=50)
    rows = bench_size(cfg)
    by_metric = {r.metric: r for r in rows}
    nonfull = by_metric["nonfull_blocks"]
    total = by_metric["total_blocks"]
    load = by_metric["load_factor"]
    assert nonfull.mean <= 0.5 * 20_000 / 2, nonfull
    assert total.mean <= 1.5 * 20_000 / 2, total
    assert load.mean >= 0.5, load
    _report(5, f"alpha=2 eps=0.5 rho=432 n=20000, 30 seeds: "
               f"nonfull {nonfull.mean:.1f}±{nonfull.half_ci:.1f} <= 5000, "
               f"total {total.mean:.1f}±{total.half_ci:.1f} <= 15000, "
               f"load {load.mean:.4f}±{load.half_ci:.4f} >= 0.5")


@pytest.mark.slow
def test_criterion_6_depth_bound_statistical():
    cfg = ExperimentConfig(alphas=[2, 4, 8], eps_list=[0.5], ns=[100_000],
                           trials=30, seed_base=60, searches=1000)
    rows = bench_depth(cfg)
    lines = []
    for alpha in (2, 4, 8):
        prim = next(r for r in rows if r.alpha == alpha and r.metric == "primary_visits")
        sec = next(r for r in rows if r.alpha == alpha and r.metric == "secondary_visits")
        bound = 5 * math.log(100_000) / math.log(alpha)
        assert prim.mean <= bound, (alpha, prim.mean, bound)
        c_fit = sec.mean * 0.5
        lines.append(f"a={alpha}: primary {prim.mean:.2f}±{prim.half_ci:.2f} "
                     f"<= {bound:.1f}, secondary {sec.mean:.1f} (C={c_fit:.1f})")
    _report(6, "n=1e5, 30 seeds, 1000 searches each; " + "; ".join(lines))


@pytest.mark.slow
def test_criterion_7_update_write_efficiency():
    cfg = ExperimentConfig(alphas=[16], eps_list=[0.5], ns=[10_000, 100_000],
                           trials=30, seed_base=70, churn_ops=100)
    rows, receipts = bench_updates(cfg, collect_receipts=True)
    for r in receipts:
        assert r.writes <= 4 * (r.m + r.m_prime) + 4, r
        assert r.reads <= 4 * (r.m_prime + r.d_prime * r.m) + 4, r
    audits = [r for r in rows if r.metric == "audit_violations"]
    assert all(a.mean == 0 for a in audits)
    ratio = next(r for r in rows if r.metric == "writes_flatness_ratio")
    assert ratio.mean <= 1.5, ratio
    w = {r.n: r for r in rows if r.metric == "writes_per_update"}
    _report(7, f"alpha=16 eps=0.5: {len(receipts)} ops audited against the "
               f"I/O contract; writes/op {w[10_000].mean:.1f} (n=1e4) -> "
               f"{w[100_000].mean:.1f} (n=1e5), ratio {ratio.mean:.3f} <= 1.5")


def test_criterion_8_constant_main_memory():
    params = Params.of(4, 0.5)

    def peak_for(n: int) -> int:
        rng = np.random.default_rng(80)
        keys = sample_keys(rng, n + 200)
        pool = [int(k) for k in keys]
        present, fresh = pool[:n], pool[n:]
        tree = fast_build(np.array(present, dtype=np.uint64), HashedPriority(80), params)
        tree.store.reset_stats()
        for i in range(200):
            if i % 2 == 0:
                k = fresh.pop()
                insert(tree, k)
                present.append(k)
            else:
                delete(tree, present.pop(int(rng.integers(0, len(present)))))
        assert tree.store.stats().cur_pinned == 0
        return tree.store.stats().peak_pinned

    small, large = peak_for(1000), peak_for(100_000)
    assert small == large, (small, large)
    _report(8, f"peak pinned blocks during 200 updates: {small} at n=1e3, "
               f"{large} at n=1e5 (exactly equal)")


def test_criterion_9_invariant_checker_and_faults():
    # clean after every operation is exercised in criterion 1 and by the
    # bench helpers; here the checker must name each injected fault
    _, ok, detail = check_fault_injection()
    assert ok, detail
    _report(9, "corrupted weight, unsorted keys, and wrong fan-out each "
               "produce a violation naming the block")
