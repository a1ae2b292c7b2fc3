"""Monte Carlo experiment runners for the depth, size, and update bounds.

Each bench builds trees from sampled key sets, measures the quantity the
bound talks about, and emits one row per metric with the bound value and
a pass flag.  Upper bounds with explicit constants are asserted as-is;
order-of-growth claims get a fitted constant that is reported rather
than assumed.  All randomness derives from the configured seed base, so
identical configs produce identical CSV bytes.

Trees at bench scale are built by `fast_build`: one numpy ranking of the
key set into one uint64 array, then the explicit-stack layout routine that
partial rebuilds use (`update.layout_subtree`).  The reference builder in
`oracle.py` shares none of it, and the test suite checks the two for byte
equality.

Key sets are made distinct by `_distinct_sorted` (one sort and a mask of
unequal neighbours): numpy 2.4's hash-based `np.unique` gives the same
array but took ~35x as long on 1e5 uint64 keys (~45 ms against ~1.3 ms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import BlockNode, collector_paused
from .core import C_RHO, Params, Tree, check_invariants, range_report, search_path_profile
from .errors import ConfigError
from .priority import HashedPriority
from .store import BlockStore
from .update import UpdateReceipt, _ranked, delete, insert, layout_subtree

RECEIPT_COLUMNS = ("m", "m_prime", "reads", "writes", "d_prime")


@dataclass
class ExperimentConfig:
    alphas: list[int]
    eps_list: list[float]
    ns: list[int]
    trials: int = 30
    seed_base: int = 0
    c_rho: int = C_RHO
    no_buffering: bool = False
    searches: int = 1000          # unsuccessful searches per trial (depth bench)
    ranges: int = 100             # range queries per trial (depth bench)
    churn_ops: int = 100          # update operations per trial (update bench)

    def __post_init__(self):
        if not (self.alphas and self.eps_list and self.ns):
            raise ConfigError("alphas, eps_list and ns must each be non-empty")
        for name, least in (("trials", 1), ("searches", 1), ("ranges", 0), ("churn_ops", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if any(n <= 0 for n in self.ns):
            raise ConfigError("n values must be positive")
        for eps in self.eps_list:
            # the bounds use eps even when buffering is off
            if not 0 < eps <= 0.5:
                raise ConfigError(f"eps {eps} outside (0, 1/2]")

    def params_for(self, alpha: int, eps: float) -> Params:
        if self.no_buffering:
            return Params.unbuffered(alpha)
        return Params.of(alpha, eps, self.c_rho)

    def grid(self) -> list[tuple[int, float, Params]]:
        """(alpha, eps, params) of each configuration in run order, the whole
        grid checked first, so a bad one is refused before any trial runs."""
        grid = []
        for alpha in self.alphas:
            for eps in self.eps_list:
                grid.append((alpha, eps, self.params_for(alpha, eps)))
                low = [n for n in self.ns if n < alpha]
                if low:
                    raise ConfigError(f"n={low[0]} below alpha={alpha}")
        return grid


@dataclass
class BoundRow:
    experiment: str
    alpha: int
    eps: float
    rho: int
    n: int
    trials: int
    metric: str
    mean: float
    stddev: float
    bound: float
    kind: str                     # upper | lower | report (not serialized)
    half_ci: float                # 95% CI half-width (printed, not serialized)

    @property
    def passed(self) -> bool:
        # a report row is a measured constant, not a claim: it always passes
        if self.kind == "upper":
            return self.mean <= self.bound
        return self.kind == "report" or self.mean >= self.bound


def rows_to_csv(rows: list[BoundRow]) -> str:
    out = ["experiment,alpha,eps,rho,n,trials,metric,mean,stddev,bound,pass"]
    for r in rows:
        out.append(
            f"{r.experiment},{r.alpha},{r.eps:.6g},{r.rho},{r.n},{r.trials},"
            f"{r.metric},{r.mean:.8g},{r.stddev:.8g},{r.bound:.8g},"
            f"{'true' if r.passed else 'false'}"
        )
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# fast construction
# ---------------------------------------------------------------------------


def _distinct_sorted(keys: np.ndarray) -> np.ndarray:
    """`np.unique(keys)` for uint64 `keys`, by one sort instead of a hash table."""
    keys = np.sort(keys)
    fresh = np.empty(len(keys), dtype=bool)
    fresh[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
    return keys[fresh]


def sample_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct uniform keys, ascending.

    Repeats go by `_distinct_sorted`, not the far slower `np.unique`.
    """
    keys = _distinct_sorted(rng.integers(0, 1 << 63, size=n + max(16, n // 256),
                                         dtype=np.uint64))
    while len(keys) < n:
        extra = rng.integers(0, 1 << 63, size=n, dtype=np.uint64)
        keys = _distinct_sorted(np.concatenate([keys, extra]))
    return keys[:n]


def fast_build(keys: np.ndarray, prio, params: Params) -> Tree:
    """The tree over `keys` (any order, duplicates dropped); same image as oracle_build.

    Duplicates go by `_distinct_sorted`, not the far slower `np.unique`. The
    keys are ranked once by `_ranked` into one uint64 array and laid out by
    `layout_subtree`, the routine a partial rebuild uses; each emitted block
    is stored by its label.  The layout boxes a block's ints as it emits the
    block, so they lie next to it in memory: ints boxed in priority order
    over the whole set made successor about a third slower on the
    chain-heavy trees (alpha 4 and 16 at c_rho 108, n = 1e5).  It runs with
    the cyclic collector paused (`blocks.collector_paused`), as a load's
    block build does: the blocks can form no cycle, and the collector would
    otherwise rescan the growing heap many times over.
    """
    keys = _distinct_sorted(np.asarray(keys, dtype=np.uint64))
    n = len(keys)
    store = BlockStore(params.alpha)
    tree = Tree(store, params, prio, None, n)
    if n == 0:
        return tree
    blocks = store.blocks

    def emit(node: BlockNode) -> None:
        blocks[node.label] = node

    pool = _ranked(prio, keys)
    with collector_paused():
        layout_subtree(pool, params, None, 0, emit)
    tree.root = int(pool[0])
    return tree


def _assert_clean(tree: Tree, what: str) -> None:
    report = check_invariants(tree)
    if not report.ok:
        raise AssertionError(f"{what}: invariant check failed: {report.violations[:3]}")


def _agg(values: list[float]) -> tuple[float, float, float]:
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    std = float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
    half_ci = 1.96 * std / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
    return mean, std, half_ci


def _row(cfg: ExperimentConfig, experiment: str, eps: float, params: Params, n: int,
         metric: str, values: list[float], bound: float | None = None,
         kind: str = "report") -> BoundRow:
    """One row over the per-trial `values`; a single value is a constant (stddev 0).
    A `report` row restates its mean as its bound."""
    mean, std, half_ci = _agg(values)
    return BoundRow(experiment, params.alpha, eps, params.rho, n, cfg.trials, metric,
                    mean, std, mean if kind == "report" else bound, kind, half_ci)


# ---------------------------------------------------------------------------
# benches
# ---------------------------------------------------------------------------


def bench_depth(cfg: ExperimentConfig) -> list[BoundRow]:
    """Unsuccessful-search block visits and range-report reads vs their bounds."""
    rows: list[BoundRow] = []
    for alpha, eps, params in cfg.grid():
        for n in cfg.ns:
            prim_means, sec_means, range_consts = [], [], []
            for trial in range(cfg.trials):
                seed = cfg.seed_base + trial
                rng = np.random.default_rng(seed)
                keys = sample_keys(rng, n)
                tree = fast_build(keys, HashedPriority(seed), params)
                key_set = set(keys.tolist())
                prim = sec = 0
                done = 0
                while done < cfg.searches:
                    q = int(rng.integers(0, 1 << 63, dtype=np.uint64))
                    if q in key_set:
                        continue
                    p, s = search_path_profile(tree, q)
                    prim += p
                    sec += s
                    done += 1
                prim_means.append(prim / cfg.searches)
                sec_means.append(sec / cfg.searches)
                if cfg.ranges:
                    range_consts.append(_range_read_constant(tree, keys, rng, cfg.ranges, eps))
                _assert_clean(tree, f"bench_depth alpha={alpha} n={n} trial={trial}")
            bound = 5 * math.log(n) / math.log(alpha) if alpha > 1 else float("inf")
            rows.append(_row(cfg, "depth", eps, params, n, "primary_visits",
                             prim_means, bound, "upper"))
            rows.append(_row(cfg, "depth", eps, params, n, "secondary_visits", sec_means))
            rows.append(_row(cfg, "depth", eps, params, n, "secondary_visit_constant",
                             [_agg(sec_means)[0] * eps]))
            if range_consts:
                rows.append(_row(cfg, "depth", eps, params, n, "range_report_read_constant",
                                 range_consts))
    return rows


def _range_read_constant(tree: Tree, keys: np.ndarray, rng, ranges: int,
                         eps: float) -> float:
    """Mean of reads / (1/eps + k/alpha + log_alpha n) over random ranges."""
    alpha, n = tree.params.alpha, tree.n
    consts = []
    for _ in range(ranges):
        i = int(rng.integers(0, len(keys)))
        span = int(rng.integers(1, max(2, len(keys) // 8)))
        lo = int(keys[i])
        hi = int(keys[min(i + span, len(keys) - 1)])
        before = tree.store.stats().reads
        got = range_report(tree, lo, hi)
        reads = tree.store.stats().reads - before
        denom = 1 / eps + len(got) / alpha + (math.log(n) / math.log(alpha) if alpha > 1 else 0)
        consts.append(reads / denom)
    return float(np.mean(consts))


def bench_size(cfg: ExperimentConfig) -> list[BoundRow]:
    """Non-full blocks, total blocks, and load factor against the size bounds."""
    rows: list[BoundRow] = []
    for alpha, eps, params in cfg.grid():
        for n in cfg.ns:
            nonfull, total, load = [], [], []
            for trial in range(cfg.trials):
                seed = cfg.seed_base + trial
                rng = np.random.default_rng(seed)
                keys = sample_keys(rng, n)
                tree = fast_build(keys, HashedPriority(seed), params)
                blocks = tree.store.blocks.values()
                s = len(tree.store.blocks)
                e = sum(1 for b in blocks if len(b.keys) < alpha)
                nonfull.append(e)
                total.append(s)
                load.append(n / (alpha * s))
                _assert_clean(tree, f"bench_size alpha={alpha} n={n} trial={trial}")
            rows.append(_row(cfg, "size", eps, params, n, "nonfull_blocks",
                             nonfull, max(eps * n / alpha, 1.0), "upper"))
            rows.append(_row(cfg, "size", eps, params, n, "total_blocks",
                             total, (1 + eps) * n / alpha, "upper"))
            if n >= alpha + params.beta:
                rows.append(_row(cfg, "size", eps, params, n, "load_factor",
                                 load, 1 - eps, "lower"))
    return rows


def bench_updates(cfg: ExperimentConfig, collect_receipts: bool = False):
    """Writes per update at steady state, per-op audit, and flatness across n.

    Returns (rows, receipts); receipts is empty unless collect_receipts.
    """
    rows: list[BoundRow] = []
    receipts: list[UpdateReceipt] = []
    for alpha, eps, params in cfg.grid():
        means_by_n: dict[int, float] = {}
        for n in cfg.ns:
            writes_means, audit_fails = [], 0
            for trial in range(cfg.trials):
                seed = cfg.seed_base + trial
                rng = np.random.default_rng(seed)
                keys = sample_keys(rng, n + cfg.churn_ops)
                pool = keys.tolist()
                rng.shuffle(pool)
                present, fresh = pool[:n], pool[n:]
                tree = fast_build(np.array(present, dtype=np.uint64),
                                  HashedPriority(seed), params)
                writes = 0
                for op_i in range(cfg.churn_ops):
                    if op_i % 2 == 0 and fresh:
                        k = fresh.pop()
                        r = insert(tree, k)
                        present.append(k)
                    else:
                        idx = int(rng.integers(0, len(present)))
                        k = present.pop(idx)
                        r = delete(tree, k)
                        fresh.append(k)
                    writes += r.writes
                    if r.writes > 4 * (r.m + r.m_prime) + 4:
                        audit_fails += 1
                    if r.reads > 4 * (r.m_prime + r.d_prime * r.m) + 4:
                        audit_fails += 1
                    if collect_receipts:
                        receipts.append(r)
                writes_means.append(writes / cfg.churn_ops)
                _assert_clean(tree, f"bench_updates alpha={alpha} n={n} trial={trial}")
            mean = _agg(writes_means)[0]
            means_by_n[n] = mean
            expr = 1 / eps + math.log(n) / math.log(alpha) / alpha if alpha > 1 else 1 / eps
            rows.append(_row(cfg, "updates", eps, params, n, "writes_per_update", writes_means))
            rows.append(_row(cfg, "updates", eps, params, n, "update_write_constant",
                             [mean / expr]))
            rows.append(_row(cfg, "updates", eps, params, n, "audit_violations",
                             [audit_fails], 0.0, "upper"))
        ns_sorted = sorted(means_by_n)
        for lo_n, hi_n in zip(ns_sorted, ns_sorted[1:]):
            rows.append(_row(cfg, "updates", eps, params, hi_n, "writes_flatness_ratio",
                             [means_by_n[hi_n] / means_by_n[lo_n]], 1.5, "upper"))
    return rows, receipts


def receipts_to_csv(receipts: list[UpdateReceipt]) -> str:
    out = [",".join(RECEIPT_COLUMNS)]
    for r in receipts:
        out.append(",".join(str(getattr(r, name)) for name in RECEIPT_COLUMNS))
    return "\n".join(out) + "\n"
