#!/usr/bin/env python3
"""rbst benchmark: one workload per process, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --sweep --seed N

The benchmark imports `rbst` from the `src/` next to this directory and
drives its public API in-process.  It builds the starting tree (n=1e5;
three of them on churn-a16), then issues the workload's seeded operations
one at a time for `--seconds` seconds, timing each call from outside and
taking exact I/O counts from `IoStats` and `UpdateReceipt`.  Every answer
is checked against a sorted list; at the end each tree's image must equal
a fresh `fast_build` of its final key set, survive a parse/re-pack round
trip, and pass the checker.

--trace 0 prints the end-to-end metrics, the gated times in units of a
reference kernel timed next to them (see pace.py) and the same times in
seconds beside them; --trace 1 runs the same op stream
with span wrappers installed (see tracing.py), replays it untraced to
confirm identical I/O counts, receipts and image bytes, and prints the
per-layer metrics.  The last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--sweep runs the c_rho I/O sweep (alpha=16, eps=0.5, n=1e5; counts only).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from bisect import bisect_left, insort
from pathlib import Path

import numpy as np

from pace import Pace
from tracing import Tracer
from workloads import (N_KEYS, QUERY_KINDS, UPDATE_KINDS, WORKLOADS, Workload, expected,
                       op_stream, tree_seed)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPEATS = 7
ROUNDS = 8            # image and check repeats, spread over the measuring time

CASES = ("list-new-block", "list-insert", "list-delete", "fanout-increase",
         "fanout-decrease", "in-array-active", "in-array-inactive", "in-array-delete")
REBUILD_PASSES = ("run_anchor", "diff_sections", "build_fresh", "assemble",
                  "build_chain", "top_pass", "bin_pass", "count_pass")
CHAIN_PASSES = ("list_insert", "list_delete")
SWEEP_C_RHO = (108, 27, 8, 2)

# Per op the loop keeps (reads, writes, allocs, frees) from IoStats, and for
# an update these receipt fields after them; the traced and the untraced
# runs must agree on all of them.
RECEIPT_FIELDS = ("m", "m_prime", "staged", "freed", "rewritten", "reads", "writes",
                  "d_prime", "cases", "staged_labels", "freed_labels", "rewritten_labels")
COL = {name: 4 + i for i, name in enumerate(RECEIPT_FIELDS)}


def load_rbst():
    """Import rbst from this tree's src/, and refuse any other copy."""
    if not (SRC / "rbst" / "__init__.py").is_file():
        raise SystemExit(f"rbst sources not found: {SRC / 'rbst'} is missing")
    sys.path.insert(0, str(SRC))
    import rbst
    import rbst.metrics  # noqa: F401  (not imported by the package itself)
    if SRC not in Path(rbst.__file__).resolve().parents:
        raise SystemExit(f"imported rbst from {rbst.__file__}, not from {SRC}")
    return rbst


def source_identity(rbst) -> dict:
    """Where rbst came from: its path, the git commit if any, a digest of its sources."""
    digest = hashlib.sha256()
    pkg = Path(rbst.__file__).resolve().parent
    for path in sorted(pkg.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"rbst_file": str(Path(rbst.__file__).resolve()),
            "git_commit": git_commit(ROOT), "src_sha256": digest.hexdigest()}


def git_commit(root: Path) -> str | None:
    git = root / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = git / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def rank_index(n: int, q: float) -> int:
    """0-based index of quantile q (0..1) among n sorted values, nearest-rank rule."""
    return min(n - 1, max(0, math.ceil(round(q * n, 6)) - 1))


def tail(values: list[float]) -> tuple[str, float, int]:
    """Highest listed percentile with at least ten samples beyond it."""
    vals = sorted(values)
    n = len(vals)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0):
        i = rank_index(n, pct / 100)
        if n - 1 - i >= 10:
            return f"p{pct:g}", vals[i], n
    return "max", vals[-1], n


def mean(total: float, count: int) -> float:
    return total / count if count else 0.0


class Loop:
    """One client issuing ops against one tree, timing each call from outside.

    With `ops` None the ops come from the workload's live seeded stream;
    otherwise the given ops are replayed.  Records every op, its latency,
    its exact I/O and receipt fields, and every failed or wrong answer.
    """

    def __init__(self, bench: "Bench", tree, keys, ops=None, tracer=None, pace=None):
        rb = bench.rbst
        self.call = {"successor": rb.successor, "range_report": rb.range_report,
                     "range_count": rb.range_count, "select_kth": rb.select_kth,
                     "insert": rb.insert, "delete": rb.delete}
        self.receipt_type = rb.UpdateReceipt
        self.bench = bench
        self.tree = tree
        self.window = bench.wl.count_window
        self.tracer = tracer
        self.pace = pace
        self.replay = ops is not None
        self.ref = [int(k) for k in keys]
        self.present = set(self.ref)
        self.stream = iter(ops) if self.replay else op_stream(
            bench.wl, bench.seed, self.ref, self.present)
        self.ops: list[tuple[str, tuple]] = []
        self.lat_ns: list[int] = []
        self.start_ns: list[int] = []
        self.io: list[tuple] = []           # per op, laid out as RECEIPT_FIELDS says
        # An untraced live run keeps them for the count window only, so that
        # its memory does not grow with the number of ops it gets through.
        self.keep_io = tracer is not None or self.replay
        self.failures: list[str] = []
        self.window_calls: dict[str, int] = {}
        self.window_peak_pinned = 0

    def ops_per_s(self) -> float:
        return len(self.lat_ns) / (sum(self.lat_ns) / 1e9)

    def run(self, seconds: float = 0.0) -> None:
        """Issue ops until `seconds` have passed and the count window is done.

        A replay issues all its remaining ops.  Stops at the first op that
        raises, since the tree's state is unknown after it.
        """
        tree, ref, present, call = self.tree, self.ref, self.present, self.call
        store = tree.store
        clock = time.perf_counter_ns
        gc.collect()
        t_end = time.perf_counter() + seconds
        for kind, args in self.stream:
            if self.pace is not None:
                self.pace.tick()
            self.ops.append((kind, args))
            before = store.stats()
            fn = call[kind]
            try:
                t0 = clock()
                got = fn(tree, *args)
                dt = clock() - t0
            except Exception as exc:  # noqa: BLE001  a raising op is a failed op
                self.failures.append(f"{kind}{args}: {type(exc).__name__}: {exc}")
                return
            after = store.stats()
            self.start_ns.append(t0)
            self.lat_ns.append(dt)
            io = (after.reads - before.reads, after.writes - before.writes,
                  after.allocs - before.allocs, after.frees - before.frees)
            if kind in UPDATE_KINDS:
                key = args[0]
                if kind == "insert":
                    insort(ref, key)
                    present.add(key)
                else:
                    ref.pop(bisect_left(ref, key))
                    present.discard(key)
                if (not isinstance(got, self.receipt_type) or got.op != kind
                        or got.key != key or tree.n != len(ref)):
                    self.failures.append(f"{kind}({key}): bad receipt or size {tree.n}")
                else:
                    io += tuple(getattr(got, name) for name in RECEIPT_FIELDS)
            elif got != expected(kind, args, ref):
                self.failures.append(f"{kind}{args}: wrong answer")
            if self.keep_io or len(self.io) < self.window:
                self.io.append(io)
            if len(self.ops) == self.window:
                self.window_peak_pinned = store.stats().peak_pinned
                if self.tracer is not None:
                    self.window_calls = self.tracer.calls("loop")
            if (not self.replay and len(self.ops) >= self.window
                    and time.perf_counter() >= t_end):
                return


class Bench:
    def __init__(self, rbst, wl: Workload, seed: int):
        self.rbst = rbst
        self.wl = wl
        self.seed = seed
        self.params = rbst.Params.of(wl.alpha, wl.eps, wl.c_rho)

    def setup(self):
        """The timed set-up: sample_keys plus fast_build of the starting tree."""
        m = self.rbst.metrics
        keys = m.sample_keys(np.random.default_rng(self.seed), N_KEYS)
        return keys, m.fast_build(keys, self.rbst.HashedPriority(self.seed), self.params)

    def fresh_image(self, keys: list[int]) -> bytes:
        tree = self.rbst.metrics.fast_build(np.array(keys, dtype=np.uint64),
                                            self.rbst.HashedPriority(self.seed), self.params)
        return tree.image()

    def image_roundtrip(self, tree):
        """Tree.image() plus Tree.from_image_bytes: the save/load path of `rbst demo`."""
        t0 = time.perf_counter()
        img = tree.image()
        self.rbst.Tree.from_image_bytes(img)
        return time.perf_counter() - t0, img

    def check(self, tree):
        t0 = time.perf_counter()
        report = self.rbst.check_invariants(tree)
        return time.perf_counter() - t0, report

    def verify_final(self, img: bytes, ref: list[int], report) -> list[str]:
        bad = []
        if img != self.fresh_image(ref):
            bad.append("final image differs from fast_build of the final key set")
        if self.rbst.Tree.from_image_bytes(img).image() != img:
            bad.append("final image changes under parse and re-pack")
        if not report.ok:
            bad.append(f"check_invariants: {report.violations[:3]}")
        return bad


def window_counts(wl: Workload, res: Loop) -> dict[str, float]:
    """Exact I/O and receipt counts over the first count_window ops."""
    n_ops = min(len(res.io), wl.count_window)
    pairs = list(zip(res.ops, res.io[:n_ops]))
    queries = [io for (kind, _), io in pairs if kind in QUERY_KINDS]
    updates = [io for (kind, _), io in pairs if kind in UPDATE_KINDS and len(io) > COL["m"]]
    nu = len(updates)
    out = {
        "store.reads_per_query": mean(sum(io[0] for io in queries), len(queries)),
        "store.reads_per_update": mean(sum(io[0] for io in updates), nu),
        "store.writes_per_update": mean(sum(io[1] for io in updates), nu),
        "store.allocs_per_update": mean(sum(io[2] for io in updates), nu),
        "store.frees_per_update": mean(sum(io[3] for io in updates), nu),
        "store.peak_pinned": res.window_peak_pinned,
        "update.m_per_update": mean(sum(io[COL["m"]] for io in updates), nu),
        "update.m_prime_per_update": mean(sum(io[COL["m_prime"]] for io in updates), nu),
        "update.d_prime_mean": mean(sum(io[COL["d_prime"]] for io in updates), nu),
    }
    for case in CASES:
        out[f"update.case.{case}.share"] = mean(
            sum(case in io[COL["cases"]] for io in updates), nu)
    return out


def cycle_ns(wl: Workload, res: Loop) -> list[int]:
    """Summed latency of each complete cycle of the op mix."""
    size = len(wl.cycle)
    lat = res.lat_ns
    return [sum(lat[i:i + size]) for i in range(0, len(lat) - size + 1, size)]


def cycle_xref(wl: Workload, res: Loop, pace: Pace) -> list[float]:
    """Each cycle's summed latency in units of the reference kernel's nearby time."""
    size = len(wl.cycle)
    start, lat = res.start_ns, res.lat_ns
    out = []
    for i, total in zip(range(0, len(lat), size), cycle_ns(wl, res)):
        mid = (start[i] + start[i + size - 1] + lat[i + size - 1]) / 2e9
        out.append(total / 1e9 / pace.unit(mid))
    return out


def per_kind_report(loops: list[Loop]) -> dict:
    """Per-op-kind latencies: p50 and the highest tail with >= 10 samples beyond."""
    by_kind: dict[str, list[int]] = {}
    for res in loops:
        for (kind, _), dt in zip(res.ops, res.lat_ns):
            by_kind.setdefault(kind, []).append(dt)
    out = {}
    for kind, vals in by_kind.items():
        scale, unit = (1e3, "us") if kind in QUERY_KINDS else (1e6, "ms")
        label, value, n = tail(vals)
        out[f"{kind}_p50_{unit}"] = (statistics.median(vals) / scale, unit)
        out[f"{kind}_{label}_{unit}"] = (value / scale, unit)
        out[f"{kind}_samples"] = (n, "count")
    return out


def layer_metrics(tracer: Tracer, wl: Workload, traced: Loop, plain: Loop) -> dict:
    loop = tracer.by_name("loop")
    total_ns = sum(traced.lat_ns)
    n_ops = len(traced.lat_ns)
    n_window = min(n_ops, wl.count_window)
    n_upd = sum(1 for kind, _ in traced.ops[:n_window] if kind in UPDATE_KINDS)
    calls = traced.window_calls

    def self_ns(*names):
        return sum(loop.get(n, (0, 0, 0))[2] for n in names)

    def pct(*names):
        return (100.0 * self_ns(*names) / total_ns, "%")

    def us_per_op(*names):
        return (self_ns(*names) / n_ops / 1e3, "us")

    def per_op(name):
        return (mean(calls.get(name, 0), n_window), "count")

    def per_update(name):
        return (mean(calls.get(name, 0), n_upd), "count")

    def phase_s(phase, name):
        return (tracer.by_name(phase).get(name, (0, 0, 0))[2] / 1e9, "s")

    m = {
        "priority.priority.calls_per_op": per_op("priority.priority"),
        "priority.priority.self_us_per_op": us_per_op("priority.priority"),
        "priority.priority.self_pct": pct("priority.priority"),
        "store.read.calls_per_op": per_op("store.read"),
        "store.read_release.self_us_per_op": us_per_op("store.read", "store.release"),
        "store.read_release.self_pct": pct("store.read", "store.release"),
        "store.peek.calls_per_update": per_update("store.peek"),
        "store.write_aux.calls_per_update": per_update("store.write_aux"),
        "store.rewrite.calls_per_update": per_update("store.rewrite"),
        "store.commit_rebuild.self_pct": pct("store.commit_rebuild"),
    }
    for name, value in window_counts(wl, traced).items():
        m[name] = (value, "fraction" if name.startswith("update.case.") else "count")
    m.update({
        "store.image_bytes.self_s": phase_s("image", "store.image_bytes"),
        "store.parse_image.self_s": phase_s("image", "store.parse_image"),
        "blocks.pack_record.self_s": phase_s("image", "blocks.pack_record"),
        "blocks.unpack_record.self_s": phase_s("image", "blocks.unpack_record"),
        "blocks.local_violation.calls_per_op": per_op("blocks.local_violation"),
        "blocks.local_violation.self_pct": pct("blocks.local_violation"),
        "core.active_separators.calls_per_op": per_op("core.active_separators"),
        "core.active_separators.self_us_per_op": us_per_op("core.active_separators"),
        "core.active_separators.self_pct": pct("core.active_separators"),
        "core.scan_keys.calls_per_op": per_op("core.scan_keys"),
        "core.scan_keys.self_pct": pct("core.scan_keys"),
        "bisect.insort.calls_per_op": per_op("bisect.insort"),
        "bisect.insort.self_pct": pct("bisect.insort"),
    })
    for q in QUERY_KINDS:
        m[f"core.{q}.self_pct"] = pct(f"core.{q}")
    m["core.check_invariants.self_s"] = phase_s("check", "core.check_invariants")
    for name in ("membership_check", "insert", "delete"):
        m[f"update.{name}.self_pct"] = pct(f"update.{name}")
    for name in ("apply_path_fixes",) + REBUILD_PASSES + CHAIN_PASSES:
        m[f"update.{name}.calls_per_update"] = per_update(f"update.{name}")
        m[f"update.{name}.self_pct"] = pct(f"update.{name}")
    m["metrics.sample_keys.self_s"] = phase_s("setup", "metrics.sample_keys")
    m["metrics.fast_build.self_s"] = phase_s("setup", "metrics.fast_build")
    m["trace.us_per_op"] = (total_ns / n_ops / 1e3, "us")
    m["trace.overhead_pct"] = (100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1), "%")
    return m


def purpose_checks(wl: Workload, tracer: Tracer, total_ns: int) -> list[tuple[str, bool]]:
    """The traced facts each workload was chosen for."""
    loop = tracer.by_name("loop")
    own = {name: rec[2] for name, rec in loop.items()}
    rebuild_calls = sum(loop.get(f"update.{p}", (0,))[0] for p in REBUILD_PASSES)
    groups = {
        "store read/release": own.get("store.read", 0) + own.get("store.release", 0),
        "chain passes + priority": sum(own.get(f"update.{p}", 0) for p in CHAIN_PASSES)
        + own.get("priority.priority", 0),
    }
    groups.update({n: t for n, t in own.items()
                   if n not in ("store.read", "store.release", "priority.priority",
                                "update.list_insert", "update.list_delete")})
    top = max(groups, key=groups.get)
    share = f"{top} {100 * groups[top] / total_ns:.1f}%"
    if wl.name == "query-a4":
        return [(f"largest self-time share is store read/release ({share})",
                 top == "store read/release")]
    if wl.name == "churn-a16":
        return [(f"rebuild-pass calls are 0 ({rebuild_calls})", rebuild_calls == 0),
                (f"largest self-time share is chain passes + priority ({share})",
                 top == "chain passes + priority")]
    return [(f"rebuild-pass calls are non-zero ({rebuild_calls})", rebuild_calls > 0)]


def ops_digest(ops) -> str:
    h = hashlib.sha256()
    for kind, args in ops:
        h.update(f"{kind}{args};".encode())
    return h.hexdigest()[:16]


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))


def print_table(title: str, rows: dict) -> None:
    print(f"== {title}")
    for name, (value, unit) in rows.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")


def run_plain(bench: Bench, seconds: float) -> int:
    wl = bench.wl
    setup_times = []
    for _ in range(SETUP_REPEATS):
        tree = None
        gc.collect()
        t0 = time.perf_counter()
        keys, tree = bench.setup()
        setup_times.append(time.perf_counter() - t0)
    # The workload's trees take turns within each slice of the measuring
    # time; tree 0 is the one set up above, from the run's own seed.  The
    # reference kernel is sampled inside the loop and around each image and
    # check repeat (pace.py).
    pace = Pace()
    loops = [Loop(bench, tree, keys, pace=pace)]
    for j in range(1, wl.trees):
        other = Bench(bench.rbst, wl, tree_seed(bench.seed, j))
        other_keys, other_tree = other.setup()
        loops.append(Loop(other, other_tree, other_keys, pace=pace))
        loops[-1].window = 0
    # The image and check repeats run between slices, so that their median
    # samples the whole run, on one fixed tree: tree 0 once its count window
    # is done, loaded from its image as `rbst demo` loads a tree.  A tree
    # that took more updates would take longer to check, and how many
    # updates fit in a slice depends on a few rare, very slow ones.
    snapshot = None
    image_times, check_times, image_xref, check_xref = [], [], [], []
    start = time.perf_counter()
    for r in range(ROUNDS):
        for j, loop in enumerate(loops):
            loop.run(start + (r + (j + 1) / len(loops)) * seconds / ROUNDS
                     - time.perf_counter())
        if any(loop.failures for loop in loops):
            break
        if snapshot is None:
            snapshot = bench.rbst.Tree.from_image_bytes(tree.image())
        # A full collection before each timing starts both from the same
        # collector state, so that how many collections fall inside one is
        # not left to chance.
        pace.burst()
        gc.collect()
        t0 = time.perf_counter()
        t_img, _ = bench.image_roundtrip(snapshot)
        pace.burst()
        gc.collect()
        t1 = time.perf_counter()
        t_chk, _ = bench.check(snapshot)
        pace.burst()
        image_times.append(t_img)
        check_times.append(t_chk)
        image_xref.append(pace.ratio(t0, t_img))
        check_xref.append(pace.ratio(t1, t_chk))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = [f for loop in loops for f in loop.failures]
    if not failures:
        for loop in loops:
            failures += loop.bench.verify_final(loop.tree.image(), loop.ref,
                                                bench.rbst.check_invariants(loop.tree))
    attempted = sum(len(loop.ops) for loop in loops)
    if not image_times:
        for f in failures[:10]:
            print(f"FAIL {f}")
        emit(False, attempted, len(failures), {})
        return 1
    loop = loops[0]
    cycles = [c for lp in loops for c in cycle_ns(wl, lp)]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "cycle_p50_xref": (statistics.median(
            c for lp in loops for c in cycle_xref(wl, lp, pace)), "xref"),
        "image_roundtrip_xref": (statistics.median(image_xref), "xref"),
        "check_xref": (statistics.median(check_xref), "xref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    counts = window_counts(wl, loop)
    lat = sorted(dt for lp in loops for dt in lp.lat_ns)
    slow = lat[rank_index(len(lat), 0.99) + 1:]
    label, cyc_tail, n_cycles = tail(cycles)
    report_rows = {
        "cycle_p50_ms": (statistics.median(cycles) / 1e6, "ms"),
        "image_roundtrip_s": (statistics.median(image_times), "s"),
        "check_s": (statistics.median(check_times), "s"),
        "ref_kernel_ms": (statistics.median(pace.took) * 1e3, "ms"),
        "ref_samples": (len(pace.took), "count"),
        "ops_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        f"cycle_{label}_ms": (cyc_tail / 1e6, "ms"),
        "cycles": (n_cycles, "count"),
        **per_kind_report(loops),
        "max_op_ms": (lat[-1] / 1e6, "ms"),
        "slowest_1pct_ops_time_share": (sum(slow) / sum(lat), "fraction"),
        "writes_per_update": (counts["store.writes_per_update"], "count"),
        "reads_per_query": (counts["store.reads_per_query"], "count"),
        "error_rate": (len(failures) / max(1, attempted), "fraction"),
        "ops": (attempted, "count"),
        "trees": (len(loops), "count"),
        "window_ops": (min(len(loop.ops), wl.count_window), "count"),
    }
    digest = ops_digest(loop.ops[:wl.count_window])
    print_table(f"{wl.name} end-to-end, gated (seed {bench.seed})", metrics)
    print_table(f"{wl.name} end-to-end, reported (window digest {digest})", report_rows)
    for f in failures[:10]:
        print(f"FAIL {f}")
    print("detail " + json.dumps({**{k: v for k, (v, _) in report_rows.items()},
                                  "window_digest": digest, "window_counts": counts}))
    emit(not failures, attempted, len(failures), metrics)
    return 0 if not failures else 1


def run_traced(bench: Bench, seconds: float) -> int:
    # The traced loop gets half the measuring time; the untraced replay of
    # the same ops is faster, so the whole run stays within `seconds`.
    tracer = Tracer()
    tracer.install()
    try:
        tracer.phase("setup")
        keys, tree = bench.setup()
        tracer.phase("loop")
        traced = Loop(bench, tree, keys, tracer=tracer)
        traced.run(seconds / 2)
        tracer.phase("image")
        _, img = bench.image_roundtrip(tree)
        tracer.phase("check")
        _, report = bench.check(tree)
    finally:
        tracer.uninstall()
    failures = list(traced.failures)
    if not failures:
        failures += bench.verify_final(img, traced.ref, report)
    _, replay_tree = bench.setup()
    plain = Loop(bench, replay_tree, keys, ops=traced.ops)
    plain.run()
    failures += plain.failures
    if plain.io != traced.io:
        failures.append("traced and untraced runs differ in I/O counts or receipts")
    if replay_tree.image() != img:
        failures.append("traced and untraced runs end in different images")
    metrics = layer_metrics(tracer, bench.wl, traced, plain)
    print_table(f"{bench.wl.name} per-layer (seed {bench.seed}, {len(traced.ops)} ops traced)",
                metrics)
    total_ns = sum(traced.lat_ns)
    print("== spans, timed loop (caller -> span: calls, total ms, self ms, self %)")
    for (caller, name), (calls, tot, own) in sorted(
            tracer.tables.get("loop", {}).items(), key=lambda kv: -kv[1][2]):
        print(f"  {caller:>24} -> {name:<26} {calls:>10} {tot / 1e6:>11.1f} "
              f"{own / 1e6:>11.1f} {100 * own / total_ns:>6.2f}")
    print("== spans, other phases (phase span: calls, total ms, self ms)")
    for phase in ("setup", "image", "check"):
        for name, (calls, tot, own) in sorted(tracer.by_name(phase).items()):
            print(f"  [{phase}] {name:<34} {calls:>10} {tot / 1e6:>11.1f} {own / 1e6:>11.1f}")
    for text, ok in purpose_checks(bench.wl, tracer, total_ns):
        print(f"purpose {'PASS' if ok else 'MISS'}: {text}")
    for f in failures[:10]:
        print(f"FAIL {f}")
    print("detail " + json.dumps({
        "ops": len(traced.ops),
        "window_digest": ops_digest(traced.ops[:bench.wl.count_window]),
        "untraced_ops_per_s": plain.ops_per_s(),
        "traced_ops_per_s": traced.ops_per_s(),
    }))
    emit(not failures, len(traced.ops), len(failures), metrics)
    return 0 if not failures else 1


def run_sweep(rbst, seed: int) -> int:
    """c_rho I/O sweep at alpha=16, eps=0.5, n=1e5: counts only."""
    rows = {}
    failures = []
    for c_rho in SWEEP_C_RHO:
        wl = Workload(f"sweep-c{c_rho}", 16, 0.5, c_rho,
                      ("successor", "insert", "successor", "delete"), False, 400, "")
        bench = Bench(rbst, wl, seed)
        keys, tree = bench.setup()
        nonfull = sum(1 for b in tree.store.blocks.values() if len(b.keys) < wl.alpha)
        res = Loop(bench, tree, keys)
        res.run()
        counts = window_counts(wl, res)
        failures += res.failures + bench.verify_final(
            tree.image(), res.ref, rbst.check_invariants(tree))
        rows[c_rho] = {"rho": bench.params.rho, "blocks": len(tree.store.blocks),
                       "nonfull_blocks": nonfull,
                       "writes_per_update": counts["store.writes_per_update"],
                       "store.reads_per_update": counts["store.reads_per_update"],
                       "reads_per_query": counts["store.reads_per_query"],
                       "cases": {c: counts[f"update.case.{c}.share"] for c in CASES
                                 if counts[f"update.case.{c}.share"]}}
        print(f"c_rho={c_rho:<4} " + " ".join(
            f"{k}={v}" for k, v in rows[c_rho].items()))
    for f in failures[:10]:
        print(f"FAIL {f}")
    print(json.dumps({"sweep": rows, "seed": seed, "ok": not failures}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--sweep", action="store_true", help="run the c_rho I/O sweep")
    args = ap.parse_args(argv)
    if args.sweep == (args.workload is not None):
        ap.error("give exactly one of --workload and --sweep")
    rbst = load_rbst()
    print("source " + json.dumps(source_identity(rbst)))
    if args.sweep:
        return run_sweep(rbst, args.seed)
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name}: alpha={wl.alpha} eps={wl.eps} c_rho={wl.c_rho} "
          f"n={N_KEYS} cycle={','.join(wl.cycle)} shuffled={wl.shuffle} -- {wl.why}")
    bench = Bench(rbst, wl, args.seed)
    run = run_traced if args.trace else run_plain
    return run(bench, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
