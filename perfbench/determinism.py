#!/usr/bin/env python3
"""Determinism self-test of the rbst benchmark.

    python3 perfbench/determinism.py [--seed N] [--seconds S]

For every workload, runs the benchmark twice untraced and twice traced with
the same seed, each in its own process, and checks that:

- every run is correct;
- all four issue the same op stream over the count window;
- all four report identical exact counts over that window (writes and
  reads per update, reads per query, allocs, frees, peak pins, receipt
  means and case shares), and the two traced runs identical call counts;
- the metric names each mode prints are those BENCHMARK.json lists.

The seed is an argument, so a held-out seed can check a later claim.
Exits 0 when every check holds.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    """Run one benchmark process; return its result line and its detail line."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} trace={trace} exited {out.returncode}: "
                           f"{out.stderr.strip()[-500:] or lines[-5:]}")
    detail = next(json.loads(line[7:]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    layer_names = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        first, d1 = bench(name, args.seed, args.seconds, 0)
        second, d2 = bench(name, args.seed, args.seconds, 0)
        traced, d3 = bench(name, args.seed, args.seconds, 1)
        retraced, d4 = bench(name, args.seed, args.seconds, 1)
        runs = (("first", first), ("second", second), ("traced", traced), ("retraced", retraced))
        for label, res in runs:
            if not res["correct"] or res["failed"]:
                problems.append(f"{name}: {label} run not correct")
        digests = {d["window_digest"] for d in (d1, d2, d3, d4)}
        if len(digests) != 1:
            problems.append(f"{name}: op streams differ: {sorted(digests)}")
        if d1["window_counts"] != d2["window_counts"]:
            problems.append(f"{name}: exact counts differ between untraced runs")
        traced_counts = {k: traced["metrics"][k]["value"] for k in d1["window_counts"]}
        if traced_counts != d1["window_counts"]:
            problems.append(f"{name}: traced run's exact counts differ from untraced")
        exact = [k for k, m in traced["metrics"].items() if m["unit"] in ("count", "fraction")]
        if any(traced["metrics"][k] != retraced["metrics"][k] for k in exact):
            problems.append(f"{name}: call counts differ between traced runs")
        if set(first["metrics"]) != e2e_names:
            problems.append(f"{name}: end-to-end names differ from BENCHMARK.json")
        if set(traced["metrics"]) != layer_names:
            problems.append(f"{name}: per-layer names differ from BENCHMARK.json")
        print(f"{name}: digest {d1['window_digest']} "
              f"writes/update {d1['window_counts']['store.writes_per_update']} "
              f"reads/query {d1['window_counts']['store.reads_per_query']}")
    for p in problems:
        print(f"FAIL {p}")
    print("determinism self-test " + ("PASS" if not problems else "FAIL"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
