"""Command-line entry point: verification, benchmarks, and an image demo.

Exit codes: 0 on success, 1 when a check or requested operation fails
(including an image or CSV path that cannot be read or written), 2 on
usage errors (argparse default).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from . import metrics
from .core import C_RHO, Params, Tree, check_invariants, range_report, successor
from .errors import RbstError
from .selfcheck import run_verification
from .update import delete, insert


# keys each demo op takes; any other count is a usage error
_DEMO_KEYS = {"init": 0, "insert": 1, "delete": 1, "successor": 1, "range": 2, "check": 0}


class _DemoKeys(argparse.Action):
    def __call__(self, parser, namespace, values, option_string=None):
        want = _DEMO_KEYS[namespace.op]
        if len(values) != want:
            parser.error(f"{namespace.op} takes {want} key(s), got {len(values)}")
        setattr(namespace, self.dest, values)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v]


def _add_bench_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_int_list, required=True,
                   help="block array size(s), comma-separated")
    p.add_argument("--eps", type=_float_list, default=[0.5],
                   help="tuning parameter(s) in (0, 1/2]")
    p.add_argument("--c-rho", type=int, default=C_RHO, dest="c_rho")
    p.add_argument("--n", type=_int_list, required=True, help="key count(s)")
    p.add_argument("--trials", type=int, default=30)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", type=str, default=None, help="CSV output path")
    p.add_argument("--no-buffering", action="store_true", dest="no_buffering")


def _config(args, **extra) -> metrics.ExperimentConfig:
    return metrics.ExperimentConfig(
        alphas=args.alpha, eps_list=args.eps, ns=args.n, trials=args.trials,
        seed_base=args.seed, c_rho=args.c_rho, no_buffering=args.no_buffering,
        **extra,
    )


def _open_out(path: str | None, default=None):
    """`path` opened for writing, or `default` when no path was given.

    Opened before a bench runs, so a bad path fails at once, not after the run.
    """
    return open(path, "w") if path else contextlib.nullcontext(default)


def _load(path: str) -> Tree:
    try:
        return Tree.load(path)
    except FileNotFoundError:
        raise FileNotFoundError(f"image not found: {path}") from None


def _emit_rows(rows, out) -> int:
    out.write(metrics.rows_to_csv(rows))
    for r in rows:
        ci = f" ±{r.half_ci:.4g}" if r.half_ci else ""
        status = {"upper": "<=", "lower": ">="}.get(r.kind, "~~")
        flag = "ok" if r.passed else "FAIL"
        line = (f"  [{flag}] {r.experiment} a={r.alpha} n={r.n} {r.metric}: "
                f"{r.mean:.4g}{ci} {status} {r.bound:.4g}")
        if r.kind == "report":
            line += "  (measured constant of this artifact, not a claim)"
        print(line, file=sys.stderr)
    return 0 if all(r.passed for r in rows) else 1


def _cmd_verify(args) -> int:
    results = run_verification(quick=args.quick)
    width = max(len(name) for name, _, _ in results)
    ok_all = True
    for name, ok, detail in results:
        ok_all &= ok
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    return 0 if ok_all else 1


def _cmd_bench_depth(args) -> int:
    cfg = _config(args, searches=args.searches)
    with _open_out(args.out, sys.stdout) as out:
        return _emit_rows(metrics.bench_depth(cfg), out)


def _cmd_bench_size(args) -> int:
    cfg = _config(args)
    with _open_out(args.out, sys.stdout) as out:
        return _emit_rows(metrics.bench_size(cfg), out)


def _cmd_bench_updates(args) -> int:
    cfg = _config(args, churn_ops=args.ops)
    with _open_out(args.out, sys.stdout) as out, _open_out(args.receipts_out) as rec:
        rows, receipts = metrics.bench_updates(cfg, collect_receipts=rec is not None)
        if rec is not None:
            rec.write(metrics.receipts_to_csv(receipts))
        return _emit_rows(rows, out)


def _cmd_demo(args) -> int:
    if args.op == "init":
        params = (Params.unbuffered(args.alpha) if args.no_buffering
                  else Params.of(args.alpha, args.eps, args.c_rho))
        tree = Tree.empty(params, seed=args.seed)
        tree.save(args.image)
        print(f"created empty image {args.image}")
        return 0
    tree = _load(args.image)
    if args.op == "insert":
        r = insert(tree, args.key[0])
        tree.save(args.image)
        print(f"inserted {args.key[0]}: n={tree.n} writes={r.writes} "
              f"reads={r.reads} m={r.m} m'={r.m_prime}")
    elif args.op == "delete":
        r = delete(tree, args.key[0])
        tree.save(args.image)
        print(f"deleted {args.key[0]}: n={tree.n} writes={r.writes} "
              f"reads={r.reads} m={r.m} m'={r.m_prime}")
    elif args.op == "successor":
        s = successor(tree, args.key[0])
        print("none" if s is None else s)
    elif args.op == "range":
        for k in range_report(tree, args.key[0], args.key[1]):
            print(k)
    elif args.op == "check":
        rep = check_invariants(tree)
        print("ok" if rep.ok else "\n".join(rep.violations))
        return 0 if rep.ok else 1
    return 0


def _cmd_dump(args) -> int:
    tree = _load(args.image)
    p = tree.params
    print(f"alpha={p.alpha} rho={p.rho} "
          f"seed={tree.prio.seed} n={tree.n} root={tree.root}")
    for label in sorted(tree.store.blocks):
        b = tree.store.blocks[label]
        kids = " ".join(
            f"[{i}]{c.label}/{c.weight}" for i, c in enumerate(b.children) if c
        )
        print(f"  {label}: depth={b.depth} fanout={b.fanout} keys={b.keys} "
              f"parent={b.parent} children={kids or '-'}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rbst",
        description="Randomized block search trees: verification, benchmarks, demo.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="run the correctness verification suite")
    p.add_argument("--quick", action="store_true", help="smaller case counts")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("bench-depth", help="search-depth bound measurements")
    _add_bench_flags(p)
    p.add_argument("--searches", type=int, default=1000)
    p.set_defaults(fn=_cmd_bench_depth)

    p = sub.add_parser("bench-size", help="space and load-factor measurements")
    _add_bench_flags(p)
    p.set_defaults(fn=_cmd_bench_size)

    p = sub.add_parser("bench-updates", help="update write-cost measurements")
    _add_bench_flags(p)
    p.add_argument("--ops", type=int, default=100, help="churn operations per trial")
    p.add_argument("--receipts-out", type=str, default=None,
                   help="per-operation receipt CSV (m,m_prime,reads,writes,d_prime)")
    p.set_defaults(fn=_cmd_bench_updates)

    p = sub.add_parser("demo", help="operate on a persisted store image")
    p.add_argument("--image", required=True)
    p.add_argument("--alpha", type=int, default=4)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--c-rho", type=int, default=C_RHO, dest="c_rho")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-buffering", action="store_true", dest="no_buffering")
    p.add_argument("op", choices=_DEMO_KEYS)
    p.add_argument("key", type=int, nargs="*", action=_DemoKeys)
    p.set_defaults(fn=_cmd_demo)

    p = sub.add_parser("dump", help="pretty-print a store image")
    p.add_argument("--image", required=True)
    p.set_defaults(fn=_cmd_dump)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (RbstError, OSError) as exc:
        # OSError: an --image, --out or --receipts-out path that cannot be used
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
