"""Correctness verification suite behind the `verify` CLI subcommand.

Each check returns (name, ok, detail); the CLI prints them as a table.
Acceptance criteria 2 and 9 run the same checks, criterion 2 with a
larger case count.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .core import Params, Tree, check_invariants
from .oracle import (
    exact_expected_size, oracle_build, section_distribution_checks,
    section_tail_by_enumeration, section_tail_prob, treap_reference, treap_shape_of_tree,
)
from .priority import HashedPriority
from .store import BlockStore, parse_image
from .update import delete, insert


def check_ur_grid(cases: int, seed: int = 11, n_max: int = 64):
    """Random insert/delete churn ends byte-identical to a fresh build."""
    rng = random.Random(seed)
    grid = [(a, r) for a in (1, 2, 3, 4) for r in (0, 1, 2, 4)]
    for case in range(cases):
        alpha, rho = grid[case % len(grid)]
        params = Params(alpha, rho)
        tree = Tree.empty(params, seed=case)
        uni = rng.sample(range(1 << 32), n_max + n_max // 2)
        present = []
        for _ in range(2 * n_max):
            if present and rng.random() < 0.4:
                delete(tree, present.pop(rng.randrange(len(present))))
            elif uni:
                k = uni.pop()
                present.append(k)
                insert(tree, k)
        want = oracle_build(present, tree.prio, params)
        if tree.image() != want:
            return ("ur-grid", False,
                    f"image mismatch at case {case} (alpha={alpha}, rho={rho})")
        rep = check_invariants(tree)
        if not rep.ok:
            return ("ur-grid", False, f"case {case}: {rep.violations[0]}")
    return ("ur-grid", True, f"{cases} churn cases byte-identical to fresh builds")


def check_treap_degeneration(cases: int):
    params = Params.unbuffered(1)
    for case in range(cases):
        rng = random.Random(case * 31 + 7)
        n = rng.randrange(1, 101)
        keys = rng.sample(range(1 << 30), n)
        prio = HashedPriority(case)
        tree = Tree(BlockStore(1), params, prio)
        for k in keys:
            insert(tree, k)
        if treap_shape_of_tree(tree) != treap_reference(keys, prio):
            return ("treap-degeneration", False, f"shape mismatch at case {case}")
    return ("treap-degeneration", True, f"{cases} trees isomorphic to the classic treap")


def check_size_examples():
    for alpha, n, want in [(1, 2, Fraction(2)), (2, 4, Fraction(5, 2)), (3, 6, Fraction(3))]:
        got, _, _ = exact_expected_size(n, Params.unbuffered(alpha))
        if got != want:
            return ("expected-size-examples", False,
                    f"alpha={alpha} n={n}: E[S]={got}, want {want}")
    return ("expected-size-examples", True,
            "E[S] at n=2*alpha equals 1+(alpha+1)/2 for alpha in 1..3")


def check_tail_probabilities(n_max: int = 12):
    for n, alpha in [(6, 3), (8, 3), (10, 4), (n_max, 5)]:
        per_section = section_tail_by_enumeration(n, alpha, t=1)
        formula = section_tail_prob(n, alpha, 1)
        if any(p != formula for p in per_section):
            return ("section-tail", False, f"n={n} alpha={alpha}: enumeration != formula")
        for t in range(0, n - alpha + 1):
            want = section_tail_prob(n, alpha, t)
            got = section_tail_by_enumeration(n, alpha, t)[0]
            if got != want:
                return ("section-tail", False, f"n={n} alpha={alpha} t={t}")
    return ("section-tail", True, "closed form matches composition enumeration; "
                                  "sections exchangeable")


def check_distribution_brackets():
    for n, m in [(10, 4), (12, 3), (12, 5), (7, 2)]:
        for t in range(0, n + 1):
            exact, lower, upper = section_distribution_checks(n, m, t)
            if not lower <= exact <= upper:
                return ("tail-brackets", False, f"n={n} m={m} t={t}: {lower} {exact} {upper}")
    return ("tail-brackets", True, "closed-form tail brackets hold for every t")


def _has_child(node) -> bool:
    return any(c is not None for c in node.children)


def _bump_weight(node) -> None:
    next(c for c in node.children if c is not None).weight += 1


def _drop_fanout(node) -> None:
    node.fanout -= 1


def _relabel(node) -> None:
    node.label = next(k for k in node.keys if k != node.label)


# (fault, which block gets it, corruption); the first matching block by label
_FAULTS = [
    ("corrupted child weight", _has_child, _bump_weight),
    ("unsorted keys", lambda b: len(b.keys) > 1, lambda b: b.keys.reverse()),
    ("wrong fan-out state", lambda b: b.fanout > 1 and _has_child(b), _drop_fanout),
    ("label field not the store label", lambda b: len(b.keys) > 1 and not _has_child(b),
     _relabel),
]


def check_fault_injection():
    """Each injected fault must give a violation that names the corrupted block."""
    tree = Tree.empty(Params(3, 2), seed=90)
    for k in random.Random(90).sample(range(100_000), 120):
        insert(tree, k)
    base = tree.image()
    for fault, pick, corrupt in _FAULTS:
        t = Tree.from_image_bytes(base)
        label = next(l for l, b in t.store.blocks.items() if pick(b))
        corrupt(t.store.blocks[label])
        rep = check_invariants(t)
        if rep.ok or not any(f"block {label}" in v for v in rep.violations):
            return ("fault-injection", False, f"{fault} in block {label} not named")
    return ("fault-injection", True, "corrupt weight, key order, fan-out and label field all named")


def check_image_roundtrip():
    params = Params.of(2, 0.5)
    tree = Tree.empty(params, seed=21)
    for k in random.Random(8).sample(range(1 << 30), 100):
        insert(tree, k)
    img = tree.image()
    store, header = parse_image(img)
    again = store.image_bytes(header)
    if img != again:
        return ("image-roundtrip", False, "parse/serialize differs")
    return ("image-roundtrip", True, "100-key image round-trips byte-exactly")


def run_verification(quick: bool = False):
    cases = 40 if quick else 200
    checks = [
        check_ur_grid(cases),
        check_treap_degeneration(40 if quick else 200),
        check_size_examples(),
        check_tail_probabilities(8 if quick else 12),
        check_distribution_brackets(),
        check_fault_injection(),
        check_image_roundtrip(),
    ]
    return checks
