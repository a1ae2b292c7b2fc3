"""Span tracing of rbst's layer functions, installed from outside the package.

`Tracer.install` replaces each traced function in every loaded `rbst`
module namespace that binds it (so `rbst.update.scan_keys` is traced as
well as `rbst.core.scan_keys`), and each traced method on its class.
Nothing under `src/` changes; `uninstall` puts every original back.

Spans are aggregated, not stored per call: for each (caller span, span)
pair the tracer keeps the call count, the total time and the self time
(total minus the time of traced callees).  The hot functions run thousands
of times per update, so per-call records would cost more than the work.
Aggregates are kept per phase (set-up, timed loop, image, check).
"""

from __future__ import annotations

import importlib
import sys
import time

# span name -> (module, attribute): module-level functions, traced in every
# rbst namespace that binds the same function object
FUNCTIONS = {
    "core.successor": ("rbst.core", "successor"),
    "core.range_report": ("rbst.core", "range_report"),
    "core.range_count": ("rbst.core", "range_count"),
    "core.select_kth": ("rbst.core", "select_kth"),
    "core.active_separators": ("rbst.core", "active_separators"),
    "core.scan_keys": ("rbst.core", "scan_keys"),
    "core.check_invariants": ("rbst.core", "check_invariants"),
    "update.insert": ("rbst.update", "insert"),
    "update.delete": ("rbst.update", "delete"),
    "update.apply_path_fixes": ("rbst.update", "_apply_path_fixes"),
    "update.run_anchor": ("rbst.update", "_run_anchor"),
    "update.diff_sections": ("rbst.update", "_diff_sections"),
    "update.build_fresh": ("rbst.update", "_build_fresh"),
    "update.assemble": ("rbst.update", "_assemble"),
    "update.build_chain": ("rbst.update", "_build_chain"),
    "update.top_pass": ("rbst.update", "_top_pass"),
    "update.bin_pass": ("rbst.update", "_bin_pass"),
    "update.count_pass": ("rbst.update", "_count_pass"),
    "update.list_insert": ("rbst.update", "_list_insert"),
    "update.list_delete": ("rbst.update", "_list_delete"),
    "store.parse_image": ("rbst.store", "parse_image"),
    "bisect.insort": ("rbst.core", "insort"),   # range_report's per-key sorted insert
    "blocks.pack_record": ("rbst.blocks", "pack_record"),
    "blocks.unpack_record": ("rbst.blocks", "unpack_record"),
    "metrics.sample_keys": ("rbst.metrics", "sample_keys"),
    "metrics.fast_build": ("rbst.metrics", "fast_build"),
}

# bindings that get their own span name: the successor search that insert
# and delete run before their descent is the membership check
RENAMED = {("rbst.update", "successor"): "update.membership_check"}

# span name -> (module, class, method)
METHODS = {
    "priority.priority": ("rbst.priority", "HashedPriority", "priority"),
    "store.read": ("rbst.store", "BlockStore", "read"),
    "store.release": ("rbst.store", "BlockStore", "release"),
    "store.peek": ("rbst.store", "BlockStore", "peek"),
    "store.write_aux": ("rbst.store", "BlockStore", "write_aux"),
    "store.rewrite": ("rbst.store", "BlockStore", "rewrite"),
    "store.commit_rebuild": ("rbst.store", "BlockStore", "commit_rebuild"),
    "store.image_bytes": ("rbst.store", "BlockStore", "image_bytes"),
    "blocks.local_violation": ("rbst.blocks", "BlockNode", "local_violation"),
}


class Tracer:
    def __init__(self):
        self.tables: dict[str, dict[tuple[str, str], list[int]]] = {}
        self.table: dict[tuple[str, str], list[int]] = {}
        self._stack: list[list] = [["-", 0]]   # [span name, traced child ns]
        self._restore: list[tuple[object, str, object]] = []

    def phase(self, name: str) -> None:
        """Aggregate the following calls under phase `name`."""
        self.table = self.tables.setdefault(name, {})

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter_ns
        tracer = self

        def span(*args, **kwargs):
            frame = [name, 0]
            caller = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                caller[1] += dt
                rec = tracer.table.get((caller[0], name))
                if rec is None:
                    rec = tracer.table[(caller[0], name)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return span

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        loaded = [m for n, m in sorted(sys.modules.items())
                  if (n == "rbst" or n.startswith("rbst.")) and m is not None]
        for (mod, attr), name in RENAMED.items():
            owner = importlib.import_module(mod)
            self._set(owner, attr, self._wrap(name, getattr(owner, attr)))
        for name, (mod, attr) in FUNCTIONS.items():
            fn = getattr(importlib.import_module(mod), attr)
            wrapper = self._wrap(name, fn)
            for module in loaded:
                for bound, value in list(vars(module).items()):
                    if value is fn and (module.__name__, bound) not in RENAMED:
                        self._set(module, bound, wrapper)
        for name, (mod, cls, attr) in METHODS.items():
            owner = getattr(importlib.import_module(mod), cls)
            self._set(owner, attr, self._wrap(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def by_name(self, phase: str) -> dict[str, list[int]]:
        """span name -> [calls, total ns, self ns], summed over callers."""
        out: dict[str, list[int]] = {}
        for (_, name), (calls, total, own) in self.tables.get(phase, {}).items():
            rec = out.setdefault(name, [0, 0, 0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        return out

    def calls(self, phase: str) -> dict[str, int]:
        return {name: rec[0] for name, rec in self.by_name(phase).items()}
