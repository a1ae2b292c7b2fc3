"""The benchmark's span tracer must find every rbst name it traces and put each back.

perfbench/tracing.py resolves its names with getattr at install time, so a
renamed or deleted function would otherwise surface only as an
AttributeError from a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import rbst.metrics  # noqa: F401  (traced by name, not imported by the package)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("rbst_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(tracing) -> dict:
    """owner -> copy of its namespace, for every rbst module and traced class."""
    owners = [m for n, m in sorted(sys.modules.items())
              if (n == "rbst" or n.startswith("rbst.")) and m is not None]
    owners += [getattr(importlib.import_module(mod), cls)
               for mod, cls, _ in tracing.METHODS.values()]
    return {owner: dict(vars(owner)) for owner in owners}


def test_tracer_wraps_every_name_and_uninstall_restores_them():
    tracing = _load_tracing()
    before = _bindings(tracing)
    traced = [(importlib.import_module(mod), attr)
              for mod, attr in list(tracing.FUNCTIONS.values()) + list(tracing.RENAMED)]
    traced += [(getattr(importlib.import_module(mod), cls), attr)
               for mod, cls, attr in tracing.METHODS.values()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for owner, attr in traced:
            assert vars(owner)[attr] is not before[owner][attr], (owner, attr)
    finally:
        tracer.uninstall()
    for owner, names in before.items():
        for attr, value in names.items():
            assert vars(owner)[attr] is value, (owner, attr)
