"""Every tracer seam the repo benchmark names still resolves.

``benchmarks/perf/tracer.install`` looks a hooked method up in the
owning class's *own* ``__dict__`` and silently skips it when absent, so
a refactor that starts inheriting a hooked method zeroes its per-layer
metric without any error. This test reads ``benchmarks/perf/layers.py``
(read-only) and fails loudly instead.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parents[1] / "benchmarks" / "perf"


@pytest.fixture(scope="module")
def hooks():
    sys.path.insert(0, str(PERF_DIR))
    try:
        yield importlib.import_module("layers").HOOKS
    finally:
        sys.path.remove(str(PERF_DIR))
        for name in ("layers", "tracer"):
            sys.modules.pop(name, None)


def test_every_hook_resolves_in_its_owner(hooks):
    assert hooks
    missing = []
    for hook in hooks:
        module_name, _, path = hook.target.partition(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.partition(".")
        if not attr:
            present = callable(vars(module).get(owner_name))
        else:
            owner = getattr(module, owner_name, None)
            present = owner is not None and attr in vars(owner)
        if not present:
            missing.append(hook.target)
    assert not missing, f"tracer seams no longer resolve: {missing}"
