"""One entry point per staged operation below the controller.

The writer, the restorer and the publisher are driven only through
their generators (``write_checkpoint_steps``, ``restore_steps`` /
``restore_with_fallback_steps``, ``apply_single_steps``, ``poll_steps``)
and ``plan_resume``: the fleet scheduler interleaves them part by part,
and a single caller drains them. ``drain`` appears in ``src/`` only at
the synchronous entry points kept on purpose, each of which says why
in its docstring.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.core.publisher import OnlinePublisher
from repro.core.restore import CheckpointRestorer
from repro.core.writer import CheckpointWriter

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

KEPT_DRAINS = [
    ("core/controller.py", "CheckNRun.checkpoint"),
    ("core/controller.py", "CheckNRun.restore_latest"),
    ("core/restore.py", "CheckpointRestorer.restore_for_transfer"),
    ("storage/object_store.py", "ObjectStore.get"),
    ("storage/object_store.py", "ObjectStore.put"),
]


def drain_call_sites() -> list[tuple[str, str]]:
    """``(file, qualified name)`` of every ``drain(...)`` call in src."""
    sites = []

    def visit(node, scope, path):
        if isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "drain":
                sites.append((path, ".".join(scope)))
        if isinstance(
            node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            scope = [*scope, node.name]
        for child in ast.iter_child_nodes(node):
            visit(child, scope, path)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        visit(ast.parse(file.read_text()), [], path)
    return sorted(sites)


def test_drain_is_called_only_at_the_kept_entry_points():
    assert drain_call_sites() == KEPT_DRAINS


@pytest.mark.parametrize(
    "cls, twin, staged",
    [
        (CheckpointWriter, "write_checkpoint", "write_checkpoint_steps"),
        (CheckpointRestorer, "restore", "restore_steps"),
        (CheckpointRestorer, "apply_single", "apply_single_steps"),
        (CheckpointRestorer, "latest_valid", "plan_resume"),
        (OnlinePublisher, "poll", "poll_steps"),
    ],
)
def test_no_synchronous_twin(cls, twin, staged):
    assert not hasattr(cls, twin)
    assert callable(getattr(cls, staged))
