"""Every attribute a ``src/repro`` class sets on ``self`` is read.

An attribute that is assigned, incremented or appended to but never
read is a history or a counter nothing looks at: it costs memory and a
statement per event and answers no question. A ``self.X`` that a class
assigns counts as read when ``.X`` is loaded anywhere in ``src/``,
``tests/``, ``benchmarks/`` or ``examples/`` (by name: the check cannot
tell same-named attributes apart). The attribute's own ``=`` / ``+=``
targets and ``.X.append(...)`` / ``.X.record(...)`` statements are
writes, not reads. An attribute read only by a computed name
(``getattr(self, name)``) is listed in ``ALLOWED`` with the reason.
Each module is its own test case, so a failure names the module.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: ``Class.attribute`` read only through a computed name, and where.
ALLOWED = {
    "CacheTierBackend.flushed_bytes": (
        "CacheTierBackend.stats() reads every CacheTierStats field with "
        "getattr"
    ),
}

#: Methods whose expression statements only add to the receiver.
_WRITERS = ("append", "record")


def _is_write_statement(node: ast.Attribute, parents: dict) -> bool:
    """``<...>.X.append(...)`` / ``.record(...)`` as a whole statement."""
    method = parents.get(id(node))
    if not (isinstance(method, ast.Attribute) and method.attr in _WRITERS):
        return False
    call = parents.get(id(method))
    return (
        isinstance(call, ast.Call)
        and call.func is method
        and isinstance(parents.get(id(call)), ast.Expr)
    )


@cache
def _scan() -> tuple[dict[str, int], list[tuple[str, str, str]]]:
    """(attribute name -> loads, (module, class, attribute) assigned)."""
    reads: dict[str, int] = defaultdict(int)
    assigned = []
    for base in ("src", "tests", "benchmarks", "examples"):
        for path in sorted((ROOT / base).rglob("*.py")):
            tree = ast.parse(path.read_text())
            parents = {
                id(child): node
                for node in ast.walk(tree)
                for child in ast.iter_child_nodes(node)
            }
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)
                    and not _is_write_statement(node, parents)
                ):
                    reads[node.attr] += 1
            if not path.is_relative_to(PACKAGE):
                continue
            module = str(path.relative_to(PACKAGE))
            for cls in ast.walk(tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                for node in ast.walk(cls):
                    if (
                        isinstance(node, ast.Attribute)
                        and isinstance(node.ctx, ast.Store)
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "self"
                    ):
                        assigned.append((module, cls.name, node.attr))
    return reads, assigned


def unread() -> list[str]:
    reads, assigned = _scan()
    return sorted(
        {
            f"{module}::{cls}.{attr}"
            for module, cls, attr in assigned
            if not reads[attr]
        }
    )


def _modules() -> list[str]:
    return sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    )


@pytest.mark.parametrize("module", _modules())
def test_every_attribute_is_read(module):
    flagged = [
        entry
        for entry in unread()
        if entry.split("::")[0] == module
        and entry.split("::")[1] not in ALLOWED
    ]
    assert not flagged, (
        "attributes assigned but never read (delete them, or allow them "
        f"with a reason): {flagged}"
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowlist_holds_only_unread_attributes(name):
    """An allowed attribute that gains a reader by name leaves the list."""
    assert name in {entry.split("::")[1] for entry in unread()}
