"""Every top-level def in ``src/repro`` has a caller outside the tests.

A module-level function or class that nothing in ``src/`` (package
``__init__`` re-exports aside), ``benchmarks/`` or ``examples/`` names
is exercised by tests alone: it is either dead or a test hook. Dead
code goes; a hook kept on purpose is listed in ``ALLOWED`` with the
reason. A name counts when it appears as an identifier, an attribute or
inside a string literal (the perf hooks resolve ``"module:Name"``
strings), anywhere but in the definition's own body; docstrings and
comments do not count. Each module is its own test case, so a failure
names the module that holds the uncalled definition.
"""

from __future__ import annotations

import ast
import re
from collections import defaultdict
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"

#: Definitions kept with tests as their only caller, and why.
ALLOWED = {
    "ScheduledFailures": "deterministic failure replay for crash tests",
    "plan_row_wise": "the re-cluster restore test's second sharding plan",
    "decode_quantized": "test reference decoder for stored quantized rows",
}

_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstrings(tree: ast.AST) -> set[int]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and ast.get_docstring(node, clean=False) is not None:
            found.add(id(node.body[0].value))
    return found


def _names(node: ast.AST, docstrings: set[int]) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if id(sub) not in docstrings:
                names.update(_WORD.findall(sub.value))
    return names


@cache
def _callers() -> tuple[dict[str, set], list[tuple[str, str, int]]]:
    """(name -> places naming it, top-level defs of the package)."""
    places: dict[str, set] = defaultdict(set)
    defs = []
    files = [
        path
        for base in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / base).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    for path in files:
        tree = ast.parse(path.read_text())
        docstrings = _docstrings(tree)
        for index, stmt in enumerate(tree.body):
            for name in _names(stmt, docstrings):
                places[name].add((path, index))
            if path.is_relative_to(PACKAGE) and isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                defs.append((str(path), stmt.name, index))
    return places, defs


def uncalled() -> list[str]:
    places, defs = _callers()
    return sorted(
        f"{Path(path).relative_to(PACKAGE)}::{name}"
        for path, name, index in defs
        if not places[name] - {(Path(path), index)}
    )


def _modules() -> list[str]:
    return sorted(
        str(path.relative_to(PACKAGE))
        for path in PACKAGE.rglob("*.py")
        if path.name != "__init__.py"
    )


@pytest.mark.parametrize("module", _modules())
def test_every_def_has_a_non_test_caller(module):
    flagged = [
        entry
        for entry in uncalled()
        if entry.split("::")[0] == module
        and entry.split("::")[1] not in ALLOWED
    ]
    assert not flagged, (
        "top-level definitions only tests reach (delete them, or allow "
        f"them with a reason): {flagged}"
    )


@pytest.mark.parametrize("name", sorted(ALLOWED))
def test_allowlist_holds_only_uncalled_defs(name):
    """An allowed name that gains a caller leaves the list."""
    assert name in {entry.split("::")[1] for entry in uncalled()}
