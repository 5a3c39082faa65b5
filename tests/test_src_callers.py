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

The same walk also holds every defaulted parameter to a caller: a
parameter of a ``src/repro`` function or method that some non-test
call reaches must be passed by at least one such call (by keyword, by
position, or through a ``*``/``**`` splat), or be listed in
``ALLOWED_PARAMETERS`` with the reason. Calls are matched by name, a
constructor through its class, its inheriting subclasses and their
``super().__init__``; a method called on a dict, set or list display,
a comprehension, or a name or ``self`` attribute bound only to one of
these is a builtin's and matches nothing. A parameter no caller passes
selects one value forever: it goes, with the code only its other
values reach.
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


# -- every defaulted parameter is passed ------------------------------------

#: Defaulted parameters no non-test call passes, and why they stay. A
#: key is ``module::Qualname.param``, or a module path (ending in ``/``
#: for a package) that exempts every parameter it defines.
ALLOWED_PARAMETERS = {
    "experiments/": "paper-figure sweep inputs",
    "tools/figures.py": "paper-figure sweep inputs",
    "metrics/growth.py": "paper-figure sweep inputs",
}


#: Receivers whose methods are builtins': ``{}.get(key, default)`` and
#: ``seen.add(x)`` pass nothing to a package def of the same name.
_CONTAINERS = (
    ast.Dict, ast.Set, ast.List, ast.DictComp, ast.SetComp, ast.ListComp,
)
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _container_names(scope: ast.AST) -> tuple[set[str], set[str]]:
    """(names every binding in ``scope`` sets to a dict, set or list
    display or comprehension, every name ``scope`` binds). Nested defs
    are their own scopes."""
    containers: set[str] = set()
    from_displays: set[int] = set()
    bound: set[str] = set()
    stack = list(ast.iter_child_nodes(scope))
    nodes = []
    while stack:
        node = stack.pop()
        nodes.append(node)
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))
    for node in nodes:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(
            node.value, _CONTAINERS
        ):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    containers.add(target.id)
                    from_displays.add(id(target))
    others = set()
    for node in nodes:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name = node.id
        elif isinstance(node, ast.arg):
            name = node.arg
        elif isinstance(node, _SCOPES[:3]):
            name = node.name
        else:
            continue
        bound.add(name)
        if id(node) not in from_displays:
            others.add(name)
    return containers - others, bound


def _container_attributes(cls: ast.ClassDef) -> set[str]:
    """``self.X`` for every attribute the class only ever sets to a
    dict, set or list display or comprehension."""
    containers, others = set(), set()
    for node in ast.walk(cls):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        for target in targets:
            name = _receiver(target)
            if name is not None and name.startswith("self."):
                kind = isinstance(node.value, _CONTAINERS)
                (containers if kind else others).add(name)
    return containers - others


def _receiver(node: ast.AST) -> str | None:
    """A call receiver's name: ``x`` or ``self.x``; None otherwise."""
    if isinstance(node, ast.Name):
        return node.id
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return f"self.{node.attr}"
    return None


def _call_name(
    call: ast.Call, cls: str | None, containers: set[str] = frozenset()
) -> str | None:
    """The name a call is matched by; ``cls(...)`` and ``super().__init__``
    resolve to the enclosing class, and a method of a builtin container
    (a display, a comprehension, or a receiver in ``containers``) to
    none."""
    func = call.func
    if isinstance(func, ast.Name):
        return cls if func.id == "cls" and cls else func.id
    if isinstance(func, ast.Attribute):
        inner = func.value
        if isinstance(inner, _CONTAINERS) or _receiver(inner) in containers:
            return None
        if (
            func.attr == "__init__"
            and isinstance(inner, ast.Call)
            and isinstance(inner.func, ast.Name)
            and inner.func.id == "super"
        ):
            return f"super:{cls}"
        return func.attr
    return None


def _visit_calls(node, module, cls, owner, found, containers) -> None:
    """Collect ``(call name, call, owner)``; ``owner`` is the qualified
    name of the package def whose body holds the call, if any, and
    ``containers`` the names visible here bound only to containers."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            _visit_calls(
                child, module, child.name, None, found,
                containers | _container_attributes(child),
            )
            continue
        if isinstance(child, ast.FunctionDef):
            top = module is not None and (
                isinstance(node, ast.Module)
                or isinstance(node, ast.ClassDef) and owner is None
            )
            qualname = f"{cls}.{child.name}" if cls else child.name
            local, bound = _container_names(child)
            _visit_calls(
                child, module, cls,
                f"{module}::{qualname}" if top else None, found,
                local | (containers - bound),
            )
            continue
        if isinstance(child, ast.Call):
            name = _call_name(child, cls, containers)
            if name is not None:
                found.append((name, child, owner))
            if name == "benchmark" and child.args:
                # pytest-benchmark's ``benchmark(f, *args, **kwargs)``
                # calls ``f`` with the rest.
                inner = ast.Call(child.args[0], child.args[1:], child.keywords)
                inner_name = _call_name(inner, cls, containers)
                if inner_name is not None:
                    found.append((inner_name, inner, owner))
        _visit_calls(child, module, cls, owner, found, containers)


def _parameter_sites(trees) -> tuple[dict[str, list], list, dict[str, list[str]]]:
    """(call name -> calls, package defs, class -> base names) of
    ``(module, tree)`` pairs; ``module`` is None outside the package."""
    calls: dict[str, list] = defaultdict(list)
    defs = []
    bases: dict[str, list[str]] = {}
    for module, tree in trees:
        found: list = []
        _visit_calls(
            tree, module, None, None, found, _container_names(tree)[0]
        )
        for name, call, owner in found:
            calls[name].append((call, owner))
        if module is None:
            continue
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                bases[stmt.name] = [
                    b.id for b in stmt.bases if isinstance(b, ast.Name)
                ]
                defs.extend(
                    (module, stmt.name, item)
                    for item in stmt.body
                    if isinstance(item, ast.FunctionDef)
                )
            elif isinstance(stmt, ast.FunctionDef):
                defs.append((module, None, stmt))
    return calls, defs, bases


@cache
def _parameter_walk() -> tuple[dict[str, list], list, dict[str, list[str]]]:
    """:func:`_parameter_sites` of every non-test source file."""
    return _parameter_sites(
        (
            str(path.relative_to(PACKAGE))
            if path.is_relative_to(PACKAGE) else None,
            ast.parse(path.read_text()),
        )
        for base in ("src", "benchmarks", "examples")
        for path in sorted((ROOT / base).rglob("*.py"))
    )


def _call_names(cls: str | None, func: ast.FunctionDef, bases) -> set[str]:
    """Every call name that reaches ``func``: a constructor is reached
    through its class, the subclasses that inherit it and their
    ``super().__init__``."""
    if func.name != "__init__" or cls is None:
        return {func.name}
    names = {cls}
    changed = True
    while changed:
        changed = False
        for sub, subbases in bases.items():
            if sub not in names and set(subbases) & names:
                names.add(sub)
                changed = True
    return names | {f"super:{sub}" for sub in names - {cls}}


def _supplied(call: ast.Call, index: int | None, name: str):
    """What a call passes for a parameter: an expression, ``True`` for a
    ``*``/``**`` splat, or ``None``."""
    for kw in call.keywords:
        if kw.arg is None:
            return True
        if kw.arg == name:
            return kw.value
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if index is not None and len(call.args) > index:
        return call.args[index]
    return None


def _defaulted(cls: str | None, func: ast.FunctionDef):
    args = func.args
    positional = args.posonlyargs + args.args
    if cls is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in func.decorator_list
    ):
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    return [
        (index, arg.arg)
        for index, arg in enumerate(positional)
        if index >= first
    ] + [
        (None, arg.arg)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    ]


def _unpassed(calls, defs, bases) -> list[str]:
    """Defaulted parameters of called package defs no call sets.

    A call that hands on its own def's defaulted parameter unchanged
    (``hot_rows=hot_rows``) passes it only if that parameter is passed.
    """
    sites = {}
    for module, cls, func in defs:
        reach = [
            site
            for name in _call_names(cls, func, bases)
            for site in calls.get(name, ())
        ]
        if not reach:
            continue
        qualname = f"{cls}.{func.name}" if cls else func.name
        for index, name in _defaulted(cls, func):
            sites[f"{module}::{qualname}.{name}"] = (index, name, reach)
    passed: set[str] = set()
    changed = True
    while changed:
        changed = False
        for entry, (index, name, reach) in sites.items():
            if entry in passed:
                continue
            for call, owner in reach:
                value = _supplied(call, index, name)
                forwarded = (
                    f"{owner}.{value.id}"
                    if owner and isinstance(value, ast.Name) else None
                )
                if value is not None and (
                    forwarded not in sites or forwarded in passed
                ):
                    passed.add(entry)
                    changed = True
                    break
    return sorted(set(sites) - passed)


@cache
def unpassed() -> list[str]:
    """Defaulted parameters of called package defs no non-test call sets."""
    return _unpassed(*_parameter_walk())


def _allowed(entry: str) -> bool:
    module = entry.split("::")[0]
    return entry in ALLOWED_PARAMETERS or any(
        key.endswith("/") and module.startswith(key) or key == module
        for key in ALLOWED_PARAMETERS
    )


@pytest.mark.parametrize("module", _modules())
def test_every_defaulted_parameter_is_passed(module):
    flagged = [
        entry
        for entry in unpassed()
        if entry.split("::")[0] == module and not _allowed(entry)
    ]
    assert not flagged, (
        "defaulted parameters no non-test call sets (delete them with the "
        f"code they select, or allow them with a reason): {flagged}"
    )


@pytest.mark.parametrize("key", sorted(ALLOWED_PARAMETERS))
def test_parameter_allowlist_holds_only_unpassed_parameters(key):
    """An allowed parameter that gains a caller leaves the list."""
    assert any(
        entry == key or entry.split("::")[0].startswith(key)
        for entry in unpassed()
    )


_SEEDED = '''
class Store:
    def get(self, key, earliest=None, stream=""):
        pass

    def pop(self, key, default=None):
        pass


TABLE = {"a": 1}


class Holder:
    def __init__(self):
        self.seen = {}

    def look(self):
        self.seen.get("k", 4)


def use(store, rows):
    cache = {}
    listed: list = [row for row in rows]
    store.get("k")
    store.pop("k", None)
    cache.get("k", 1)
    {}.get("k", 2)
    {row: row for row in rows}.get("k", 3)
    listed.pop(0)
    TABLE.get("k", stream="")
'''


def test_builtin_container_calls_pass_nothing():
    """``dict.get(key, default)`` is no call of a package ``get``: a
    parameter only such calls set is flagged. The seed holds every
    receiver the walk recognises — displays, comprehensions, and local
    names, module names and ``self`` attributes bound only to them —
    next to a real call that passes ``pop``'s default."""
    walk = _parameter_sites([("seed.py", ast.parse(_SEEDED))])
    assert _unpassed(*walk) == [
        "seed.py::Store.get.earliest",
        "seed.py::Store.get.stream",
    ]
    # A name also bound to something else may be the store: it counts.
    rebound = _SEEDED + "    cache = store\n"
    walk = _parameter_sites([("seed.py", ast.parse(rebound))])
    assert _unpassed(*walk) == ["seed.py::Store.get.stream"]
