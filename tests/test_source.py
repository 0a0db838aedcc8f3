"""Source rules that no behaviour test sees.

The library raises no ``AssertionError`` and has no ``assert`` statement:
the CLI maps neither to an exit code, so one would end a run in a traceback,
and ``python -O`` strips asserts, so a check written as one would vanish.
``verify`` judges the facts, and the library raises typed errors.

Every private name (one leading underscore) bound at module or class level
is loaded or imported somewhere in the package, so a helper or constant
whose last caller is gone does not linger.

Every import, a function-level one included, is from the standard library,
numpy or ``weakmeas`` itself: numpy is the one runtime dependency, and the
cold-import test cannot see a lazy import on a path that it does not run.
"""

import ast
import sys
from pathlib import Path

import pytest

import weakmeas

SOURCES = sorted(Path(weakmeas.__file__).parent.glob("*.py"))


def test_sources_are_found():
    assert {path.name for path in SOURCES} >= {"cli.py", "hardy.py", "verify.py"}


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_no_assert_and_no_assertion_error(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            offences.append(f"line {node.lineno}: assert statement")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                offences.append(f"line {node.lineno}: raise AssertionError")
    assert offences == []


def private_definitions(body):
    """Names with one leading underscore bound by ``body`` and its classes."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += private_definitions(node.body)
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.endswith("__"))


def dead_private_names(sources: list[str]) -> set[str]:
    """Module- and class-level private names that no source loads or imports."""
    trees = [ast.parse(text) for text in sources]
    defined = {name for tree in trees for name in private_definitions(tree.body)}
    used = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return defined - used


def test_no_dead_private_names():
    sources = [path.read_text(encoding="utf-8") for path in SOURCES]
    assert dead_private_names(sources) == set()


def test_dead_private_name_rule_sees_each_binding():
    source = """
_LIMIT = 1
_used: int = 2
def _helper(): return _used
class C:
    _KEY = 3
    def _method(self): return self._other()
    def _other(self): pass
    def __repr__(self): pass
"""
    assert dead_private_names([source]) == {"_LIMIT", "_helper", "_KEY", "_method"}
    assert dead_private_names([source, "from m import _LIMIT, _helper\nC._KEY"]) == {"_method"}


ALLOWED_IMPORTS = sys.stdlib_module_names | {"numpy", "weakmeas"}


def foreign_imports(tree: ast.AST) -> list[str]:
    """Imports anywhere in ``tree`` of a package outside ``ALLOWED_IMPORTS``;
    a relative import is of ``weakmeas``."""
    offences = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        offences += [f"line {node.lineno}: {name}" for name in names
                     if name.split(".")[0] not in ALLOWED_IMPORTS]
    return offences


@pytest.mark.parametrize("path", SOURCES, ids=[path.name for path in SOURCES])
def test_imports_only_the_standard_library_numpy_and_weakmeas(path):
    assert foreign_imports(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))) == []


def test_import_rule_sees_function_level_imports():
    source = """
from __future__ import annotations
import os.path, numpy as np
from numpy.linalg import eigh
from . import pointer
from weakmeas.qcore import Observable
def f():
    from scipy import stats
    import mpmath, json
"""
    assert foreign_imports(ast.parse(source)) == ["line 8: scipy", "line 9: mpmath"]
