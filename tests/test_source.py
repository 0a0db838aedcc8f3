"""Source rules that no behaviour test sees.

The library raises no ``AssertionError`` and has no ``assert`` statement:
the CLI maps neither to an exit code, so one would end a run in a traceback,
and ``python -O`` strips asserts, so a check written as one would vanish.
``verify`` judges the facts, and the library raises typed errors.
"""

import ast
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
