"""Every top-level name of ``helpers.py`` is used by a test module, or by a helper that is."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


def unused_helpers(helper_source: str, test_sources) -> list[str]:
    """Top-level names of ``helper_source`` that no test source reaches.

    A test source reaches a name it imports from ``helpers`` or reads as
    ``helpers.<name>``, and every top-level name that a reached definition
    mentions.
    """
    defined = {}
    for node in ast.parse(helper_source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign):
            defined.update((target.id, node) for target in node.targets if isinstance(target, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined[node.target.id] = node
    used = set()
    for source in test_sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ImportFrom) and node.module == "helpers":
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "helpers":
                used.add(node.attr)
    todo = sorted(used & defined.keys())
    reached = set(todo)
    while todo:
        for node in ast.walk(defined[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defined and node.id not in reached:
                reached.add(node.id)
                todo.append(node.id)
    return sorted(defined.keys() - reached)


def test_every_helper_is_used():
    test_sources = [path.read_text(encoding="utf-8") for path in [TESTS / "conftest.py", *TESTS.glob("test_*.py")]]
    helper_source = (TESTS / "helpers.py").read_text(encoding="utf-8")
    assert len(test_sources) > 10, "no test module found; an empty list means the scan is broken"
    assert unused_helpers(helper_source, test_sources) == []


HELPERS = """
LIMIT = 3

def a():
    return b(LIMIT)

def b(n):
    return n

def c():
    return d()

def d():
    return 0
"""


@pytest.mark.parametrize(
    "test_source, unused",
    [
        ("from helpers import a", ["c", "d"]),
        ("import helpers\nhelpers.c()", ["LIMIT", "a", "b"]),
        ("def test():\n    from helpers import b, c", ["LIMIT", "a"]),
        ("from other import a, b, c, d", ["LIMIT", "a", "b", "c", "d"]),
    ],
    ids=["unused-helper-and-its-callee", "attribute-read", "local-import", "other-module"],
)
def test_scan_sees_unused_helpers(test_source, unused):
    assert unused_helpers(HELPERS, [test_source]) == unused
