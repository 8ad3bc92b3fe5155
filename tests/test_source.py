"""Source checks on ``src/circnot/``."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "circnot"


def global_statements(source: str) -> list[int]:
    """Line numbers of every ``global`` statement in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Global)]


def test_no_module_rebinds_a_global():
    # state a function rebinds at module level is shared by every caller in
    # the process, as a module-level cache is; such state belongs to an
    # object the caller passes
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, "no module found; an empty list means the scan is broken"
    found = {path.name: global_statements(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


@pytest.mark.parametrize(
    "source, lines",
    [
        ("CACHE = ()\n\ndef grow():\n    global CACHE\n    CACHE += (1,)\n", [4]),
        ("def outer():\n    def inner():\n        global X\n        X = 1\n", [3]),
        ("X = 1\n\ndef read():\n    return X\n", []),
    ],
    ids=["top-level-function", "nested-function", "read-only"],
)
def test_scan_sees_global_statements(source, lines):
    assert global_statements(source) == lines
