"""Source checks on ``src/circnot/``."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS

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


def test_each_mutant_names_its_source_once():
    # ``python tests/mutants.py`` applies each mutant to the text it names;
    # a mutant whose text moved or repeats would test nothing
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 14
    sources = {name: (SRC / name).read_text(encoding="utf-8") for name in {m.file for m in MUTANTS}}
    assert {m.name: sources[m.file].count(m.old) for m in MUTANTS if sources[m.file].count(m.old) != 1} == {}
    assert all(m.old != m.new for m in MUTANTS)
