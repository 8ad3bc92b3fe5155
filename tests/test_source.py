"""Source checks on ``src/circnot/``."""

import ast
import sys
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


def outside_imports(source: str) -> list[str]:
    """Dotted names of every absolute import in a module's source whose top package is not standard library."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.partition(".")[0] not in sys.stdlib_module_names]


def test_package_imports_only_the_standard_library():
    # the package declares no runtime dependency; an import of anything
    # else, at any depth of a module, would need one
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 5, "no module found; an empty list means the scan is broken"
    found = {path.name: outside_imports(path.read_text(encoding="utf-8")) for path in modules}
    assert {name: imports for name, imports in found.items() if imports} == {}


@pytest.mark.parametrize(
    "source, imports",
    [
        ("import numpy as np\n", ["numpy"]),
        ("def f():\n    from numpy.linalg import norm\n", ["numpy.linalg"]),
        ("import os, scipy.sparse\n", ["scipy.sparse"]),
        ("from . import gf2\nfrom .model import build_model\nimport math\n", []),
    ],
    ids=["top-level", "in-function", "beside-stdlib", "relative-and-stdlib"],
)
def test_scan_sees_outside_imports(source, imports):
    assert outside_imports(source) == imports


def test_each_mutant_names_a_test_that_exists():
    # ``python tests/mutants.py`` reports a catch by another test as
    # "caught elsewhere"; a catcher naming no test would report them all so
    missing = []
    trees = {}
    for m in MUTANTS:
        path, *names = m.catcher.split("::")
        if path not in trees:
            trees[path] = ast.parse((SRC.parent.parent / path).read_text(encoding="utf-8"))
        scope = trees[path].body
        for name in names:
            node = next((n for n in scope if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
            if node is None:
                missing.append(m.name)
                break
            scope = node.body
    assert missing == []


def test_each_mutant_names_its_source_once():
    # ``python tests/mutants.py`` applies each mutant to the text it names;
    # a mutant whose text moved or repeats would test nothing
    assert len({m.name for m in MUTANTS}) == len(MUTANTS) >= 14
    sources = {name: (SRC / name).read_text(encoding="utf-8") for name in {m.file for m in MUTANTS}}
    assert {m.name: sources[m.file].count(m.old) for m in MUTANTS if sources[m.file].count(m.old) != 1} == {}
    assert all(m.old != m.new for m in MUTANTS)
