"""The README's "Key operations" table names only functions that import."""

import re
from pathlib import Path
from types import ModuleType

import circnot

README = Path(__file__).resolve().parent.parent / "README.md"


def key_operation_names() -> list[str]:
    """Backticked names in the functions column of the "Key operations" table."""
    text = README.read_text(encoding="utf-8")
    table = text.split("Key operations:", 1)[1].strip().split("\n\n", 1)[0]
    rows = table.splitlines()[2:]  # past the header and its rule
    return [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[2])]


def test_key_operations_import():
    names = key_operation_names()
    assert len(names) > 20
    assert [n for n in names if n not in circnot.__all__] == []


def test_star_import_binds_no_module():
    # a module in ``__all__`` would also pass for a name the table may list
    assert len(circnot.__all__) > 20
    assert [n for n in circnot.__all__ if isinstance(getattr(circnot, n), ModuleType)] == []
