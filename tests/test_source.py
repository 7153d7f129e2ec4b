"""Source-level guards over the package itself."""

import ast
from pathlib import Path

import poiscoh

PACKAGE = Path(poiscoh.__file__).resolve().parent


def test_no_bare_assert_in_package():
    """Self-checks must raise under ``python -O`` too, so the package holds
    no ``assert`` statement."""
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    found = [f"{path.name}:{node.lineno}"
             for path in sources
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
