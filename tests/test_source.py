"""Checks on the library source itself."""

import ast
from pathlib import Path

import catlab

SOURCES = sorted(Path(catlab.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so a check written as one
    # silently stops running; checks raise instead
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES and found == []
