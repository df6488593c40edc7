"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

import catlab
from catlab import cli

SOURCES = sorted(Path(catlab.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


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


def test_readme_lists_the_flags_of_each_command():
    # rows of README's command table: | `scan` | `--n-min`, `--n-max`, ... |
    listed = {
        row[1]: re.findall(r"`(-[-\w]+)`", row[2])
        for row in re.finditer(
            r"^\| `(\w+)` +\| (.*) \|$", README.read_text(encoding="utf-8"), re.MULTILINE
        )
    }
    declared = {
        name: [cli._option(dest) for dest in flags] for name, _, flags, _ in cli.COMMANDS
    }
    assert declared and listed == declared
