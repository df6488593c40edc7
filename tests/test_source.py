"""Checks on the library source itself."""

import ast
import re
from pathlib import Path

import catlab
from catlab import cli, experiments, quantize, spectral

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


def test_certification_errors_raised_only_by_certify():
    # every certification check goes through arith.certify, so every
    # failure message has its one format; a subclass would be a second
    # kind of failure that only the tests tell apart
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    kinds = {"CertificationError"}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and kinds & {ast.unparse(b) for b in node.bases}:
                kinds.add(node.name)
    allowed = {
        id(inner)
        for node in trees["arith.py"].body
        if isinstance(node, ast.FunctionDef) and node.name == "certify"
        for inner in ast.walk(node)
    }
    found = [
        "%s:%d" % (name, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and ast.unparse(getattr(node.exc, "func", node.exc)).rsplit(".", 1)[-1] in kinds
        and id(node) not in allowed
    ]
    assert found == [] and kinds == {"CertificationError"}


def test_every_export_resolves():
    # a deleted function must leave no stale name in an __all__
    modules = (catlab, quantize, spectral, experiments)
    missing = [
        "%s.%s" % (module.__name__, name)
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert all(module.__all__ for module in modules) and missing == []


def test_scipy_imported_only_inside_eigendecompose():
    # importing scipy.linalg costs about 0.3 s per process, so only the
    # function that takes the Schur form imports it; at module level it
    # would load with every catlab command
    found = [
        "%s:%s" % (path.name, getattr(top, "name", "<module>"))
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names)
        )
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    ]
    assert found == ["spectral.py:eigendecompose"]
