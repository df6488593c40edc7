"""Checks on the library source itself."""

import ast
import builtins
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


def test_flags_are_int_float_or_str():
    # build_parser passes a flag's kind to argparse as its type, and
    # type=bool would parse "false" as True
    kinds = {dest: kind for dest, (kind, _, _) in cli.FLAGS.items()}
    assert kinds and set(kinds.values()) <= {int, float, str}, kinds


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


def test_every_exception_class_has_an_exit_code():
    # cli.main maps CertificationError to exit 4 and UsageError to exit 2;
    # any other exception class would reach the user as a traceback with
    # no exit code
    classes = [
        (path.stem, node)
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ClassDef)
    ]
    bases = {
        name
        for name, value in vars(builtins).items()
        if isinstance(value, type) and issubclass(value, BaseException)
    }
    found = set()
    while True:
        new = {
            (module, node.name)
            for module, node in classes
            if bases & {ast.unparse(b).rsplit(".", 1)[-1] for b in node.bases}
        } - found
        if not new:
            break
        found |= new
        bases |= {name for _, name in new}
    assert found == {("arith", "CertificationError"), ("cli", "UsageError")}


def test_every_export_resolves():
    # a deleted function must leave no stale name in an __all__
    modules = (quantize, spectral, experiments)
    missing = [
        "%s.%s" % (module.__name__, name)
        for module in modules
        for name in module.__all__
        if not hasattr(module, name)
    ]
    assert all(module.__all__ for module in modules) and missing == []


def _imported(node: ast.AST) -> list[str]:
    """The modules an import statement loads: `from m import x` counts as
    m.x, since x may be a submodule."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["%s.%s" % (node.module or "", alias.name) for alias in node.names]
    return []


def test_scipy_imported_only_inside_the_zgees_loader():
    # importing scipy.linalg costs about 0.25 s per process, so no file
    # imports it, and only the function that loads LAPACK's zgees imports
    # scipy; at module level it would load with every catlab command
    found = [
        "%s:%s:%s" % (path.name, getattr(top, "name", "<module>"), module)
        for path in SOURCES
        for top in ast.parse(path.read_text(encoding="utf-8")).body
        for node in ast.walk(top)
        for module in _imported(node)
        if module.split(".")[0] == "scipy"
    ]
    assert found == ["spectral.py:_zgees:scipy"]


def test_readme_library_example_imports_resolve():
    # only the imports run: the whole example takes an N=989 Schur form,
    # and its imports are what a change to the package surface breaks
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    imports = [
        node
        for node in ast.parse(block.group(1)).body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    assert imports
    exec(compile(ast.Module(body=imports, type_ignores=[]), str(README), "exec"), {})
