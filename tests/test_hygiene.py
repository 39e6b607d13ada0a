"""Source hygiene: every imported name is used by the module importing it,
and every module-level function and class of the package is referenced."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nonauto").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# everywhere a definition of the package may be used
USERS = [p for d in ("src", "tests", "scripts", "perfbench")
         for p in sorted((ROOT / d).rglob("*.py"))]


def unused_imports(tree: ast.Module) -> list:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # names listed in __all__ are re-exports, used by the package's users
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "d")]


def referenced(tree: ast.Module, skip=range(0)) -> set:
    """Names and attribute names the tree mentions outside lines ``skip``."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.lineno not in skip:
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and node.lineno not in skip:
            out.add(node.attr)
    return out


def dead_definitions(tree: ast.Module, others) -> list:
    """Module-level functions and classes that nothing references outside
    their own body, in ``tree`` or in any of the ``others``."""
    used = set().union(*(referenced(t) for t in others))
    dead = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            body = range(node.lineno, node.end_lineno + 1)
            if node.name not in used | referenced(tree, body):
                dead.append((node.lineno, node.name))
    return dead


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_definitions(path):
    others = [ast.parse(p.read_text()) for p in USERS if p != path]
    assert dead_definitions(ast.parse(path.read_text()), others) == []


def test_scan_flags_a_dead_definition():
    tree = ast.parse("def f():\n    return f()\n\n\ndef g():\n    pass\n"
                     "\n\nclass C:\n    pass\n\n\ng()\n")
    other = ast.parse("import m\nm.C\n")
    assert dead_definitions(tree, [other]) == [(1, "f")]
