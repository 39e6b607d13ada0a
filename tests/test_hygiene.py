"""Source hygiene: every imported name is used by the module importing it,
every module-level function, class and assigned name of the package is
referenced, every parameter of a package function is read, only
``spaces`` builds a ``SymbolicPoint`` directly, every name the package
exports exists, the package reaches no BLAS routine of numpy (the
premise of the one-thread OpenBLAS cap in ``nonauto/__init__.py``), it
reads no attribute of the ``region_scan`` cache object, and it writes no
file from one whole string."""

import ast
import functools
from pathlib import Path

import pytest

import nonauto

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "nonauto").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# everywhere a definition of the package may be used
USERS = [p for d in ("src", "tests", "scripts", "perfbench")
         for p in sorted((ROOT / d).rglob("*.py"))]


@functools.cache
def parsed(path: Path) -> ast.Module:
    """The file's tree, parsed once per session and shared by every test."""
    return ast.parse(path.read_text())


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
    assert unused_imports(parsed(path)) == []


def test_scan_flags_an_unused_import():
    tree = ast.parse("import os\nfrom a import b, c as d\nprint(b)\n")
    assert unused_imports(tree) == [(1, "os"), (2, "d")]


@functools.cache
def mentions(tree: ast.Module) -> tuple:
    """(line, name) of every name and attribute name the tree mentions,
    walked once per tree."""
    return tuple((node.lineno, node.id if isinstance(node, ast.Name)
                  else node.attr) for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute)))


def referenced(tree: ast.Module, skip=range(0)) -> set:
    """Names and attribute names the tree mentions outside lines ``skip``."""
    return {name for line, name in mentions(tree) if line not in skip}


def defined_names(node: ast.stmt) -> list:
    """Names a module-level statement defines: a function or class, or the
    plain names an assignment binds, dunder names excepted."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)
            and not (n.id.startswith("__") and n.id.endswith("__"))]


def dead_definitions(tree: ast.Module, others) -> list:
    """Module-level definitions and assignments that nothing references
    outside their own statement, in ``tree`` or in any of the ``others``."""
    used = set().union(*(referenced(t) for t in others))
    dead = []
    for node in tree.body:
        body = range(node.lineno, node.end_lineno + 1)
        for name in defined_names(node):
            if name not in used | referenced(tree, body):
                dead.append((node.lineno, name))
    return dead


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_dead_definitions(path):
    others = [parsed(p) for p in USERS if p != path]
    assert dead_definitions(parsed(path), others) == []


def test_scan_flags_a_dead_definition():
    tree = ast.parse("def f():\n    return f()\n\n\ndef g():\n    pass\n"
                     "\n\nclass C:\n    pass\n\n\ng()\n")
    other = ast.parse("import m\nm.C\n")
    assert dead_definitions(tree, [other]) == [(1, "f")]


def test_scan_flags_a_dead_assignment():
    tree = ast.parse("__all__ = []\nA = 1\nB: int = A\nC, (D, E) = 2, (A, 3)"
                     "\nF = F + 1 if False else 0\nprint(E)\n")
    other = ast.parse("import m\nm.C\n")
    assert dead_definitions(tree, [other]) == [(3, "B"), (4, "D"), (5, "F")]


def unread_parameters(tree: ast.Module) -> list:
    """(line, name) of each parameter of a function or lambda that its body
    never reads; ``self``, ``cls`` and names starting with _ are exempt."""
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, (args.vararg, args.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [(p.lineno, p.arg) for p in params
                   if p.arg not in read | {"self", "cls"}
                   and not p.arg.startswith("_")]
    return sorted(unread)


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unread_parameters(path):
    assert unread_parameters(parsed(path)) == []


def test_scan_flags_an_unread_parameter():
    tree = ast.parse("def f(a, b, *c, d, _e, **g):\n    a = b\n    return d\n"
                     "\n\nclass C:\n    def m(self, x, y=None):\n"
                     "        return lambda z: x\n\n\n"
                     "def h(cls, p):\n    def inner(q):\n        return p\n"
                     "    return inner\n")
    assert unread_parameters(tree) == [(1, "a"), (1, "c"), (1, "g"),
                                       (7, "y"), (8, "z"), (12, "q")]


# Functions that read a config's JSON values; they take a number through
# spaces.int_value or spaces.number_value, because int() and float() turn
# 1.9 into 1, "12" into 12 and true into 1.0.
CONFIG_READERS = {"parse_config", "_parse_cover", "map_from_dict",
                  "sequence_from_dict", "family_from_dict"}


def config_casts(tree: ast.Module) -> list:
    """(line, function) of each int() or float() call in a config reader
    whose argument is a subscript or a ``.get(...)`` result."""
    casts = []
    for fn in ast.walk(tree):
        if not (isinstance(fn, ast.FunctionDef) and fn.name in CONFIG_READERS):
            continue
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id in ("int", "float") and node.args):
                continue
            arg = node.args[0]
            if isinstance(arg, ast.Subscript) or (
                    isinstance(arg, ast.Call)
                    and isinstance(arg.func, ast.Attribute)
                    and arg.func.attr == "get"):
                casts.append((node.lineno, fn.name))
    return sorted(casts)


def test_config_readers_cast_no_config_value():
    trees = [parsed(p) for p in PACKAGE]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)}
    assert CONFIG_READERS <= defined
    assert [c for tree in trees for c in config_casts(tree)] == []


def test_scan_flags_a_config_cast():
    tree = ast.parse("def family_from_dict(d):\n"
                     "    a = int(d.get('max_gap', 64))\n"
                     "    b = float(d['center'])\n"
                     "    c = {int(j): int(v) for j, v in d.items()}\n"
                     "    return len(d['maps']), a, b, c\n\n\n"
                     "def other(d):\n    return int(d['k'])\n")
    assert config_casts(tree) == [(2, "family_from_dict"),
                                  (3, "family_from_dict")]


def point_constructions(tree: ast.Module) -> list:
    """Lines that call ``SymbolicPoint(...)``, by name or as an attribute:
    everywhere else a sequence point comes from ``symbolic_from_code``."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and "SymbolicPoint" in (getattr(node.func, "id", None),
                                          getattr(node.func, "attr", None)))


@pytest.mark.parametrize("path", [p for p in PACKAGE
                                  if p.name != "spaces.py"],
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_sequence_points_built_only_in_spaces(path):
    assert point_constructions(parsed(path)) == []


def test_scan_flags_a_point_construction():
    tree = ast.parse("from . import spaces\n"
                     "from .spaces import SymbolicPoint\n"
                     "p = SymbolicPoint(5, 5, 1, 3)\n"
                     "q = spaces.SymbolicPoint(0, 0, 1, 3)\n"
                     "r = spaces.symbolic_from_code(5, 1)\n"
                     "print(SymbolicPoint, p.shifted(1))\n")
    assert point_constructions(tree) == [3, 4]


# numpy's entry points into BLAS; ``linalg`` counts wherever it is named
BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "einsum",
              "linalg"}


def blas_uses(tree: ast.Module) -> list:
    """(line, name) of each ``@`` operator and each BLAS entry point: one of
    ``BLAS_NAMES`` imported from numpy, called as a function or a method,
    or taken from ``np`` or ``numpy``; and any mention of ``linalg``. An
    attribute that is not called, such as a family's ``inner``, is none."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            found.add((node.lineno, "@"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            for alias in node.names:
                parts = f"{module}.{alias.name}".strip(".").split(".")
                if parts[0] == "numpy":
                    found.update((node.lineno, p) for p in parts
                                 if p in BLAS_NAMES)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in BLAS_NAMES:
                found.add((node.lineno, name))
        if isinstance(node, (ast.Name, ast.Attribute)):
            name = getattr(node, "id", getattr(node, "attr", None))
            root = getattr(getattr(node, "value", None), "id", None)
            if name == "linalg" or (name in BLAS_NAMES
                                    and root in ("np", "numpy")):
                found.add((node.lineno, name))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_makes_no_blas_call(path):
    assert blas_uses(parsed(path)) == []


def test_scan_flags_a_blas_call():
    tree = ast.parse("import numpy as np\n"
                     "from numpy import einsum\n"
                     "from numpy.linalg import norm\n"
                     "a = x @ y\n"
                     "a @= y\n"
                     "b = np.dot(x, y) + x.dot(y)\n"
                     "c = np.linalg.norm(x)\n"
                     "f = np.inner\n"
                     "g = fam.inner, dot_weights(w), np.multiply(x, y)\n")
    assert blas_uses(tree) == [(2, "einsum"), (3, "linalg"), (4, "@"),
                               (5, "@"), (6, "dot"), (7, "linalg"),
                               (8, "inner")]


def scan_cache_reads(tree: ast.Module) -> list:
    """(line, attribute) of each attribute read from ``region_scan``, by
    name or through a module, and of each ``getattr`` on it. perfbench's
    tracer rebinds every package name bound to the cache object to a plain
    wrapper with no attributes, so the package reaches the scan store only
    through module functions such as ``drop_scans``."""
    def is_cache(node):
        return "region_scan" in (getattr(node, "id", None),
                                 getattr(node, "attr", None))

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and is_cache(node.value):
            found.append((node.lineno, node.attr))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "getattr"
              and node.args and is_cache(node.args[0])):
            found.append((node.lineno, "getattr"))
    return sorted(found)


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_reads_no_scan_cache_attribute(path):
    assert scan_cache_reads(parsed(path)) == []


def test_scan_flags_a_scan_cache_attribute():
    tree = ast.parse("from . import sensitivity\n"
                     "from .sensitivity import region_scan\n"
                     "region_scan.cache_clear()\n"
                     "n = sensitivity.region_scan.cache_info().misses\n"
                     "build = region_scan.__wrapped__\n"
                     "hits = getattr(region_scan, 'hits', 0)\n"
                     "scan = region_scan(seq, region, 10, 8)\n"
                     "f = sensitivity.region_scan\n"
                     "print(scan.sample, sensitivity.drop_scans(), f)\n")
    assert scan_cache_reads(tree) == [(3, "cache_clear"), (4, "cache_info"),
                                      (5, "__wrapped__"), (6, "getattr")]


# names of calls that build a file's whole text or write it in one piece:
# ``nonauto run`` streams its outputs, so a run never holds a file's text
WHOLE_TEXT_WRITES = {"dumps", "write_text", "write_bytes"}


def whole_text_writes(tree: ast.Module) -> list:
    """(line, name) of each mention of a name in ``WHOLE_TEXT_WRITES``, as
    a name or an attribute, called or not: ``json.dumps``, a ``dumps``
    imported by name, ``Path.write_text`` and ``Path.write_bytes``."""
    return sorted({(line, name) for line, name in mentions(tree)
                   if name in WHOLE_TEXT_WRITES})


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_package_writes_no_whole_text(path):
    assert whole_text_writes(parsed(path)) == []


def test_scan_flags_a_whole_text_write():
    tree = ast.parse("import json\n"
                     "from json import dumps\n"
                     "text = json.dumps(report) + '\\n'\n"
                     "path.write_text(text)\n"
                     "path.write_bytes(dumps(report).encode())\n"
                     "save = path.write_text\n"
                     "json.dump(report, f)\n"
                     "f.write(line)\n"
                     "raw = json.loads(path.read_text())\n")
    assert whole_text_writes(tree) == [(3, "dumps"), (4, "write_text"),
                                       (5, "dumps"), (5, "write_bytes"),
                                       (6, "write_text")]


def test_every_export_resolves():
    assert [n for n in nonauto.__all__ if not hasattr(nonauto, n)] == []
    scope = {}
    exec("from nonauto import *", scope)
    assert set(nonauto.__all__) <= set(scope)
