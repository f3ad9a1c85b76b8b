"""Every name a pshlab module imports is used in that module, and every
top-level function or class of the package is used somewhere.

The import scan reads each module's syntax tree: an imported name counts
as used if it appears as a bare name anywhere in the module, as the base
of an attribute access, or in the module's ``__all__``.  ``from
__future__`` imports and the re-exports of the package ``__init__`` are
exempt.

The definition scan reads every file under src, tests and perfbench: a
top-level function or class counts as used if its name appears there as
a bare name, as an attribute, or as one part of a dotted string such as
"hyperhecke.verify_hopflike".  ``__all__`` entries and import lines are
not uses.

The layering scan keeps cyclo at the bottom of the package: cyclo.py
imports no pshlab module, not even inside a function.
"""

import ast
import pathlib
import re

import pshlab

PACKAGE = pathlib.Path(pshlab.__file__).parent
REPO = pathlib.Path(__file__).resolve().parents[1]
DOTTED = re.compile(r"\w+(?:\.\w+)+")


def imported_names(tree):
    """(bound name, line) for every import in the module, at any depth."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            used |= {elt.value for elt in node.value.elts
                     if isinstance(elt, ast.Constant)}
    return used


def unused_imports(source: str):
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree)
                  if name not in used)


def test_scanner_flags_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "from math import gcd, lcm\n"
              "import itertools as it\n"
              "def f(a, b):\n"
              "    from fractions import Fraction\n"
              "    return gcd(a, b) + len(os.sep) + len(list(it.chain()))\n")
    assert unused_imports(source) == [(3, "lcm"), (6, "Fraction")]


def test_no_module_imports_a_name_it_never_uses():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text(encoding="utf-8"))
        if unused:
            found[path.name] = unused
    assert not found, found


def top_level_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))]


def references(tree):
    """Bare names, attribute names and the parts of dotted strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.update(node.value.split("."))
    return out


def unreferenced_definitions(package_sources, scanned_sources):
    used = set()
    for source in scanned_sources:
        used |= references(ast.parse(source))
    return sorted(name for source in package_sources
                  for name in top_level_definitions(ast.parse(source))
                  if name not in used)


def test_scanner_flags_an_unreferenced_definition():
    package = ("__all__ = ['a', 'b', 'c', 'd', 'e']\n"
               "def a(): pass\n"
               "def b(): pass\n"
               "class c: pass\n"
               "def d(): pass\n"
               "def e(): pass\n")
    caller = ("from m import a, e\n"
              "import m\n"
              "CHECKS = ('m.b', 'a')\n"
              "def f():\n"
              "    return m.c, a()\n")
    assert unreferenced_definitions([package], [caller]) == ["d", "e"]


def test_no_top_level_definition_goes_unreferenced():
    package = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    scanned = [path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench")
               for path in sorted((REPO / folder).rglob("*.py"))]
    assert unreferenced_definitions(package, scanned) == []


def package_imports(source):
    """(line, module) for every import of a pshlab module, at any depth;
    relative imports count as pshlab imports."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "pshlab":
                out.append((node.lineno, "." * node.level + module))
        elif isinstance(node, ast.Import):
            out += [(node.lineno, alias.name) for alias in node.names
                    if alias.name.split(".")[0] == "pshlab"]
    return sorted(out)


def test_scanner_flags_a_package_import():
    source = ("import math\n"
              "import pshlab.groups\n"
              "from fractions import Fraction\n"
              "def f():\n"
              "    from .linalg import solve_exact\n"
              "    from . import chars\n"
              "    from pshlab.cli import main\n")
    assert package_imports(source) == [(2, "pshlab.groups"), (5, ".linalg"),
                                       (6, "."), (7, "pshlab.cli")]


def test_cyclo_imports_no_pshlab_module():
    source = (PACKAGE / "cyclo.py").read_text(encoding="utf-8")
    assert package_imports(source) == []
