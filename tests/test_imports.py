"""Every name a pshlab module imports is used in that module.

The scan reads each module's syntax tree: an imported name counts as used
if it appears as a bare name anywhere in the module, as the base of an
attribute access, or in the module's ``__all__``.  ``from __future__``
imports and the re-exports of the package ``__init__`` are exempt.
"""

import ast
import pathlib

import pshlab

PACKAGE = pathlib.Path(pshlab.__file__).parent


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
