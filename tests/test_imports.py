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

The method scan reads the same files: a non-dunder method or property of
a pshlab class counts as used if its name appears there as an attribute
(``.name``) or as a later part of a dotted string such as
"combinat.Tabloid.apply".  A bare name is not a use.

The test-only scan runs the definition and method scans over src and
perfbench alone: what they flag is read only by the tests, and must be
one of the oracles kept on purpose in ``TEST_ORACLES``.  It matches by
name, so a definition hides behind any other use of its name: before it
moved into the tests, ``FiniteGroupTable.conj`` hid behind ``Cyclo.conj``
(``.conj`` is read in src), while ``hyperhecke.element_product`` and
``FiniteGroupTable.restrict_character`` were flagged.

The shared-name scan lists every method name that more than one package
class defines, or that a top-level definition shares, and holds the list
equal to ``SHARED_METHOD_NAMES``.  These are the names the test-only scan
cannot tell apart: ``Poly.degree`` hid behind ``ClassFunction.degree``
until it moved into the tests.  A new shared name shows up as an edit of
the list, where a reader can check that it hides no test-only method.

The layering scan keeps cyclo at the bottom of the package: cyclo.py
imports no pshlab module, not even inside a function.

The privacy scan keeps each module's private attributes its own: it
flags ``obj._name`` when ``_name`` is not a dunder, ``obj`` is not
``self`` or ``cls``, and the module neither defines nor assigns
``_name``.
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


def class_members(tree):
    """"Class.member" for every non-dunder method or property of every
    class in the module."""
    return [f"{node.name}.{item.name}" for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (item.name.startswith("__")
                     and item.name.endswith("__"))]


def attribute_references(tree):
    """Attribute names and the later parts of dotted strings."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            out.update(node.value.split(".")[1:])
    return out


def unreferenced_methods(package_sources, scanned_sources):
    used = set()
    for source in scanned_sources:
        used |= attribute_references(ast.parse(source))
    return sorted(member for source in package_sources
                  for member in class_members(ast.parse(source))
                  if member.split(".")[1] not in used)


def test_scanner_flags_an_unreferenced_method():
    package = ("class A:\n"
               "    def __init__(self): self.x = self.helper()\n"
               "    def helper(self): pass\n"
               "    def called(self): pass\n"
               "    @property\n"
               "    def shown(self): pass\n"
               "    def traced(self): pass\n"
               "    def dead(self): pass\n"
               "    @property\n"
               "    def hidden(self): pass\n"
               "    @classmethod\n"
               "    def made(cls): pass\n")
    caller = ("import m\n"
              "COUNTED = ('m.A.traced', 'made')\n"
              "def hidden(a):\n"
              "    return a.called(), a.shown, dead\n")
    assert unreferenced_methods([package], [package, caller]) == [
        "A.dead", "A.hidden", "A.made"]


def test_no_method_goes_unreferenced():
    package = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    scanned = [path.read_text(encoding="utf-8")
               for folder in ("src", "tests", "perfbench")
               for path in sorted((REPO / folder).rglob("*.py"))]
    assert unreferenced_methods(package, scanned) == []


# test oracles kept in src on purpose: src and perfbench never read them
TEST_ORACLES = ("mat_det", "mat_inv", "Fq.element_order", "rank_exact",
                "sign_character", "apply_triple", "coproduct_well_defined",
                "decompose")


def unread_outside_tests(package_sources, scanned_sources):
    """Top-level definitions and methods of the package that the scanned
    sources (the package's own and perfbench's, not the tests) never
    reference."""
    return sorted(unreferenced_definitions(package_sources, scanned_sources)
                  + unreferenced_methods(package_sources, scanned_sources))


def test_scanner_flags_a_test_only_function():
    package = ("class A:\n"
               "    def run(self): return helper()\n"
               "    def oracle(self): pass\n"
               "def helper(): pass\n"
               "def planted(): pass\n")
    bench = "import m\nm.A().run()\n"
    tests = "import m\nm.planted(), m.A().oracle()\n"
    assert unread_outside_tests([package], [package, bench]) == [
        "A.oracle", "planted"]
    assert unread_outside_tests([package], [package, bench, tests]) == []


def test_only_the_kept_oracles_are_test_only():
    package = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    scanned = [path.read_text(encoding="utf-8")
               for folder in ("src", "perfbench")
               for path in sorted((REPO / folder).rglob("*.py"))]
    assert unread_outside_tests(package, scanned) == sorted(TEST_ORACLES)


# method names that more than one class defines, or that a top-level
# definition shares
SHARED_METHOD_NAMES = ("_key", "_pair", "_right_array", "amb", "basis",
                       "conj", "coproduct", "inv", "is_zero", "mul", "n",
                       "order", "scale", "to_json")


def shared_method_names(package_sources):
    """The method names of the package that more than one class defines,
    or that a top-level function or class of any module also has."""
    owners, top_level = {}, set()
    for source in package_sources:
        tree = ast.parse(source)
        top_level.update(top_level_definitions(tree))
        for member in class_members(tree):
            owner, name = member.split(".")
            owners.setdefault(name, []).append(owner)
    return sorted(name for name, classes in owners.items()
                  if len(classes) > 1 or name in top_level)


def test_scanner_lists_shared_method_names():
    package = ("class A:\n"
               "    def inv(self): pass\n"
               "    def own(self): pass\n"
               "    def conj(self): pass\n"
               "    def __eq__(self, other): pass\n"
               "def conj(x): pass\n",
               "class B:\n"
               "    def inv(self): pass\n"
               "    @property\n"
               "    def mine(self): pass\n"
               "    def __eq__(self, other): pass\n"
               "def helper(): pass\n")
    assert shared_method_names(package) == ["conj", "inv"]


def test_shared_method_names_are_pinned():
    package = [path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))]
    assert shared_method_names(package) == sorted(SHARED_METHOD_NAMES)


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


def foreign_private_attributes(source):
    """(line, name) for every private attribute the module reads off an
    object other than self or cls without defining or assigning it."""
    tree = ast.parse(source)
    own = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(
                node.ctx, ast.Store):
            own.add(node.id if isinstance(node, ast.Name) else node.attr)
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_")
        and not node.attr.endswith("__") and node.attr not in own
        and not (isinstance(node.value, ast.Name)
                 and node.value.id in ("self", "cls")))


def test_scanner_flags_a_foreign_private_attribute():
    source = ("_LIMIT = 3\n"
              "class A:\n"
              "    def __init__(self, g):\n"
              "        self._cache = g._cache\n"
              "        self._seen = type(g).__name__\n"
              "    def _helper(self, g):\n"
              "        return self._fn, g._helper, m._LIMIT\n"
              "def f(g):\n"
              "    return g._mul_fn(g._tree), g.__dict__\n")
    assert foreign_private_attributes(source) == [(9, "_mul_fn"),
                                                  (9, "_tree")]


def test_no_module_reads_another_modules_private_attribute():
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        foreign = foreign_private_attributes(path.read_text(encoding="utf-8"))
        if foreign:
            found[path.name] = foreign
    assert not found, found
