"""Every name a module under src/subres, a test or a script imports is used
in that file, and every module-level function or class of the package,
private or public, and every public method is named somewhere else in the
package.

Package ``__init__`` files re-export what they import: they are skipped by
the import check, and their imports and ``__all__`` lists do not count as
a use.  A public name that only a caller outside the package names is
listed in ``OUTSIDE_CALLERS`` with the file that names it.  Names are
taken from the syntax tree, string annotations included, so the checks
need nothing beyond the standard library.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "subres"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")
# The files whose imports are checked: the package's modules, the tests and
# the scripts.
IMPORTERS = MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("scripts/*.py"))

# Public names that a file outside the package calls by name, each with
# that file: deleting or renaming one breaks it, so it stays even where no
# module of the package names it.
# - perfbench/spans.py hooks its layers by name, and perfbench/selftest.py
#   draws its roots as the batteries do;
# - scripts/run_crosschecks.py draws its random pairs;
# - the tests check the package against independent references;
# - README.md shows the library in use.
OUTSIDE_CALLERS = {
    "vandermonde_confluent": "perfbench/spans.py",
    "confluent_inverse": "perfbench/spans.py",
    "macaulay_matrix": "perfbench/spans.py",
    "det_exact": "perfbench/spans.py",
    "sres_roots": "perfbench/spans.py",
    "nullspace": "perfbench/spans.py",
    "random_rootset": "perfbench/selftest.py",
    "random_pair": "scripts/run_crosschecks.py",
    "taylor_coeff": "tests/oracles.py",
    "dual_vandermonde": "tests/oracles.py",
    "dual_wronskian": "tests/oracles.py",
    "dual_eval": "tests/test_dual_values.py",
    "substitute": "tests/test_scalar.py",
    "param": "README.md",
}


def imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def used_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
    for ann in annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                yield from used_names(ast.parse(node.value, mode="eval"))


def _file_id(path):
    return str(path.relative_to(PACKAGE if PACKAGE in path.parents else ROOT))


@pytest.mark.parametrize("path", IMPORTERS, ids=_file_id)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - set(used_names(tree)))
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def test_scan_sees_the_package():
    assert len(MODULES) >= 15
    assert len(IMPORTERS) >= len(MODULES) + 20


def references(tree):
    """Each name used as a ``Name``, an ``Attribute`` or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def definitions(tree, private):
    """The module-level functions and classes, and with private False the
    public methods of those classes, whose names start with "_" exactly
    when private is True."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") == private:
                yield node
            if isinstance(node, ast.ClassDef) and not private:
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if not item.name.startswith("_"):
                            yield item


def orphans(private):
    """The definitions (``definitions``) that no module of the package
    names outside the definition itself, as in recursion, and the count
    of those checked.  ``__init__`` files do not count."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.rglob("*.py")}
    named = Counter(name for p in MODULES for name in references(trees[p]))
    defined = [(path, node) for path, tree in trees.items() for node in definitions(tree, private)]
    found = sorted(
        "%s:%s" % (path.relative_to(PACKAGE), node.name)
        for path, node in defined
        if named[node.name] <= Counter(references(node))[node.name]
    )
    return found, len(defined)


def test_no_orphaned_private_helper():
    found, checked = orphans(private=True)
    assert checked and not found, "private helpers named nowhere else: " + ", ".join(found)


def test_no_orphaned_public_name():
    found, checked = orphans(private=False)
    found = [name for name in found if name.split(":")[1] not in OUTSIDE_CALLERS]
    assert checked and not found, "public names no caller names: " + ", ".join(found)


@pytest.mark.parametrize("name, caller", sorted(OUTSIDE_CALLERS.items()))
def test_outside_caller_names_its_public_name(name, caller):
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in MODULES]
    assert any(node.name == name for tree in trees for node in definitions(tree, False))
    assert re.search(r"\b%s\b" % name, (ROOT / caller).read_text(encoding="utf-8"))
