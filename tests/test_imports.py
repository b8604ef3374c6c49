"""Every name a module under src/subres imports is used in that module, and
every module-level function or class, private or public, is named
somewhere else in the package.

Package ``__init__`` files re-export what they import and are skipped by
the import check.  Names are taken from the syntax tree, string
annotations included, so the checks need nothing beyond the standard
library.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "subres"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = sorted(set(imported_names(tree)) - set(used_names(tree)))
    assert not unused, "unused imports in %s: %s" % (path.name, ", ".join(unused))


def test_scan_sees_the_package():
    assert len(MODULES) >= 15


def references(tree):
    """Each name used as a ``Name``, an ``Attribute`` or an imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def exported(tree):
    """Each name listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    yield item.value


def orphans(private):
    """The module-level functions and classes, private or public, that the
    package names nowhere but in their own definitions, as in recursion,
    and the count of those checked."""
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in PACKAGE.rglob("*.py")}
    named = Counter(
        name for tree in trees.values() for name in (*references(tree), *exported(tree))
    )
    defined = [
        (path, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") == private
    ]
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
    # An export from ``subres`` counts as a use: the package's own imports
    # and ``__all__`` lists are what name its public API.
    found, checked = orphans(private=False)
    assert checked and not found, "public names named nowhere else: " + ", ".join(found)
