"""Dead-code guard over the package source: every import is used, and every
top-level function, class and name bound by ``=`` is referenced somewhere
in ``src/dpxa``."""

import ast
from collections import Counter
from pathlib import Path

import dpxa

PACKAGE = Path(dpxa.__file__).resolve().parent
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported(tree):
    """The names an import binds, with the line of its statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _references(node) -> Counter:
    """Names read in ``node``: loaded plain names and attributes, and the
    names a ``from`` import takes from another module."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
            found[sub.attr] += 1
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def test_every_import_is_used():
    unused = []
    for name, tree in MODULES.items():
        if name == "__init__":  # imports to re-export
            continue
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{name}:{line} {bound}"
                   for bound, line in _imported(tree) if bound not in used]
    assert unused == []


def test_every_top_level_definition_is_referenced():
    # a definition's own body does not count, __init__'s exports do
    total = sum((_references(tree) for tree in MODULES.values()), Counter())
    unreferenced = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in MODULES.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and total[node.name] == _references(node)[node.name]]
    assert unreferenced == []


def test_every_top_level_assignment_is_read():
    # a name bound by = at module level is read outside its own statement,
    # where __init__'s exports count as reads; dunder names are exempt
    total = sum((_references(tree) for tree in MODULES.values()), Counter())
    unread = [
        f"{name}:{node.lineno} {target.id}"
        for name, tree in MODULES.items() for node in tree.body
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in ast.walk(node) if isinstance(target, ast.Name)
        and isinstance(target.ctx, ast.Store)
        and not target.id.startswith("__")
        and total[target.id] == _references(node)[target.id]]
    assert unread == []
