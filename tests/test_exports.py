"""Every public name of the package has a caller inside the package."""

from __future__ import annotations

import ast
from pathlib import Path

import kgdiv

PACKAGE = Path(kgdiv.__file__).parent


def _references(node: ast.AST, enclosing: frozenset[str] = frozenset()) -> set[str]:
    """Names read under node, leaving out a definition's reads of its own name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        enclosing = enclosing | {node.name}
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    for child in ast.iter_child_nodes(node):
        found |= _references(child, enclosing)
    return found - enclosing


def test_every_exported_name_is_used_outside_init_and_its_definition():
    used = set()
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name != "__init__.py":
            used |= _references(ast.parse(path.read_text(encoding="utf-8")))
    assert sorted(set(kgdiv.__all__) - used) == []
