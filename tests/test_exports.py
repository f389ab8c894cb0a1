"""Every public name of the package has a caller inside the package."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_every_exported_name_resolves_lazily():
    """In a fresh interpreter, `import kgdiv` loads no submodule, and each
    name of `__all__` resolves through getattr and through a star import."""
    script = """
import sys
import kgdiv
assert sorted(m for m in sys.modules if m.startswith("kgdiv.")) == [], sys.modules
by_getattr = {name: getattr(kgdiv, name) for name in kgdiv.__all__}
namespace = {}
exec("from kgdiv import *", namespace)
assert all(namespace[name] is value for name, value in by_getattr.items())
assert sorted(set(namespace) - {"__builtins__"}) == sorted(kgdiv.__all__)
print(len(by_getattr))
"""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == str(len(kgdiv.__all__))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kgdiv.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        from kgdiv import no_such_name  # noqa: F401
