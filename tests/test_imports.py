"""Every name a module of the package imports is used in that module.

Read with the standard ``ast`` module only: a name bound by an ``import``
must occur as a name (a load, or the base of an attribute) or inside a
quoted annotation.  Names listed in the module's ``__all__`` are re-exports
and exempt.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hopfcomm"
MODULES = sorted(PACKAGE.glob("*.py"))


def _imported(tree):
    """(name, line) of each name an import statement binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used(tree):
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # quoted annotations such as -> "HElem"
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                sub = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(sub) if isinstance(n, ast.Name)}
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _used(tree) | _exported(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_detected():
    src = ("from dataclasses import dataclass, field\n"
           "import os.path\n"
           "from .x import A as B, C\n"
           "__all__ = ['C']\n"
           "@dataclass\nclass K:\n    v: 'os.sep'\n")
    assert unused_imports(src) == [("field", 1), ("B", 3)]
