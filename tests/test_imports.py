"""Every name a package module imports is used there.

No linter ships with the test dependencies, so this walks the syntax
tree instead: a module fails when it binds a name by import and never
reads it.  Names the package re-exports through ``__init__.__all__`` and
``from __future__`` switches are exempt.
"""
import ast
from pathlib import Path

import pytest

import minmod

SOURCES = sorted(Path(minmod.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> set:
    tree = ast.parse(source)
    imported = {}
    exported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return {name for name in imported if name not in used | exported}


def test_sources_found():
    assert {"exact.py", "minimal.py", "braiding.py"} <= {p.name for p in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == set()


def test_scan_flags_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Sequence as Seq\n"
        "__all__ = ['exported']\n"
        "from .x import exported\n"
        "def f(x: Seq) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == {"Iterable"}
