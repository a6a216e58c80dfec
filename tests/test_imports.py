"""Every name a package or test module imports is used there.

No linter ships with the test dependencies, so this walks the syntax
tree instead: a module fails when it binds a name by import and never
reads it.  Names the package re-exports through ``__init__.__all__`` and
``from __future__`` switches are exempt.
"""
import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import minmod

SOURCES = sorted(Path(minmod.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: p.name)
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


def test_bench_traced_names_resolve():
    # bench/tracing.install raises KeyError on a traced name that no
    # longer exists; exec'ing the source writes no bytecode into bench/
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    for module_name, attr in tracing.TRACED.values():
        importlib.import_module(module_name)
        owner, name = tracing._resolve(module_name, attr)
        assert name in vars(owner), (module_name, attr)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every mm process pays for what minmod.cli imports; dataclasses and
    # the inspect/ast/dis chain behind it are loaded by nothing else.
    env = dict(os.environ, PYTHONPATH=str(Path(minmod.__file__).resolve().parents[1]))
    code = "import sys, minmod.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
