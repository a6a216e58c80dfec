"""The package's names are all used, and all that the bench reads exist.

No linter ships with the test dependencies, so this walks the syntax
tree instead.  A module fails when it binds a name by import and never
reads it, or when one of its functions imports a name that the function
itself never reads; names a module re-exports through its ``__all__``
and ``from __future__`` switches are exempt.  The package fails when one
of its public functions, classes, constants, methods or properties has
no caller outside the tests, or when a private top-level function, class
or constant has no reader in the package.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from typing import ForwardRef

import pytest

import minmod

SOURCES = sorted(Path(minmod.__file__).parent.glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "bench" / "tracing.py"


def own_imports(scope):
    """The names scope binds by import, without those of the functions
    nested in it or the ``from __future__`` switches."""
    for node in ast.iter_child_nodes(scope):
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.module != "__future__":
                yield from (alias.asname or alias.name for alias in node.names)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from own_imports(node)


def unused_imports(source: str) -> set:
    tree = ast.parse(source)

    def unread(scope):
        return set(own_imports(scope)) - {
            n.id for n in ast.walk(scope) if isinstance(n, ast.Name)
        }

    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    unused = unread(tree) - exported
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            unused |= unread(node)
    return unused


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
        "    from .y import stale\n"
        "    return os.path.join(x)\n"
        "def g():\n"
        "    from .y import stale, used\n"
        "    return stale(lambda: used)\n"
    )
    # stale is read in g, but not in f, whose own import binds it
    assert unused_imports(source) == {"Iterable", "stale"}


def load_tracing():
    # exec'ing the source writes no bytecode into bench/
    tracing = types.ModuleType("tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), tracing.__dict__)
    return tracing


def test_bench_traced_names_resolve():
    # bench/tracing.install raises KeyError on a traced name that no
    # longer exists
    tracing = load_tracing()
    for module_name, attr in tracing.TRACED.values():
        importlib.import_module(module_name)
        owner, name = tracing._resolve(module_name, attr)
        assert name in vars(owner), (module_name, attr)


def test_record_annotations_are_evaluated():
    # typing.NamedTuple compiles each string field annotation, as under
    # `from __future__ import annotations`, into a ForwardRef when the
    # class is made, so every mm process would pay for them at import.
    records, unevaluated = 0, []
    for path in SOURCES:
        module = minmod if path.stem == "__init__" else importlib.import_module(f"minmod.{path.stem}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and issubclass(obj, tuple) and obj.__module__ == module.__name__:
                notes = vars(obj).get("__annotations__", {})
                records += bool(notes)
                unevaluated += [f"{path.stem}.{name}.{field}" for field, note in notes.items()
                            if isinstance(note, (str, ForwardRef))]
    assert records > 10
    assert unevaluated == []


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(Path(minmod.__file__).resolve().parents[1]))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # Every mm process pays for what minmod.cli imports; dataclasses and
    # the inspect/ast/dis chain behind it are loaded by nothing else.
    code = "import sys, minmod.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    done = run_python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_argparse_or_gettext():
    # mm reads its own argv: argparse, and gettext behind its messages,
    # would cost every process some 5 ms of imports and parser set-up
    code = "import sys, minmod.cli; print(sorted({'argparse', 'gettext'} & set(sys.modules)))"
    done = run_python("-S", "-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_cli_import_loads_no_future():
    # a `from __future__` switch makes every mm process import the
    # __future__ module, which nothing else loads
    done = run_python("-S", "-c", "import sys, minmod.cli; print('__future__' in sys.modules)")
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "False"


def test_package_compiles_no_regex_at_import():
    # parse_exact compiles its term pattern on first use; no mm command parses
    patterns = [f"{path.stem}.{name}" for path in SOURCES if path.stem != "__init__"
                for name, obj in vars(importlib.import_module(f"minmod.{path.stem}")).items()
                if isinstance(obj, re.Pattern)]
    assert patterns == []


@pytest.mark.parametrize("argv,layers", [
    ([], ["exact", "minimal"]),
    (["qdim", "--p", "7", "--q", "8", "--label", "2,3"], ["exact", "minimal"]),
    (["fusion", "--p", "7", "--q", "8", "--a", "1,3", "--b", "1,3"], ["exact", "minimal"]),
    (["info", "--p", "23", "--q", "24"], ["exact", "minimal"]),
    (["braid", "--p", "7", "--q", "8", "--ext", "3,3,4,4"], ["braiding", "exact", "minimal"]),
    (["decompose", "3c"], ["exact", "minimal", "sectors"]),
    (["decompose", "5a", "--module", "3,5"], ["exact", "minimal", "sectors"]),
    (["decompose", "3c", "--module", "4"], ["exact", "minimal", "sectors"]),
    (["verify", "lemma-5a"], ["algebra", "braiding", "exact", "minimal", "sectors"]),
    (["verify", "lemma-3c"], ["algebra", "braiding", "exact", "minimal", "sectors"]),
    (["verify", "all"], ["algebra", "braiding", "exact", "minimal", "sectors"]),
], ids=["import", "qdim", "fusion", "info", "braid", "decompose", "decompose-module-5a",
        "decompose-module-3c", "verify", "verify-lemma-3c", "verify-all"])
def test_each_command_loads_only_its_layers(argv, layers):
    # A cold mm process compiles every module it imports; qdim, fusion
    # and info need none of sectors, braiding and algebra, braid neither
    # sectors nor algebra, and decompose neither braiding nor the verify
    # battery in algebra, which answers every verify target.  No command
    # loads argparse or gettext.
    code = ("import sys, minmod.cli\n"
            "rc = minmod.cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
            "print(sorted(m[7:] for m in sys.modules if m.startswith('minmod.')))\n"
            "print(sorted({'argparse', 'gettext'} & set(sys.modules)))\n"
            "sys.exit(rc)")
    done = run_python("-c", code, *argv)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-2:] == [repr(sorted(["cli", *layers])), "[]"]


def test_package_names_resolve_lazily():
    # `import minmod` loads exact and minimal only; each public name
    # resolves to the object its layer defines, and dir() and `import *`
    # list them all.
    code = ("import sys, minmod\n"
            "print(sorted(m for m in sys.modules if m.startswith('minmod.')))\n"
            "namespace = {}\n"
            "exec('from minmod import *', namespace)\n"
            "print(sorted(set(namespace) - {'__builtins__'}) == sorted(minmod.__all__))")
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["['minmod.exact', 'minmod.minimal']", "True"]
    listed = dir(minmod)
    for name in minmod.__all__:
        value = getattr(minmod, name)
        assert vars(sys.modules[value.__module__])[name] is value, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        minmod.no_such_name


@pytest.mark.parametrize("name,layers", [
    ("braid_matrix", ["braiding"]),
    ("SolutionSet", ["algebra", "braiding", "sectors"]),
    ("build_algebra", ["algebra", "braiding", "sectors"]),
])
def test_a_package_name_loads_only_its_layers(name, layers):
    # minmod looks a name up in braiding before algebra, which imports
    # braiding and sectors itself; a braiding name never compiles algebra,
    # and a sectors name is algebra's, so the bench's traced algebra rows
    # see the calls made through the package.
    code = (f"import sys, minmod\nminmod.{name}\n"
            "print(sorted(m[7:] for m in sys.modules if m.startswith('minmod.')))")
    done = run_python("-c", code)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == repr(sorted(["exact", "minimal", *layers]))


def test_half_integral_exponent_exits_2_in_a_cold_process():
    # main maps NonIntegerExponent to exit 2 without importing braiding
    # itself; the draw below raises it inside braid_matrix.
    done = run_python("-m", "minmod.cli", "braid", "--p", "7", "--q", "8",
                      "--ext", "2,3,2,7,3,3,3,5")
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("error: sign exponent ")
    assert len(done.stderr.splitlines()) == 1


def test_bench_package_names_resolve():
    # What bench/session.py and bench/launch.py read from the package; a
    # trim that drops one breaks a bench run and no other test.
    import minmod.braiding
    import minmod.cli

    model = minmod.MinimalModel(3, 4)
    sigma = model.label(1, 2)
    assert minmod.fuse(model.vacuum, sigma) == {sigma}
    # the ring ops read a product's (label, multiplicity) pairs, in label
    # order, and compare products
    m78 = minmod.MinimalModel(7, 8)
    a, b = m78.label(2, 2), m78.label(2, 3)
    want = [m78.label(3, 4), m78.label(1, 2), m78.label(3, 2), m78.label(1, 4)]
    assert list(minmod.fuse(a, b).items()) == [(label, 1) for label in want]
    assert minmod.fuse(a, b) == minmod.fuse(b, a)
    assert minmod.qdim(sigma).approx > 1
    alg = minmod.build_algebra("3C")
    product = minmod.sector_fusion(alg, alg.sectors[1], alg.sectors[1])
    assert [(s.name, len(s.components)) for s, _ in product.terms] == [("U1", 2), ("U2", 2)]
    assert product.extras
    assert minmod.module_fusion(alg, 2, 2)
    assert isinstance(minmod.braiding.memoized_queries(), tuple)
    assert callable(minmod.cli.main)


def reads(tree) -> Counter:
    """Names and attribute names the tree reads, keyed ("name", x) or ("attr", x)."""
    return Counter(
        ("name", node.id) if isinstance(node, ast.Name) else ("attr", node.attr)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    )


def definitions(tree):
    """(name, node, top level) for each function and class of a module,
    each constant it assigns at top level, and each public method and
    property of its classes.  Dunders are left out."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, True
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        if not item.name.startswith("_"):
                            yield item.name, item, False
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node, True


def unread_names(sources, bench, traced, readme) -> list:
    """Definitions in sources that nothing outside their own body reads.

    Inside the package a top-level definition counts as read only by
    name, since the modules import each other's names; a method or
    property also counts when read as an attribute.  Any read in a bench
    script, a part of a traced name, or a name inside a code span of the
    README counts for both, but only for a public name: a private one
    needs a reader in the package.
    """
    trees = {path: ast.parse(path.read_text()) for path in sources}
    inside = sum((reads(tree) for tree in trees.values()), Counter())
    outside = {x for path in bench for _, x in reads(ast.parse(path.read_text()))}
    outside.update(part for _, attr in traced for part in attr.split("."))
    outside.update(re.findall(r"\w+", " ".join(re.findall(r"`([^`\n]+)`", readme))))
    unread = []
    for path, tree in trees.items():
        for name, node, top in definitions(tree):
            if name.startswith("__") or (not name.startswith("_") and name in outside):
                continue
            kinds = ("name",) if top else ("name", "attr")
            own = reads(node)
            if not any(inside[(k, name)] > own[(k, name)] for k in kinds):
                unread.append(f"{path.name}:{node.lineno} {name}")
    return unread


def test_public_names_have_a_caller():
    # Tests are no callers: code that only they use belongs in the tests.
    bench = sorted((ROOT / "bench").glob("*.py"))
    traced = load_tracing().TRACED.values()
    readme = (ROOT / "README.md").read_text()
    assert unread_names(SOURCES, bench, traced, readme) == []


def test_caller_scan_flags_an_unread_name(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "class A:\n"
        "    def size(self):\n"
        "        return 1\n"
        "    def recursive(self):\n"
        "        return self.recursive()\n"
        "def size(a):\n"
        "    return a.size()\n"
        "def traced():\n"
        "    return A()\n"
        "def named():\n"
        "    return _private()\n"
        "def _private():\n"
        "    return _LIMIT\n"
        "_LIMIT = 3\n"
        "def _unread():\n"
        "    return _unread()\n"
        "_STALE = 4\n"
    )
    # a README span names _unread, but a private name needs a reader in
    # the package
    got = unread_names([module], [], [("m", "traced")], "see `named()` and `_unread`")
    assert got == [
        "m.py:4 recursive", "m.py:6 size", "m.py:15 _unread", "m.py:17 _STALE",
    ]
