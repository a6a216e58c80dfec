"""The oracle routes stay independent of the package they check."""
import ast
from pathlib import Path


def test_oracles_import_nothing_from_minmod():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported, "no imports found; the scan is broken"
    offenders = {
        name for name in imported
        if name.split(".")[0] == "minmod" or name.startswith(".")
    }
    assert not offenders
