"""Every name a statikit module imports is used in it; a stale import costs
start-up time on every run. The package's __init__ only re-exports. Every
private helper is used too."""

import ast
import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = sorted(p for p in (Path(__file__).parent.parent / "src" / "statikit").glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name} imports unused names: {', '.join(unused)}"


def _names(node):
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_no_dead_private_helpers():
    """Every private function or method in src/statikit is named somewhere in
    src/ outside its own definition."""
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES[0].parent.glob("*.py")}
    named = sum((_names(tree) for tree in trees.values()), collections.Counter())
    dead = sorted(
        f"{name}: {node.name} (line {node.lineno})"
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and not node.name.endswith("__")
        and named[node.name] == _names(node)[node.name]
    )
    assert not dead, f"private helpers no code names: {', '.join(dead)}"


def test_cli_start_up_skips_heavy_stdlib_modules():
    """`dataclasses` pulls in `inspect`, `ast`, `dis` and `tokenize`, about
    12 ms of every CLI start; the CLI needs none of them."""
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    probe = "import sys, statikit.cli; print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == []
