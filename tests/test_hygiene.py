"""Source hygiene: every name a module in ``src/binvio`` imports is read somewhere in it.

No linter runs on this repository, so this test is the guard against dead imports.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "binvio"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never loaded; ``__future__`` and ``__all__`` entries count as used."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nprint(b)\n") == [
        "os (line 1)", "d (line 2)"
    ]
