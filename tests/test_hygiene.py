"""Source hygiene of ``src/binvio``: no dead imports, and no second default for a setting.

No linter runs on this repository, so these tests are the guard.  Every name a
module imports is read somewhere in it.  A function parameter named like a
field of a config section has no default: the section's field is the one
definition of that setting, and its callers pass it in.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from binvio.config import EmulatorSection
from binvio.imu import NoiseParams
from binvio.msckf import FilterConfig
from binvio.tracker import TrackerConfig

SETTINGS = {
    f.name
    for section in (TrackerConfig, FilterConfig, EmulatorSection, NoiseParams)
    for f in dataclasses.fields(section)
}

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


def defaulted_settings(source: str) -> list[str]:
    """Parameters that share a name with a config field and carry a default."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        positional = a.posonlyargs + a.args
        defaulted = positional[len(positional) - len(a.defaults):]
        defaulted += [arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
        name = getattr(node, "name", "<lambda>")
        found += [f"{name}({arg.arg}=...)" for arg in defaulted if arg.arg in SETTINGS]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_second_default_for_a_setting(path):
    assert defaulted_settings(path.read_text()) == []


def test_detects_a_defaulted_setting():
    snippet = (
        "def f(img, sigma_e=2.5, window=3, *, gravity=9.81, seed=0): pass\n"
        "def g(sigma_e, *, gravity): pass\n"
    )
    assert defaulted_settings(snippet) == [
        "f(sigma_e=...)", "f(window=...)", "f(gravity=...)"
    ]
