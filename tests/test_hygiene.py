"""Source hygiene of ``src/binvio``: no dead imports, no imports inside
functions, no second default for a setting, and no name that only tests reach.

No linter runs on this repository, so these tests are the guard.  Every name a
module imports is read somewhere in it.  Every import sits at module level,
where it runs once and shows the module's dependencies.  A function parameter
named like a field of a config section has no default: the section's field is
the one definition of that setting, and its callers pass it in.  Every
function, class and method is used by ``src/`` or by the benchmark under
``perfbench/``; tests drive the production path, not helpers kept for them.
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
BENCH = Path(__file__).resolve().parent.parent / "perfbench"


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


def function_imports(source: str) -> list[str]:
    """Imports inside a function or lambda body, as ``function (line n)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = getattr(node, "name", "<lambda>")
            found += [
                f"{name} (line {inner.lineno})" for inner in ast.walk(node)
                if isinstance(inner, (ast.Import, ast.ImportFrom))
            ]
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_imports_inside_functions(path):
    assert function_imports(path.read_text()) == []


def test_detects_an_import_inside_a_function():
    snippet = (
        "import os\n"
        "def f():\n"
        "    from a import b\n"
        "    def g():\n"
        "        import c\n"
        "    return b\n"
        "class K:\n"
        "    def m(self):\n"
        "        import d\n"
    )
    # g's import sits inside f's body too
    assert sorted(function_imports(snippet)) == [
        "f (line 3)", "f (line 5)", "g (line 5)", "m (line 9)"
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


def defined_names(source: str) -> set[str]:
    """Functions, classes and methods a module defines, but not the dunders Python calls itself."""
    return {
        node.name for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def used_names(source: str) -> set[str]:
    """Names a module loads or reads as attributes, and strings that are identifiers.

    A string counts because ``getattr`` and ``setattr`` reach an attribute by
    its name, as the benchmark's tracer does.
    """
    used = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                used.add(node.value)
    return used


def unreached_names(defining: list[str], reaching: list[str]) -> list[str]:
    """Names defined in the ``defining`` sources that neither they nor ``reaching`` use."""
    used = set().union(*(used_names(s) for s in defining + reaching))
    return sorted(set().union(*(defined_names(s) for s in defining)) - used)


def test_no_name_that_only_tests_reach():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    bench = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unreached_names(sources, bench) == []


def test_detects_a_name_that_only_tests_reach():
    module = (
        "class Kept:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "def helper(): return Kept().used()\n"
        "def lonely(): pass\n"
    )
    bench = "import m\ngetattr(m, 'helper')\n"
    assert unreached_names([module], [bench]) == ["lonely", "unused"]
    assert unreached_names([module], []) == ["helper", "lonely", "unused"]
