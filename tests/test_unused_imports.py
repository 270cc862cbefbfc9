"""Every module under ``src/repro``, ``tests`` and ``benchmarks`` uses each
name it imports.

A name counts as used when the module reads it anywhere — code, decorators,
default values, annotations (string annotations included) — or lists it in
its ``__all__``.  The check parses the sources with the standard library's
:mod:`ast`, so no linter needs to be installed.  It is module-wide, not
scope-aware: an import is flagged only when no line of the module reads the
name.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "repro"
#: Test and benchmark modules; ``perfbench`` is the benchmark's own harness
#: and is left to it.
CHECKED = (ROOT / "tests", ROOT / "benchmarks")


def imported_names(tree: ast.AST) -> dict[str, int]:
    """``{bound name: line}`` of every import in ``tree``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.AST) -> set[str]:
    """Every name ``tree`` reads, the names in its ``__all__`` and those its
    string annotations read."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= used_names(ast.parse(node.value, mode="eval"))
    return used


def unused_imports(source: str) -> dict[str, int]:
    tree = ast.parse(source)
    used = used_names(tree)
    return {
        name: line for name, line in imported_names(tree).items() if name not in used
    }


def _unused(modules: list[Path]) -> list[str]:
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for name, line in unused_imports(path.read_text()).items()
    ]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) > 40
    assert _unused(modules) == []


def test_no_test_or_benchmark_imports_a_name_it_never_uses():
    modules = sorted(path for folder in CHECKED for path in folder.rglob("*.py"))
    assert len(modules) > 50
    assert _unused(modules) == []


def test_the_check_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Any, NamedTuple as Row\n"
        "from .hpg import Entry, Table\n"
        "__all__ = ['Table']\n"
        "def f(x: 'Any') -> int:\n"
        "    return os.path.sep\n"
    )
    assert unused_imports(source) == {"math": 2, "Row": 4, "Entry": 5}
