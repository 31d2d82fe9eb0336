"""The runtime is pure Python with no dependencies: every import under
src/lamtower/ names either lamtower itself or a standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "lamtower"


def _foreign_imports(source: str, filename: str = "<source>") -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "lamtower" and top not in sys.stdlib_module_names:
                found.append(f"{filename}:{node.lineno}: {name}")
    return found


def test_guard_flags_third_party_imports():
    source = ("import json, numpy\nfrom lamtower.terms import Var\n"
              "from . import cells\nfrom hypothesis import given\n"
              "def f():\n    import yaml.loader\n")
    assert _foreign_imports(source) == [
        "<source>:1: numpy", "<source>:4: hypothesis", "<source>:6: yaml.loader"]


def test_runtime_imports_only_stdlib():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    found = [hit for path in modules
             for hit in _foreign_imports(path.read_text(), path.name)]
    assert found == []
