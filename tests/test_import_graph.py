"""Each module loads only the layers it imports: the word calculus sits on
the explicit tower (terms -> cells -> completion/frontseed), the K-infinity
formulas on the finite stages (domains -> kinfinity), witness on both, and
gen, serialize and cli on top.  The package itself imports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

TOWER = {"terms", "cells"}
STAGES = {"domains", "kinfinity"}
WITNESS = TOWER | STAGES | {"witness"}
LOADS = {
    "lamtower": set(),
    "lamtower.terms": {"terms"},
    "lamtower.cells": TOWER,
    "lamtower.completion": TOWER | {"completion"},
    "lamtower.frontseed": TOWER | {"frontseed"},
    "lamtower.domains": {"domains"},
    "lamtower.kinfinity": STAGES,
    "lamtower.witness": WITNESS,
    "lamtower.gen": TOWER | {"completion", "frontseed", "gen"},
    "lamtower.serialize": WITNESS | {"completion", "frontseed", "serialize"},
    "lamtower.cli": WITNESS | {"completion", "frontseed", "gen", "serialize", "cli"},
}

_PROBE = ("import importlib, sys; importlib.import_module(sys.argv[1]); "
          "print(' '.join(sorted(m.removeprefix('lamtower.') for m in sys.modules "
          "if m.startswith('lamtower.'))))")


@pytest.mark.parametrize("module", sorted(LOADS))
def test_module_loads_only_its_layers(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", _PROBE, module], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert set(out.split()) == LOADS[module]


def test_package_imports_no_submodule():
    package = SRC / "lamtower"
    tree = ast.parse((package / "__init__.py").read_text())
    assert not [node for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    # every module is pinned above
    modules = {f"lamtower.{p.stem}" for p in package.glob("*.py")}
    assert modules - {"lamtower.__init__"} | {"lamtower"} == set(LOADS)
