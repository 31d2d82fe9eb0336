"""Each module loads only the layers it imports: the word calculus sits on
the explicit tower (terms -> cells -> completion/frontseed), the K-infinity
formulas on the finite stages (domains -> kinfinity), witness on both, and
gen, serialize and cli on top.  Every layer's value types are records, so
each module but the package itself loads the leaf `record`; the package
imports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

TOWER = {"record", "terms", "cells"}
STAGES = {"record", "domains", "kinfinity"}
WITNESS = TOWER | STAGES | {"witness"}
LOADS = {
    "lamtower": set(),
    "lamtower.record": {"record"},
    "lamtower.terms": {"record", "terms"},
    "lamtower.cells": TOWER,
    "lamtower.completion": TOWER | {"completion"},
    "lamtower.frontseed": TOWER | {"frontseed"},
    "lamtower.domains": {"record", "domains"},
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


def test_cli_loads_no_dataclass_machinery():
    # the value types are records, which need neither dataclasses nor the
    # inspect module it imports; building them that way took about half of
    # the package's import time.  Only what the import adds counts: a site
    # hook may load either before any lamtower code runs (a .pth file that
    # imports certifi loads inspect at interpreter start-up)
    probe = ("import sys; bare = set(sys.modules); import lamtower.cli; "
             "print(' '.join(m for m in ('dataclasses', 'inspect') "
             "if m in sys.modules and m not in bare))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == []
