"""The benchmark's tracer wraps lamtower functions by name; each name must
still resolve, so that a rename shows here and not only in a traced run.

perfbench/tracer.py is loaded from its file, unedited.
"""

import importlib
import importlib.util
import inspect
import random
import sys
from pathlib import Path

from lamtower import cells, completion, frontseed, gen, kinfinity
from lamtower.domains import LazyMono, Tower, flat_base

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(modname, attr):
    owner = importlib.import_module("lamtower." + modname)
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(owner, cls_name)
        assert inspect.isclass(cls), attr
        return cls.__dict__[meth]
    return getattr(owner, attr)


def _snapshot():
    """Every attribute of every lamtower module and of its classes."""
    out = {}
    for name, m in list(sys.modules.items()):
        if m is None or not (name == "lamtower" or name.startswith("lamtower.")):
            continue
        for key, value in vars(m).items():
            out[name, key] = value
            if inspect.isclass(value) and value.__module__ == name:
                for k, v in vars(value).items():
                    out[name, key, k] = v
    return out


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for _, modname, attr in tracer.TARGETS:
        assert inspect.isfunction(_resolve(modname, attr)), (modname, attr)
    # the lazymono hook reads the memo of the map it is called on
    assert LazyMono(lambda w: w).memo == {}


def test_tracer_install_counts_and_uninstall_restores():
    tracer = _load_tracer()
    for _, modname, _ in tracer.TARGETS:
        importlib.import_module("lamtower." + modname)
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        for _, modname, attr in tracer.TARGETS:
            assert hasattr(_resolve(modname, attr), "__wrapped__"), attr
        kinfinity.verify_laws(Tower(flat_base()), depth=3)
    finally:
        t.uninstall()
    for name in ("kinfinity.verify_laws", "kinfinity.stage_embed",
                 "domains.apply", "domains.stage2_probes"):
        assert t.agg[name][0] > 0, name
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_counts_boundary_recursion():
    # boundary2 and boundary3_words recurse through their own traced names,
    # so their per-layer call counts count every sub-cell.  A 3-cell's
    # boundary recurses through cells.boundary3_ends, which carries each
    # boundary 2-cell's ends and is not a traced name: cells.boundary3 counts
    # top-level calls only (none under globular_check, which reads the
    # carried ends), the recursion's self time lands on the traced caller,
    # and boundary2 runs once per Pentagon, Triangle or Interchange side and
    # per Refl payload.  A reflexive triple's boundary is computed and
    # realized once.
    tracer = _load_tracer()
    rng = random.Random(11)
    cells3 = [gen.gen_h3(rng, depth=2) for _ in range(30)]
    high = [(d, gen.gen_rtower_cell(rng, d)) for d in (4, 5, 6) for _ in range(4)]
    quads = [gen.gen_composable_seqs(rng, 4, max_steps=3) for _ in range(3)]
    t = tracer.Tracer()
    t.install()
    try:
        assert all(cells.globular_check(c) for c in cells3)
        t.end_item("globular", 0, 0)
        assert all(completion.realize_boundary_check(d, c) for d, c in high)
        t.end_item("realize", 0, 0)
        for q in quads:
            frontseed.fs_pentagon(*q)
        t.end_item("fs_pentagon", 0, 0)
        for q in quads:
            frontseed.fs_bridges(*q, cells.Pentagon(*q))
        t.end_item("fs_bridges", 0, 0)
    finally:
        t.uninstall()
    names = ("cells.boundary2", "cells.boundary3", "frontseed.boundary3_words")
    counts = {span["kind"]: tuple(span["functions"].get(n, [0])[0] for n in names)
              for span in t.spans}
    assert counts == {"globular": (378, 0, 0), "realize": (312, 37, 0),
                      "fs_pentagon": (0, 0, 372), "fs_bridges": (45, 3, 189)}
