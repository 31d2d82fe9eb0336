"""The benchmark's workloads read lamtower by name (constructors, fields,
functions); a rename they rely on shows here, not only in a benchmark run.

perfbench/workloads.py is loaded from its file, unedited.  Each workload's
plan is built at one seed and the first non-probe item of every kind must
check "ok".
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["tower", "coherence", "kinfty", "convert"])
def test_workload_items_check_ok(name):
    workloads = _load_workloads()
    plan = workloads.WORKLOADS[name](7)
    plan.check_counts()
    first = {}
    for kind, item, probe in plan.items:
        if not probe:
            first.setdefault(kind, item)
    assert first
    for kind, item in first.items():
        status, _ = item()
        assert status == "ok", kind
