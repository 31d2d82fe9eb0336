"""Tests of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/tests

Each workload is built and passed in-process, so these take about a minute.
"""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = list(workloads.WORKLOADS)
SEED = 5


@pytest.fixture(scope="module")
def first_passes():
    """One build and pass per workload at SEED, shared by the tests below."""
    out = {}
    for name in NAMES:
        plan = workloads.WORKLOADS[name](SEED)
        out[name] = (plan, run.Pass(plan))
    return out


def _statuses(p):
    return Counter(r[1] for r in p.results)


@pytest.mark.parametrize("name", NAMES)
def test_same_seed_gives_same_digest_and_counts(name, first_passes):
    plan, first = first_passes[name]
    plan.check_counts()
    again = run.Pass(workloads.WORKLOADS[name](SEED))
    assert again.digest == first.digest
    assert [r[0] for r in again.results] == [r[0] for r in first.results]
    assert _statuses(first)["fail"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_other_seed_gives_same_counts_and_passes(name, first_passes):
    plan, first = first_passes[name]
    other_plan = workloads.WORKLOADS[name](SEED + 1)
    other_plan.check_counts()
    other = run.Pass(other_plan)
    assert [r[0] for r in other.results] == [r[0] for r in first.results]
    assert _statuses(other)["fail"] == 0


@pytest.mark.parametrize("name", NAMES)
def test_traced_digest_equals_untraced(name, first_passes):
    import lamtower.cells
    import lamtower.completion
    original = lamtower.cells.boundary2
    plan, first = first_passes[name]
    tracer = Tracer()
    tracer.install()
    try:
        assert lamtower.completion.boundary2 is not original
        traced = run.Pass(plan, tracer)
    finally:
        tracer.uninstall()
    assert traced.digest == first.digest
    assert lamtower.cells.boundary2 is original
    assert lamtower.completion.boundary2 is original
    assert len(tracer.spans) == len(plan.items)


def test_base5_child_stays_inside_its_budget():
    attempt = run.attempt_base5()
    assert attempt["outcome"] in ("pass", "refused", "oom", "timeout")
    assert attempt["seconds"] <= run.B5_WALL_S + 5


def test_result_line_matches_benchmark_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "tower",
                               "--seed", "3", "--seconds", "0", "--trace", str(trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == \
            {m["name"]: m["unit"] for m in spec[section]}


def test_exits_without_result_when_program_is_missing():
    bare = ROOT / ".bench_build" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", "tests"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "tower",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
