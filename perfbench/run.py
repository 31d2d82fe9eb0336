"""lamtower benchmark: time to verdict, memory and failures per check workload.

    python3 perfbench/run.py --workload tower --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One run builds the workload's inputs from the seed (three times; set-up time
is the median), then repeats passes over the same items for --seconds and
reports the median pass as the time to verdict.  Every pass must reach the
same digest.  After the timed passes it replays the README's fixed-seed CLI
commands against stored stdout fingerprints and, on kinfty, attempts base
size 5 in a child process under a memory and wall-time budget.

Times are scaled to a fixed machine speed by a reference job timed between
segments of work (see clock.py); the raw wall times are in the report line.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics, whose traced digest must
equal the untraced one; its spans go to .bench_build/perfbench/.  The last
line of stdout is the JSON result; the line before it ("perfbench-report")
carries the digest, the gate, every known-defect outcome and the raw times.

The program is imported from src/ next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from time import perf_counter

_T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

from clock import SegmentClock, scale, time_reference  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("tower", "coherence", "kinfty", "convert")
SETUP_REPEATS = 3

# Base size 5 at the seed commit: MemoryError after about 4 s under 512 MiB.
B5_ARGV = ("kinfty", "check", "--base-size", "5")
B5_LIMIT_BYTES = 512 << 20
B5_WALL_S = 30.0


def import_program() -> None:
    """Import lamtower from this checkout's src/, or exit with status 2."""
    if not (SRC / "lamtower" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'lamtower'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import lamtower
    if Path(lamtower.__file__).resolve().parent != (SRC / "lamtower").resolve():
        print(f"perfbench: imported lamtower from {lamtower.__file__}, not {SRC}",
              file=sys.stderr)
        raise SystemExit(2)


def spec_units(section: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


# ---------------------------------------------------------------------------
# Set-up and passes.

def set_up(build, seed: int):
    """Build the inputs SETUP_REPEATS times.  Returns the last plan, the
    scaled set-up time (import plus median build), and the raw import and
    build times."""
    import_s = perf_counter() - _T_START
    ref = time_reference()
    import_scaled = scale(import_s, [ref])
    builds, scaled, plan = [], [], None
    for _ in range(SETUP_REPEATS):
        plan = None
        gc.collect()
        t0 = perf_counter()
        plan = build(seed)
        builds.append(perf_counter() - t0)
        ref_after = time_reference()
        scaled.append(scale(builds[-1], [ref, ref_after]))
        ref = ref_after
    plan.check_counts()
    return plan, import_scaled + statistics.median(scaled), import_s, builds


class Pass:
    """One pass over a plan's items: per-item (kind, status, text, seconds),
    the pass's raw work time, its scaled time and its digest."""

    def __init__(self, plan, tracer=None):
        self.results = []
        probing = False
        clock = SegmentClock()
        t_start = perf_counter()
        for kind, check, probe in plan.items:
            if tracer is not None and probe != probing:
                (tracer.uninstall if probe else tracer.install)()
                probing = probe
            t0 = perf_counter()
            try:
                status, text = check()
            except Exception as e:  # a check that raises is a failed operation
                status, text = "fail", f"{type(e).__name__}: {e}"
            t1 = perf_counter()
            if tracer is not None:
                tracer.end_item(kind, t0 - t_start, t1 - t_start)
            self.results.append((kind, status, text, t1 - t0))
            clock.tick()
        clock.tick(final=True)
        if tracer is not None and probing:
            tracer.install()
        self.seconds, self.scaled, self.refs = clock.wall, clock.scaled, clock.refs
        h = hashlib.sha256()
        for kind, status, text, _ in self.results:
            h.update(f"{kind}\t{status}\t{text}\n".encode())
        self.digest = h.hexdigest()

    def count(self, status: str) -> int:
        return sum(r[1] == status for r in self.results)


def timed_passes(plan, seconds: float, tracer=None):
    """Untraced passes (and, with a tracer, a traced pass after each) until
    the next round would overrun `seconds`; at least one round."""
    untraced, traced = [], []
    t0 = perf_counter()
    while True:
        round_start = perf_counter()
        gc.collect()
        untraced.append(Pass(plan))
        if tracer is not None:
            gc.collect()
            tracer.seen_cells = {}
            tracer.install()
            try:
                p = Pass(plan, tracer)
            finally:
                tracer.uninstall()
            p.distinct_cells = len(tracer.seen_cells)
            tracer.seen_cells = {}
            traced.append(p)
        now = perf_counter()
        if now - t0 + (now - round_start) > seconds:
            return untraced, traced


# ---------------------------------------------------------------------------
# Operations outside the timed passes.

def run_fingerprints():
    """The README's fixed-seed CLI commands, against stored stdout hashes."""
    from lamtower import cli
    stored = json.loads((HERE / "fingerprints.json").read_text())
    out = []
    for entry in stored:
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = cli.main(list(entry["argv"]))
        digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
        ok = digest == entry["sha256"] and code == entry["exit"]
        out.append({"argv": entry["argv"], "ok": ok, "sha256": digest, "exit": code})
    return out


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (B5_LIMIT_BYTES, B5_LIMIT_BYTES))


def attempt_base5():
    """`lamtower kinfty check --base-size 5` in a child under a fixed address
    space and wall time.  Outcome: pass, refused (JSON error), oom, timeout,
    or error (anything else, a failed operation)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter()
    try:
        proc = subprocess.run([sys.executable, "-m", "lamtower.cli", *B5_ARGV],
                              cwd=ROOT, env=env, preexec_fn=_limit_memory,
                              capture_output=True, text=True, timeout=B5_WALL_S)
    except subprocess.TimeoutExpired:
        return {"outcome": "timeout", "seconds": perf_counter() - t0}
    seconds = perf_counter() - t0
    if proc.returncode == 0:
        outcome = "pass"
    elif "MemoryError" in proc.stderr:
        outcome = "oom"
    elif proc.returncode == 2 and proc.stdout.startswith('{"error"'):
        outcome = "refused"
    else:
        outcome = "error"
    return {"outcome": outcome, "seconds": seconds, "exit": proc.returncode}


# ---------------------------------------------------------------------------
# Gate, counts and metrics.

def median(xs):
    return statistics.median(xs) if xs else 0.0


def tally(plan, untraced, traced, fingerprints, b5) -> dict:
    """Operation counts and the correctness gate.  Known-defect outcomes
    (probe RecursionErrors, base 5 oom/refused/timeout) are counted and
    listed apart from failed operations."""
    expected = sum(plan.expected.values())
    passes = untraced + traced
    digests = {p.digest for p in passes}
    counts_ok = all(len(p.results) == expected for p in passes)
    attempted = sum(len(p.results) for p in passes) + len(fingerprints) + (b5 is not None)
    failed = (sum(p.count("fail") for p in passes)
              + sum(not f["ok"] for f in fingerprints)
              + (b5 is not None and b5["outcome"] == "error"))
    known = (sum(p.count("defect") for p in passes)
             + (b5 is not None and b5["outcome"] in ("oom", "refused", "timeout")))
    first = untraced[0].results
    defects = [{"item": kind, "outcome": text} for kind, status, text, _ in first
               if status == "defect"]
    if b5 is not None and b5["outcome"] != "pass":
        defects.append({"item": "kinfty.b5", "outcome": b5["outcome"],
                        "seconds": round(b5["seconds"], 3)})
    failures = [{"item": kind, "detail": text[:200]} for kind, status, text, _ in first
                if status == "fail"]
    failures += [{"item": "cli " + " ".join(f["argv"]), "detail": f["sha256"]}
                 for f in fingerprints if not f["ok"]]
    correct = failed == 0 and len(digests) == 1 and counts_ok
    return {
        "items_per_pass": expected, "digest": untraced[0].digest,
        "gate": {"correct": correct, "digests_agree": len(digests) == 1,
                 "item_counts": counts_ok,
                 "fingerprints": f"{sum(f['ok'] for f in fingerprints)}/{len(fingerprints)}"},
        "attempted": attempted, "failed": failed, "known_defects": known,
        "fail_ratio": (failed + known) / attempted,
        "defects": defects, "failures": failures, "b5": b5,
    }


def deepest_clean_rung(results) -> int:
    """The deepest deep-ladder depth up to which every operation succeeded."""
    ok = {}
    for kind, status, _, _ in results:
        if kind.startswith("deep."):
            depth = int(kind.rsplit(".d", 1)[1])
            ok[depth] = ok.get(depth, True) and status == "ok"
    best = 0
    for depth in sorted(ok):
        if not ok[depth]:
            break
        best = depth
    return best


def item_median(passes, kind: str, scale_to: float = 1.0) -> float:
    """Median raw duration of the items of one kind, over the given passes."""
    return median([r[3] for p in passes for r in p.results if r[0] == kind]) * scale_to


def tail(durations):
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    n = len(durations)
    best = (50.0, statistics.median(durations))
    for pct in (90.0, 99.0, 99.9):
        if n * (1 - pct / 100) >= 10:
            best = (pct, sorted(durations)[min(n - 1, int(pct / 100 * n))])
    return best


def pass_totals(spans):
    """Per-function [calls, self seconds] and counters summed over a pass."""
    funcs, counters = {}, {}
    for span in spans:
        for name, (calls, self_s) in span["functions"].items():
            f = funcs.setdefault(name, [0, 0.0])
            f[0] += calls
            f[1] += self_s
        for name, v in span["counters"].items():
            counters[name] = counters.get(name, 0) + v
    return funcs, counters


def per_layer(plan, untraced, traced, spans, counts) -> dict:
    """Every per-layer metric named in BENCHMARK.json, for this workload
    (zero where the layer does not run)."""
    per_pass = sum(plan.expected.values())
    totals = [pass_totals(spans[i * per_pass:(i + 1) * per_pass])
              for i in range(len(traced))]

    def calls(name):
        return float(totals[0][0].get(name, [0, 0.0])[0])

    def self_s(name):
        return median([t[0].get(name, [0, 0.0])[1] for t in totals])

    def counter(name):
        return float(totals[0][1].get(name, 0))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for fn in ("terms.normalize", "terms.apply_step", "terms.eq",
               "cells.seq_compose", "cells.boundary2", "cells.boundary3",
               "completion.realize", "completion.parallel",
               "frontseed.word_reduce", "frontseed.boundary3_words",
               "domains.emb", "domains.proj", "domains.leq",
               "kinfinity.stage_embed", "kinfinity.reify"):
        m[f"{fn}.calls"] = calls(fn)
        m[f"{fn}.self_s"] = self_s(fn)
    for fn in ("terms.first_redex", "terms.subst", "terms.shift",
               "cells.globular_check"):
        m[f"{fn}.self_s"] = self_s(fn)
    for fn in ("completion.hd_map", "frontseed.words_equal",
               "domains.stage2_probes", "kinfinity.thread_eq"):
        m[f"{fn}.calls"] = calls(fn)

    m["terms.normalize.steps"] = counter("terms.normalize.steps")
    m["terms.normalize.exhausted_ratio"] = ratio(counter("terms.normalize.exhausted"),
                                                 calls("terms.normalize"))
    m["cells.boundary2.distinct_ratio"] = ratio(traced[0].distinct_cells,
                                                calls("cells.boundary2"))
    m["frontseed.word_reduce.letters_in"] = counter("frontseed.word_reduce.letters_in")
    m["frontseed.word_reduce.kept_ratio"] = ratio(
        counter("frontseed.word_reduce.letters_out"),
        counter("frontseed.word_reduce.letters_in"))
    m["domains.lazymono.hit_ratio"] = ratio(counter("domains.lazymono.hits"),
                                            calls("domains.lazymono_eval"))

    # Scaling curves: medians of raw untraced item times.
    for fuel in (250, 500, 1000):
        m[f"terms.spine.f{fuel}_s"] = item_median(untraced, f"spine.f{fuel}")
    m["terms.deep.max_ok_depth"] = float(deepest_clean_rung(untraced[0].results))
    for d in (4, 6, 8, 10, 12):
        m[f"completion.realize_check.d{d}_ms"] = item_median(untraced, f"realize.d{d}", 1e3)
    for plen in (8, 16, 32, 64, 128):
        m[f"frontseed.assoc_compare.p{plen}_ms"] = item_median(untraced, f"assoc.p{plen}", 1e3)
    m["frontseed.fs_pentagon.item_ms"] = item_median(untraced, "fs_pentagon", 1e3)
    m["frontseed.fs_bridges.item_ms"] = item_median(untraced, "fs_bridges", 1e3)
    for base in (3, 4):
        m[f"domains.tower_init.b{base}_s"] = plan.setup_times.get(f"tower_init.b{base}", 0.0)
        m[f"kinfinity.verify_laws.b{base}_s"] = item_median(untraced, f"verify_laws.b{base}")
    m["kinfinity.b5.attempt_s"] = counts["b5"]["seconds"] if counts["b5"] else 0.0

    durations = [r[3] for p in untraced for r in p.results]
    pct, tail_s = tail(durations)
    m["item.p50_ms"] = statistics.median(durations) * 1e3
    m["item.tail_ms"] = tail_s * 1e3
    m["item.tail_pct"] = pct
    m["item.count"] = float(len(durations))
    m["item.fail_ratio"] = counts["fail_ratio"]
    m["trace.overhead_ratio"] = ratio(median([p.scaled for p in traced]),
                                      median([p.scaled for p in untraced]))
    attributed = median([sum(f[1] for f in t[0].values()) for t in totals])
    m["trace.unattributed_ratio"] = max(0.0, 1.0 - ratio(
        attributed, median([p.seconds for p in traced])))
    return m


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    import workloads
    from tracer import Tracer

    plan, setup_s, import_s, builds = set_up(workloads.WORKLOADS[name], seed)
    tracer = Tracer() if trace else None
    untraced, traced = timed_passes(plan, seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    fingerprints = run_fingerprints()
    b5 = attempt_base5() if name == "kinfty" else None

    report = {"workload": name, "seed": seed, "trace": int(trace),
              "passes": len(untraced), "traced_passes": len(traced)}
    report.update(tally(plan, untraced, traced, fingerprints, b5))
    report["wall"] = {"import_s": import_s, "build_s": builds,
                      "pass_s": [p.seconds for p in untraced],
                      "traced_pass_s": [p.seconds for p in traced],
                      "reference_s": [statistics.median(p.refs) for p in untraced]}
    if trace:
        values = per_layer(plan, untraced, traced, tracer.spans, report)
        units = spec_units("per_layer")
        report["spans"] = str(_write_spans(name, seed, tracer).relative_to(ROOT))
    else:
        values = {"setup_s": setup_s, "verdict_s": median([p.scaled for p in untraced]),
                  "peak_rss_mb": peak_rss_mb}
        units = spec_units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json")
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": report["gate"]["correct"], "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}))
    return 0


def _write_spans(name, seed, tracer) -> Path:
    out_dir = ROOT / ".bench_build" / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump(tracer.spans, fh)
    return path


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, one child process at a time, as a table."""
    all_ok = True
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(int(trace))],
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"== {name}: exit {proc.returncode}\n{proc.stderr}")
            all_ok = False
            continue
        report = json.loads(lines[-2].split(" ", 1)[1])
        result = json.loads(lines[-1])
        all_ok = all_ok and result["correct"]
        print(f"== {name} (seed {seed}): gate {'PASS' if result['correct'] else 'FAIL'}, "
              f"fingerprints {report['gate']['fingerprints']}, "
              f"{report['passes']} passes, digest {report['digest'][:16]}")
        for metric, v in result["metrics"].items():
            print(f"  {metric:38s} {v['value']:.6g} {v['unit']}")
        if not trace:
            print(f"  {'verdict_s, raw wall time':38s} "
                  f"{statistics.median(report['wall']['pass_s']):.6g} s")
        print(f"  {'fail_ratio':38s} {report['fail_ratio']:.6g} ratio "
              f"({report['failed']} failed + {report['known_defects']} known defects "
              f"/ {report['attempted']} attempted)")
        for d in report["defects"]:
            print(f"    known defect: {d['item']}: {d['outcome']}")
        for f in report["failures"]:
            print(f"    FAILED: {f['item']}: {f['detail']}")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
