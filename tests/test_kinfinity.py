import contextlib
import hashlib
import io
import itertools
import json
import random
import sys
from collections import Counter
from functools import partial

import kref
import pytest
from kref import element
from lamtower import domains, kinfinity
from lamtower.cli import main
from lamtower.domains import (CapExceeded, FinPoset, LazyMono, Tower,
                              check_projection_pair, flat_base,
                              step_join_sample)
from lamtower.kinfinity import (Constant, DepthTooSmall, FromThread, Identity,
                                IncoherentThread, Thread, app, app_shadow,
                                bottom_thread, check_law_budget, coherent,
                                cut, reify, restrict, stage_embed, thread_eq,
                                thread_le, thread_row, verify_laws)

BOT, SR1, SL1 = 0, 1, 2
ID1 = element(Tower(flat_base()), (0, 1, 2))  # at base 3


def test_stage_embed_bottom(tower):
    t = bottom_thread(tower, 2)
    assert t.coords[0] == BOT
    assert t.coords[1] == element(tower, (BOT, BOT, BOT))
    assert coherent(t)


def test_stage_embed_pole_coords(tower):
    t = stage_embed(tower, 0, SR1, 2)
    const = element(tower, (SR1, SR1, SR1))
    assert t.coords[0] == SR1
    assert t.coords[1] == const
    assert t.coords[2] == tower.emb(1, const)
    assert coherent(t)


def test_stage_embed_compatible_with_emb(tower):
    # embedding from stage n+1 after f_n^+ equals embedding from stage n
    for x in range(3):
        via_0 = stage_embed(tower, 0, x, 2)
        via_1 = stage_embed(tower, 1, tower.emb(0, x), 2)
        assert thread_eq(via_0, via_1)


def test_stage_embed_depth_guard(tower):
    with pytest.raises(DepthTooSmall):
        stage_embed(tower, 3, None, 2)


def test_retract_coordinate(tower):
    for u in tower.stage1:
        t = stage_embed(tower, 1, u, 3)
        assert t.coords[1] == u


def test_app_shadow_identity(tower):
    x = stage_embed(tower, 1, ID1, 2)
    y = stage_embed(tower, 0, SR1, 2)
    assert thread_eq(app_shadow(0, x, y), stage_embed(tower, 0, SR1, 2))


def test_app_shadow_constant_bottom(tower):
    x = stage_embed(tower, 1, element(tower, (BOT, BOT, BOT)), 2)
    y = stage_embed(tower, 0, SL1, 2)
    assert thread_eq(app_shadow(0, x, y), bottom_thread(tower, 2))


def test_shadow_chain_monotone(tower, rng):
    for _ in range(20):
        u = rng.choice(tower.stage1)
        v = rng.choice(tower.stage1)
        x = stage_embed(tower, 1, u, 3)
        y = stage_embed(tower, 1, v, 3)
        shadows = [app_shadow(n, x, y) for n in range(3)]
        assert thread_le(shadows[0], shadows[1])
        assert thread_le(shadows[1], shadows[2])


def test_app_examples(tower):
    x = stage_embed(tower, 1, ID1, 3)
    y = stage_embed(tower, 0, SL1, 3)
    assert thread_eq(app(x, y), stage_embed(tower, 0, SL1, 3))
    assert thread_eq(app(bottom_thread(tower, 3), y), bottom_thread(tower, 3))


def test_stagewise_application_formula(tower):
    # pi_n(app(x, embed_n(y))) == pi_{n+1}(x)(y), exact, n in {0, 1}
    for u in tower.stage1:
        x = stage_embed(tower, 1, u, 3)
        for n in (0, 1):
            for y in tower.domain(n):
                lhs = app(x, stage_embed(tower, n, y, 3)).coords[n]
                rhs = tower.apply(n + 1, x.coords[n + 1], y)
                assert lhs == rhs


def test_restrict_identity_and_constant(tower):
    assert restrict(Identity(), 0, 3, tower) == ID1
    assert restrict(Identity(), 1, 3, tower) == tower.stage1
    bot = bottom_thread(tower, 3)
    assert restrict(Constant(bot), 0, 3, tower) == element(tower, (BOT, BOT, BOT))
    assert restrict(Constant(bot), 1, 3, tower) == (tower.bottom(1),) * 11


def test_restrict_coherence(tower):
    # f_n^-(r_{n+1}(g)) == r_n(g) for n in {0, 1}
    x = stage_embed(tower, 1, ID1, 3)
    for g in (Identity(), Constant(bottom_thread(tower, 3)), FromThread(x)):
        r0 = restrict(g, 0, 3, tower)
        r1 = restrict(g, 1, 3, tower)
        r2 = restrict(g, 2, 3, tower)
        assert tower.proj(1, r1) == r0
        assert tower.proj(2, r2) == r1


def test_reify_identity_coords(tower):
    t = reify(Identity(), 3, tower)
    assert t.coords[0] == BOT
    assert t.coords[1] == ID1
    assert t.coords[2] == tower.stage1  # the identity table on stage 1
    assert coherent(t)


def test_reify_retract_law(tower):
    for u in tower.stage1:
        x = stage_embed(tower, 1, u, 3)
        assert thread_eq(reify(FromThread(x), 3, tower), x)


def test_reify_constant_bottom(tower):
    t = reify(Constant(bottom_thread(tower, 3)), 3, tower)
    assert t.coords[0] == BOT
    assert thread_eq(t, bottom_thread(tower, 3))


def test_incoherent_thread_rejected(tower):
    good = stage_embed(tower, 0, SR1, 2)
    bad_coords = (SL1,) + good.coords[1:]
    with pytest.raises(ValueError):
        Thread(tower, bad_coords)
    bad = Thread(tower, bad_coords, check=False)
    assert not coherent(bad)


def test_verify_laws_pass(tower):
    report = verify_laws(tower, depth=3)
    assert report["ok"]
    names = {c["name"] for c in report["checks"]}
    assert names == {"stagewise_application", "retract_reify_app",
                     "section_on_embedded_stages", "density_chain"}


def test_verify_laws_flags_corrupt_input(tower):
    good = stage_embed(tower, 0, SR1, 3)
    bad = Thread(tower, (SL1,) + good.coords[1:], check=False)
    report = verify_laws(tower, depth=3, sample_threads=[bad])
    density = next(c for c in report["checks"] if c["name"] == "density_chain")
    assert not density["pass"]
    assert density["detail"][0]["reason"] == "incoherent input"


def test_density_truncation_identity(tower):
    x = reify(Identity(), 3, tower)
    top = stage_embed(tower, 3, x.coords[3], 3)
    assert thread_eq(top, x)


def test_thread_returning_ops_stay_coherent(tower, rng):
    # post-hoc revalidation: every operation that returns a thread returns a
    # coherent one, including the paths that skip the constructor check
    for _ in range(15):
        u = rng.choice(tower.stage1)
        v = rng.choice(tower.stage1)
        x = stage_embed(tower, 1, u, 3)
        y = stage_embed(tower, 1, v, 3)
        assert coherent(x) and coherent(y)
        assert coherent(app(x, y))
        for n in range(3):
            assert coherent(app_shadow(n, x, y))
        assert coherent(reify(FromThread(x), 3, tower))


def _tower(base_size):
    extra = tuple(f"s{i}" for i in range(base_size - 3))
    return Tower(flat_base(("sR1", "sL1") + extra))


def test_verify_laws_base4_passes_every_law():
    report = verify_laws(_tower(4), depth=3)
    assert report["ok"] and all(c["pass"] for c in report["checks"])
    checked = {c["name"]: c["checked"] for c in report["checks"]}
    assert checked == {"stagewise_application": 4757, "retract_reify_app": 68,
                       "section_on_embedded_stages": 355, "density_chain": 67}


def test_verify_laws_repeat_matches_fresh_tower():
    # the second suite on one tower reads the probe vectors the first filled
    for base_size in (3, 4):
        used = _tower(base_size)
        first = verify_laws(used, depth=3)
        assert verify_laws(used, depth=3) == first == verify_laws(_tower(base_size), depth=3)


def test_a_repeat_suite_sees_a_fault_in_stage3_application(monkeypatch):
    # the second suite still applies each stage-3 map through Tower.apply
    t = _tower(3)
    assert verify_laws(t, depth=3)["ok"]
    monkeypatch.setattr(Tower, "apply", _faulty_apply(3))
    assert verify_laws(t, depth=3)["ok"] is False


def test_embedding_stage2_reflects_and_preserves_the_order():
    # e_2 is an order embedding: threads compare as their stage-2 coordinates
    # do, so thread_le must read the top coordinates too.  65 121 of the
    # ordered pairs are below at stages 0 and 1 but not at stage 2.
    t = _tower(3)
    joins = step_join_sample(t, random.Random(0), 300)
    threads = [stage_embed(t, 2, u, 3) for u in joins]
    low_only = 0
    for u, x in zip(joins, threads):
        for v, y in zip(joins, threads):
            below = t.leq(2, u, v)
            assert thread_le(x, y) == below
            if thread_le(y, x):
                assert thread_eq(x, y) == below
            low_only += (not below and t.leq(0, x.coords[0], y.coords[0])
                         and t.leq(1, x.coords[1], y.coords[1]))
    assert len(threads) == 300 and low_only == 65_121


def test_verify_laws_base6_refused_before_tables():
    tower = _tower(6)
    with pytest.raises(CapExceeded, match="7781 elements"):
        verify_laws(tower, depth=3)
    assert tower._emb1 == {} and tower._up1 is None and tower._probes is None
    assert tower._thread_rows == {} and tower._least[1] == {}


def test_tower_tables_are_set_in_init():
    # every table a Tower fills lazily exists from __init__ on: an attribute
    # added later would un-share the instance dict's key layout
    t = _tower(3)
    keys = set(vars(t))
    verify_laws(t, depth=3)
    step_join_sample(t, random.Random(0), 50)
    for n in (0, 1):
        check_projection_pair(t, n, step_join_sample(t, random.Random(1), 20))
    assert t._up1 is not None and t._probes is not None and t._thread_rows
    assert set(vars(t)) == keys


def test_a_stage1_embedding_fills_one_row_entry():
    # the shared row fills per entry: over the flat base 6 one stage-1
    # thread builds one emb(1, .) table, not all 7 781
    t = _tower(6)
    x = stage_embed(t, 1, t.stage1[5], 2)
    assert len(t._emb1) == 1 and stage_embed(t, 1, t.stage1[5], 2) is x
    row = t._thread_rows[1, 2]
    assert row[5] is x and row.count(None) == len(row) - 1


def test_cli_base6_refused(capsys):
    code = main(["kinfty", "check", "--base-size", "6"])
    out = capsys.readouterr().out
    assert code == 2
    assert "7781 elements" in json.loads(out)["error"]


def _law_report(checked, density_ok=True):
    names = ("stagewise_application", "retract_reify_app",
             "section_on_embedded_stages", "density_chain")
    checks = [{"name": name, "pass": True, "checked": count, "detail": []}
              for name, count in zip(names, checked)]
    if not density_ok:
        checks[-1].update({"pass": False, "detail": [
            {"law": "density", "reason": "incoherent input"}]})
    return {"depth": 3, "checks": checks, "ok": density_ok}


@pytest.mark.parametrize("base_size, plain, sampled", [
    (3, (154, 12, 70, 11), (154, 12, 84, 15)),
    (4, (4757, 68, 355, 67), (4757, 68, 426, 71)),
])
def test_verify_laws_reports_pinned(base_size, plain, sampled):
    # whole report dicts, with reified (non-embedded) sample threads whose
    # top coordinates compare probe by probe, and one incoherent thread
    t = _tower(base_size)
    good = stage_embed(t, 0, SR1, 3)
    bad = Thread(t, (SL1,) + good.coords[1:], check=False)
    xs = [reify(Identity(), 3, t), reify(Constant(bottom_thread(t, 3)), 3, t),
          reify(FromThread(stage_embed(t, 1, t.stage1[-1], 3)), 3, t), bad]
    assert verify_laws(t, depth=3) == _law_report(plain)
    assert verify_laws(t, depth=3, sample_threads=xs) == _law_report(sampled, False)


@pytest.mark.parametrize("base_size", [3, 4])
def test_shared_threads_equal_fresh_ones(base_size, mismatches):
    # a shared thread comes back as the same object, and equals the
    # reference's embedding, which is built afresh (kref.diff)
    t = _tower(base_size)
    keys = [(0, x) for x in range(len(t.base))]
    keys += [(1, u) for u in t.stage1]
    keys += [(2, w) for w in t.stage2_probes()]
    for depth in (1, 2, 3):
        for n, u in keys:
            if n > depth:
                continue
            shared = stage_embed(t, n, u, depth)
            assert stage_embed(t, n, u, depth) is shared
    # one row per stage 0 or 1 and depth; the probes read the stage-1 rows
    assert set(t._thread_rows) == {(n, depth) for n in (0, 1) for depth in (1, 2, 3)}
    assert mismatches(t.base) == []


@pytest.mark.parametrize("base_size", [3, 4])
def test_probe_copies_and_joins_get_fresh_threads(base_size):
    t = _tower(base_size)
    probes = t.stage2_probes()
    joins = step_join_sample(t, random.Random(base_size), 10)
    for w in list(probes[::5]) + joins:
        copy = tuple(list(w))
        threads = [stage_embed(t, 2, copy, 3) for _ in range(2)]
        assert threads[0] is not threads[1]
        assert stage_embed(t, 2, w, 3) is not threads[0]
        for thread in threads:
            assert thread_eq(thread, stage_embed(t, 2, w, 3))


@pytest.mark.parametrize("base_size", [3, 4])
def test_thread_rows_are_the_shared_threads(base_size):
    t = _tower(base_size)
    for depth in (1, 2, 3):
        reify(FromThread(stage_embed(t, 1, t.stage1[-1], depth)), depth, t)
    assert set(t._thread_rows) == {(n, depth) for depth in (1, 2, 3) for n in (0, 1)}
    for (n, depth), row in t._thread_rows.items():
        assert thread_row(t, n, depth) is row
        elems = t.domain(n)
        assert len(row) == len(elems)
        for i, (u, thread) in enumerate(zip(elems, row)):
            assert thread is stage_embed(t, n, u, depth)
            if n == 1 and depth > 1:
                assert thread is stage_embed(t, 2, t.stage2_probes()[i], depth)


@pytest.mark.parametrize("n, i, j", [(0, 1, 2), (0, 0, 1), (1, 3, 9), (1, 0, 9)])
def test_a_row_with_two_entries_swapped_fails_the_laws(n, i, j, monkeypatch):
    # the reifications come out incoherent, which fails the laws that read
    # them instead of ending the suite (at (0, 0, 1) a stage-0 restriction,
    # at (1, 0, 9) a stage-1 projection is a table that is not monotone, so
    # has no stage-1 position: NotInStage); the stagewise law never compared
    # the rows of those reifications, so it fails too.  The density law embeds
    # through the same rows, so its chain breaks; a swapped stage-1 row also
    # comes back from app, so the first reification the retract law reads
    # is coherent but wrong
    t = _tower(3)
    row = list(thread_row(t, n, 3))
    row[i], row[j] = row[j], row[i]
    monkeypatch.setitem(t._thread_rows, (n, 3), tuple(row))
    report = verify_laws(t, depth=3)
    assert report["ok"] is False
    failed = {c["name"]: c for c in report["checks"] if not c["pass"]}
    assert set(failed) == {"stagewise_application", "retract_reify_app",
                           "section_on_embedded_stages", "density_chain"}
    assert [c["checked"] for c in report["checks"]] == [154, 12, 70, 11]
    assert failed["density_chain"]["detail"][0] == {"law": "density-chain", "n": 0}
    reasons = {name: check["detail"][0].get("reason") for name, check in failed.items()}
    incoherent = "incoherent reification"
    assert reasons == {"stagewise_application": incoherent,
                       "retract_reify_app": incoherent if n == 0 else None,
                       "section_on_embedded_stages": incoherent, "density_chain": None}


def test_a_non_monotone_restriction_is_incoherent_and_a_stray_key_error_is_not(monkeypatch):
    t = _tower(3)
    swap = {BOT: SR1, SR1: BOT, SL1: BOT}

    class Swap:  # stage-0 restriction (sR1, bot, bot), not monotone
        def apply(self, y):
            return stage_embed(t, 0, swap[y.coords[0]], 3)

    class Stray:
        def apply(self, y):
            raise KeyError("stray")

    with pytest.raises(IncoherentThread) as caught:
        reify(Swap(), 3, t)
    assert isinstance(caught.value.__cause__, domains.NotInStage)
    with pytest.raises(KeyError, match="stray"):
        reify(Stray(), 3, t)
    x = stage_embed(t, 1, t.stage1[-1], 3)
    monkeypatch.setattr(t, "proj", partial(_raise, KeyError("stray")))
    with pytest.raises(KeyError, match="stray"):
        coherent(x)


def _raise(error, *args):
    raise error


def test_incoherent_reification_is_its_own_error(monkeypatch):
    t = _tower(3)
    row = list(thread_row(t, 0, 3))
    row[1], row[2] = row[2], row[1]
    monkeypatch.setitem(t._thread_rows, (0, 3), tuple(row))
    with pytest.raises(IncoherentThread, match="incoherent thread"):
        reify(Identity(), 3, t)


@pytest.mark.parametrize("base_size", [3, 4])
def test_depth3_reify_applies_its_endomap_once_per_stage1_point(base_size, monkeypatch):
    # g is applied once per stage-0 element and once per stage-1 element;
    # the stage-2 restriction reads the stage-1 images at the probes
    t = _tower(base_size)
    x = stage_embed(t, 1, t.stage1[-2], 3)
    calls = []

    def counted_app(a, b):
        calls.append(b)
        return app(a, b)
    monkeypatch.setattr(kinfinity, "app", counted_app)
    r = reify(FromThread(x), 3, t)
    assert t.at_probes(r.coords[3]) == [app(x, stage_embed(t, 2, w, 3)).coords[2]
                                        for w in t.stage2_probes()]
    assert len(calls) == len(t.base) + len(t.stage1) == {3: 14, 4: 71}[base_size]


def _counted_suite(monkeypatch, t):
    """Run verify_laws on t, counting stage-3 evaluations per (map, argument).

    Every map and argument is kept alive, so identities are not reused."""
    calls, kept = Counter(), []
    init = LazyMono.__init__

    def counting_init(self, fn, key=None):
        def counted(w):
            kept.append(w)
            calls[id(self), id(w)] += 1
            return fn(w)
        kept.append(self)
        init(self, counted, key)

    monkeypatch.setattr(LazyMono, "__init__", counting_init)
    report = verify_laws(t, depth=3)
    monkeypatch.undo()
    return report, calls


def test_suite_evaluates_each_map_probe_pair_once(monkeypatch):
    t = _tower(4)
    report, calls = _counted_suite(monkeypatch, t)
    assert report == _law_report((4757, 68, 355, 67))
    probe_ids = {id(w) for w in t.stage2_probes()}
    assert {w for _, w in calls} <= probe_ids  # every argument is a probe
    assert max(calls.values()) == 1
    assert sum(calls.values()) == 9447
    # the shared threads are the stage-0 and stage-1 rows at the one depth
    # the suite uses; the probes read the stage-1 row
    assert set(t._thread_rows) == {(0, 3), (1, 3)}


@pytest.mark.parametrize("base_size", [3, 4])
def test_law_budget_estimate_matches_counted_evaluations(base_size, monkeypatch):
    # the estimate is the exact count
    t = _tower(base_size)
    _, calls = _counted_suite(monkeypatch, t)
    s = len(t.stage1)
    estimate = s * (2 * s + 7)
    assert sum(calls.values()) == estimate
    check_law_budget(s)
    assert estimate == {3: 319, 4: 9447}[base_size]


@pytest.mark.parametrize("base_size", [3, 4])
def test_a_second_suite_on_one_tower_evaluates_only_its_new_maps(base_size, monkeypatch):
    # the shared threads keep their full probe vectors, so a warm suite
    # evaluates only the maps it builds afresh, each once per probe
    t = _tower(base_size)
    cold, _ = _counted_suite(monkeypatch, t)
    warm, calls = _counted_suite(monkeypatch, t)
    assert warm == cold and max(calls.values()) == 1
    assert sum(calls.values()) == {3: 187, 4: 4891}[base_size]


@pytest.mark.parametrize("kind", ["beta", "eta"])
def test_witness_evaluates_no_stage3_map(kind, monkeypatch):
    log = []
    init = LazyMono.__init__
    monkeypatch.setattr(LazyMono, "__init__", lambda self, fn, key=None: init(
        self, lambda w: log.append(w) or fn(w), key))
    for depth in (1, 2, 3):
        assert main(["witness", kind, "--depth", str(depth)]) == 0
    assert log == []


# -- faults in application: the reports under each are pinned --------------

def _faulty_apply(level):
    """Tower.apply with one wrong value at `level`, a pure function of its
    arguments: at base 3, apply(1, ID1, sR1) gives sL1, apply(2, emb(1, ID1),
    ID1) gives emb(0, sL1), and apply(3, u, w) gives the first probe for a map
    u keyed ("emb2", emb(1, ID1)) at the last probe w."""
    apply = Tower.apply

    def faulty(self, lvl, f, x):
        if lvl == level == 1 and (f, x) == (ID1, SR1):
            return SL1
        if lvl == level == 2 and (f, x) == (self.emb(1, ID1), ID1):
            return self.emb(0, SL1)
        if (lvl == level == 3 and f.key == ("emb2", self.emb(1, ID1))
                and x == self.stage2_probes()[-1]):
            return self.stage2_probes()[0]
        return apply(self, lvl, f, x)
    return faulty


@pytest.mark.parametrize("level", [1, 2, 3])
def test_each_fault_changes_the_value_it_patches(level):
    t = _tower(3)
    f, x = {1: (ID1, SR1), 2: (t.emb(1, ID1), ID1),
            3: (t.emb(2, t.emb(1, ID1)), t.stage2_probes()[-1])}[level]
    assert _faulty_apply(level)(t, level, f, x) != Tower.apply(t, level, f, x)


@pytest.mark.parametrize("level, ok, digest", [
    (1, False,
     "cb76409eb30958fa255eb72c1bdccf0e6551870b22607d278552b43d3a620909"),
    # stage-3 maps evaluate through the same apply(2, .) the stagewise law
    # compares with, so that law passes; the retract and density laws fail
    (2, False,
     "f9e008b610a455b33e94ecb39cca77440801adf070013b04b2cbc6dc085970fc"),
    (3, False,
     "a8f61006cda109c59004195903a157bc260bcb64157dc319f2f4e6f0cd9ee4be"),
])
def test_reports_under_a_faulty_apply_are_pinned(level, ok, digest, monkeypatch):
    monkeypatch.setattr(Tower, "apply", _faulty_apply(level))
    report = verify_laws(_tower(3), depth=3)
    assert report["ok"] is ok
    text = json.dumps(report, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("level", [1, 2, 3])
def test_the_reference_sees_each_faulty_apply(level, monkeypatch):
    monkeypatch.setattr(Tower, "apply", _faulty_apply(level))
    assert kref.diff(_tower(3))


# -- the reference model is the arbiter --------------------------------------

# the public callables of domains and kinfinity that kref.diff does not call
NOT_DIFFED = {
    "CapExceeded": "an exception class, with no code of its own",
    "DepthTooSmall": "an exception class, with no code of its own",
    "IncoherentThread": "an exception class, with no code of its own",
    "NotInStage": "an exception class, with no code of its own",
    "Probe": "a tuple with no code of its own, built by emb(1, .); diff compares "
             "stage2_probes and which stage-2 values are probes, at which pos",
    "FinPoset": "a base, built before diff runs; test_poset_check_agrees_with_definition "
                "pins its checks, test_stage1_is_a_pointed_poset_at_base5_quickly the "
                "stage-1 order's",
    "Tower": "diff's input, built before it runs; each method is compared",
    "check_law_budget": "its counts are pinned by the evaluation-count tests",
    "check_projection_pair": "its reports are pinned by the projection-pair tests; "
                             "diff compares the emb and proj it composes",
    "flat_base": "it builds a base, not a tower; test_flat_base_shape pins it",
    "flat_stage1_size": "test_flat_stage1_size_matches_enumeration pins it",
    "verify_laws": "not re-implemented: its reports are pinned, and diff "
                   "compares every operation it composes",
}


def test_the_reference_covers_every_public_callable():
    # a function or method counts when it runs, a class when it is built;
    # the unpatched tower has no mismatch
    called, t = set(), _tower(3)
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        assert kref.diff(t) == []
    finally:
        sys.setprofile(None)
    public = [(name, obj) for module in (domains, kinfinity) for name, obj in vars(module).items()
              if name[0] != "_" and getattr(obj, "__module__", None) == module.__name__]
    code = {name: obj.__init__ if isinstance(obj, type) else obj for name, obj in public}
    code.update((f"{name}.{k}", f) for name, obj in public if isinstance(obj, type)
                for k, f in vars(obj).items() if callable(f) and k[0] != "_")
    assert {k for k, f in code.items() if getattr(f, "__code__", None) not in called} \
        == set(NOT_DIFFED)


def test_probe_comparisons_decide_stage3_on_the_two_element_base(monkeypatch):
    # on bot < a, stage 2 has 10 elements, so every stage-3 comparison the
    # law suite makes can be decided at all of them, not only at the probes
    base = FinPoset(("bot", "a"), ((True, True), (False, True)))
    t = Tower(base)
    ref, T = kref.Ref(base), kref.Tabled(t)
    stage2 = [w for w in itertools.product(ref.d1, repeat=len(ref.d1)) if ref.monotone(1, w)]
    calls = []
    for name in ("eq", "leq"):
        def logged(self, level, a, b, name=name, compare=getattr(Tower, name)):
            got = compare(self, level, a, b)
            if level == 3:
                calls.append((name, a, b, got))
            return got
        monkeypatch.setattr(Tower, name, logged)
    assert verify_laws(t, depth=3)["ok"]
    monkeypatch.undo()
    assert len(stage2) == 10 and Counter(c[0] for c in calls) == {"eq": 7, "leq": 12}
    for name, a, b, got in calls:
        assert got == getattr(ref, name)(3, partial(T.apply, 3, a), partial(T.apply, 3, b), stage2)


# -- a probe vector is read whole ----------------------------------------------

def test_full_vector_comparisons_agree_with_the_entrywise_rule(tower):
    # two full vectors compare as wholes: entries equal but not identical,
    # a plain copy against each probe, and entries that differ only at the
    # last probe, where one map gives bottom
    probes = tower.stage2_probes()
    ident = restrict(Identity(), 2, 3, tower)
    copy = LazyMono(lambda w: tuple(list(w)))
    low = LazyMono(lambda w: tower.bottom(2) if w is probes[-1] else w)
    maps = (ident, copy, low)
    for u in maps:
        assert tower.at_probes(u) is u.probed
    assert [type(v) for v in copy.probed] == [tuple] * len(probes)
    assert ident.probed[-1] != tower.bottom(2) and ident.probed[:-1] == low.probed[:-1]
    for a, b in itertools.product(maps, repeat=2):
        pairs = list(zip(a.probed, b.probed))
        assert tower.eq(3, a, b) == all(tower.eq(2, v, w) for v, w in pairs)
        assert tower.leq(3, a, b) == all(tower.leq(2, v, w) for v, w in pairs)
    assert tower.eq(3, ident, copy) and not tower.eq(3, ident, low)
    assert tower.leq(3, low, copy) and not tower.leq(3, copy, low)


def test_cut_keeps_the_low_coordinates(tower):
    x = reify(Identity(), 3, tower)
    for d in range(4):
        assert cut(x, d).coords == x.coords[:d + 1] and cut(x, d).depth == d
    for d in (-1, 4):
        with pytest.raises(DepthTooSmall):
            cut(x, d)

def _counted_map(fn):
    """A fresh stage-3 map and the list its evaluations are logged to."""
    log = []

    def counted(w):
        log.append(w)
        return fn(w)
    return LazyMono(counted), log


def test_full_probe_vector_is_returned_as_is(tower):
    probes = tower.stage2_probes()
    fn = restrict(Identity(), 2, 3, tower).fn
    u, log = _counted_map(fn)
    values = tower.at_probes(u)
    assert values is u.probed and log == list(probes)
    assert values == [fn(w) for w in probes]
    assert tower.at_probes(u) is values
    assert tower.proj(2, u) == tower.stage1  # p_2 of the identity
    assert log == list(probes)  # read again, evaluated once


FIRST_READS = {
    "apply": lambda t, u, v: t.apply(3, u, t.stage2_probes()[0]),
    "eq": lambda t, u, v: t.eq(3, u, v),
    "leq": lambda t, u, v: t.leq(3, u, v),
    "proj": lambda t, u, v: t.proj(2, u),
    "at_probes": lambda t, u, v: t.at_probes(u),
}


@pytest.mark.parametrize("read", list(FIRST_READS))
def test_first_read_of_any_kind_fills_the_whole_vector(read):
    # the first read at the probes, even apply(3) at one of them, calls fn
    # once per probe, in probe order, and never through the memo; no later
    # read of any kind calls it again
    t = _tower(4)
    fn = restrict(Identity(), 2, 3, t).fn
    u, log = _counted_map(fn)
    v = LazyMono(lambda w: w)
    assert t._probes is None
    FIRST_READS[read](t, u, v)
    probes = t._probes
    assert log == list(probes) and u.probed == [fn(w) for w in probes]
    assert u.memo == {}
    for again in FIRST_READS.values():
        again(t, u, v)
        again(t, v, u)
    assert len(log) == len(probes) and u.memo == {}


@pytest.mark.parametrize("fill", ["ident", "const", "neither"])
def test_unequal_comparison_reads_each_vector_once(tower, fill):
    # whatever was read before, an unequal comparison reads both whole
    # vectors, each evaluated once at every probe; a map compared with
    # itself is equal and below itself
    probes = tower.stage2_probes()
    ident_fn = restrict(Identity(), 2, 3, tower).fn
    const_fn = restrict(Constant(bottom_thread(tower, 3)), 2, 3, tower).fn
    ident, ident_log = _counted_map(ident_fn)
    const, const_log = _counted_map(const_fn)
    full = {"ident": ident, "const": const}.get(fill)
    if full is not None:
        tower.at_probes(full)
    for compare in (tower.eq, tower.leq):
        assert not compare(3, ident, const)
    assert tower.eq(3, ident, ident) and tower.leq(3, ident, ident)
    for u, fn, log in ((ident, ident_fn, ident_log), (const, const_fn, const_log)):
        assert u.probed == [fn(w) for w in probes]
        assert log == list(probes)


def test_unequal_restricted_pair_reads_both_whole_vectors(tower):
    # the maps `restrict` returns, compared fresh: the first difference does
    # not cut the read short, and a map compared with itself is equal and
    # below itself without a second fill
    probes = tower.stage2_probes()
    ident = restrict(Identity(), 2, 3, tower)
    const = restrict(Constant(bottom_thread(tower, 3)), 2, 3, tower)
    assert any(ident.fn(w) != const.fn(w) for w in probes)
    assert not tower.eq(3, ident, const)
    assert len(ident.probed) == len(const.probed) == len(probes)
    filled = ident.probed
    assert tower.eq(3, ident, ident) and tower.leq(3, ident, ident)
    assert ident.probed is filled
    assert ident.probed == [ident.fn(w) for w in probes]
    assert const.probed == [const.fn(w) for w in probes]


# -- base 5 is admitted: its whole law suite, once per session ---------------

@pytest.fixture(scope="module")
def base5_check():
    """One `kinfty check --base-size 5` at the default seed: its exit code,
    its stdout as parsed JSON and as a digest, and its stage-3 evaluations."""
    evaluations = [0]
    init = LazyMono.__init__

    def counting_init(self, fn, key=None):
        def counted(w):
            evaluations[0] += 1
            return fn(w)
        init(self, counted, key)

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(LazyMono, "__init__", counting_init)
        code = main(["kinfty", "check", "--base-size", "5"])
    out = out.getvalue()
    return (code, json.loads(out), hashlib.sha256(out.encode()).hexdigest(),
            evaluations[0])


def test_kinfty_check_base5_stdout_pinned(base5_check):
    # the largest base the law budget admits
    code, _, digest, _ = base5_check
    assert (code, digest) == (
        0, "c46aa886257cdedfea68c29aca1b8f4053c09a7943bf823e4ad75d1a507cd33b")


def test_verify_laws_base5_passes_every_law(base5_check):
    _, report, _, _ = base5_check
    laws = _law_report((398786, 630, 3170, 629))
    assert (report["result"]["depth"], report["checks"][:4]) == (3, laws["checks"])


def test_verify_laws_base5_evaluation_count(base5_check):
    # exactly the budget estimate
    _, report, _, evaluations = base5_check
    base, s = len(report["result"]["base"]), report["result"]["stage1_size"]
    assert (base, s) == (5, 629)
    assert evaluations == 795_685 == s * (2 * s + 7)
    check_law_budget(s)
