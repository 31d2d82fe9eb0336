import hashlib
import json
import random
from collections import Counter

import pytest
from lamtower import kinfinity
from lamtower.cli import main
from lamtower.domains import (CapExceeded, LazyMono, Tower, check_law_budget,
                              check_projection_pair, enumerate_stage,
                              flat_base, step_join_sample)
from lamtower.kinfinity import (Constant, DepthTooSmall, FromThread, Identity,
                                IncoherentThread, Thread, app, app_shadow,
                                bottom_thread, coherent, reify, restrict,
                                stage_embed, thread_eq, thread_le, thread_row,
                                verify_laws)

BOT, SR1, SL1 = 0, 1, 2
ID1 = (0, 1, 2)


def test_stage_embed_bottom(tower):
    t = bottom_thread(tower, 2)
    assert t.coords[0] == BOT
    assert t.coords[1] == (BOT, BOT, BOT)
    assert coherent(t)


def test_stage_embed_pole_coords(tower):
    t = stage_embed(tower, 0, SR1, 2)
    const = (SR1, SR1, SR1)
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
    x = stage_embed(tower, 1, (BOT, BOT, BOT), 2)
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
    assert restrict(Identity(), 0, 3, tower) == (0, 1, 2)
    assert restrict(Identity(), 1, 3, tower) == tower.stage1
    bot = bottom_thread(tower, 3)
    assert restrict(Constant(bot), 0, 3, tower) == (BOT, BOT, BOT)
    assert restrict(Constant(bot), 1, 3, tower) == (tower.bottom(1),) * 11


def test_restrict_coherence(tower):
    # f_n^-(r_{n+1}(g)) == r_n(g) for n in {0, 1}
    x = stage_embed(tower, 1, (BOT, SR1, SL1), 3)
    for g in (Identity(), Constant(bottom_thread(tower, 3)), FromThread(x)):
        r0 = restrict(g, 0, 3, tower)
        r1 = restrict(g, 1, 3, tower)
        r2 = restrict(g, 2, 3, tower)
        assert tower.proj(1, r1) == r0
        assert tower.proj(2, r2) == r1


def test_reify_identity_coords(tower):
    t = reify(Identity(), 3, tower)
    assert t.coords[0] == BOT
    assert t.coords[1] == (0, 1, 2)
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
    used = _tower(4)
    first = verify_laws(used, depth=3)
    assert verify_laws(used, depth=3) == first == verify_laws(_tower(4), depth=3)


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
    assert tower._probe_pos == {} and tower._threads == {}
    assert tower._probe_proj1 == () and tower._thread_rows == {}


def test_tower_tables_are_set_in_init():
    # every table a Tower fills lazily exists from __init__ on: an attribute
    # added later would un-share the instance dict's key layout
    t = _tower(3)
    keys = set(vars(t))
    verify_laws(t, depth=3)
    step_join_sample(t, random.Random(0), 50)
    for n in (0, 1):
        check_projection_pair(t, n, step_join_sample(t, random.Random(1), 20))
    enumerate_stage(t, 0)
    enumerate_stage(t, 1)
    assert t._up1 is not None and t._probes is not None and t._threads
    assert set(vars(t)) == keys


def test_cli_base6_refused(capsys):
    code = main(["kinfty", "check", "--base-size", "6"])
    out = capsys.readouterr().out
    assert code == 2
    assert "7781 elements" in json.loads(out)["error"]


def _probe_maps(t):
    """Fresh stage-3 maps: emb(2, .) of some stage-2 tables and the stage-2
    restrictions of three endomaps."""
    maps = [t.emb(2, w) for w in [t.bottom(2)] + [t.emb(1, g) for g in t.stage1[::5]]]
    gs = (Identity(), Constant(bottom_thread(t, 3)),
          FromThread(stage_embed(t, 1, t.stage1[-1], 3)))
    return maps + [restrict(g, 2, 3, t) for g in gs]


def _below2(t, a, b):
    """Stage-2 order, pointwise over the base order, with no shortcut."""
    leq0 = t.base.leq
    return all(leq0[x][y] for f, g in zip(a, b) for x, y in zip(f, g))


@pytest.mark.parametrize("base_size", [3, 4])
def test_probe_vectors_match_probe_by_probe_reference(base_size):
    t = _tower(base_size)
    probes = t.stage2_probes()
    maps = _probe_maps(t)
    refs = [[u.fn(w) for w in probes] for u in maps]
    for a, ra in zip(maps, refs):
        for b, rb in zip(maps, refs):
            assert t.eq(3, a, b) == (ra == rb)
            assert t.leq(3, a, b) == all(_below2(t, x, y) for x, y in zip(ra, rb))
    for u, ref in zip(maps, refs):
        assert t.proj(2, u) == tuple(t.proj(1, v) for v in ref)
        assert u.probed == ref
    assert any(ra != rb for ra in refs for rb in refs)


def test_unequal_pair_stops_at_first_differing_probe(tower):
    probes = tower.stage2_probes()
    ident = restrict(Identity(), 2, 3, tower)
    const = restrict(Constant(bottom_thread(tower, 3)), 2, 3, tower)
    first = next(i for i, w in enumerate(probes) if ident.fn(w) != const.fn(w))
    assert not tower.eq(3, ident, const)
    assert len(ident.probed) == len(const.probed) == first + 1 < len(probes)
    # eq(3, ...) reads a map compared with itself twice, filling it once;
    # leq(3, ...) answers by identity
    assert tower.eq(3, ident, ident) and tower.leq(3, ident, ident)
    assert ident.probed == [ident.fn(w) for w in probes]


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


def _fresh_coords(t, n, u, depth):
    """A thread's coordinates built by hand: project below, embed above."""
    coords = [None] * (depth + 1)
    coords[n] = u
    for m in range(n - 1, -1, -1):
        coords[m] = t.proj(m, coords[m + 1])
    for m in range(n + 1, depth + 1):
        coords[m] = t.emb(m - 1, coords[m - 1])
    return coords


def _same_coords(t, shared, fresh):
    """Coordinate by coordinate; a stage-3 coordinate by its key and by
    apply(3, ., w) against a fresh map's fn at every probe."""
    assert len(shared.coords) == len(fresh)
    for n, (a, b) in enumerate(zip(shared.coords, fresh)):
        if n < 3:
            assert a == b
        else:
            assert a.key == b.key
            assert [t.apply(3, a, w) for w in t.stage2_probes()] == \
                [b.fn(w) for w in t.stage2_probes()]


@pytest.mark.parametrize("base_size", [3, 4])
def test_shared_threads_equal_fresh_ones(base_size):
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
            _same_coords(t, shared, _fresh_coords(t, n, u, depth))
    assert len(t._threads) == (len(t.base) * 3 + len(t.stage1) * 3
                               + len(t.stage2_probes()) * 2)


@pytest.mark.parametrize("base_size", [3, 4])
def test_probe_copies_and_joins_get_fresh_threads(base_size):
    t = _tower(base_size)
    probes = t.stage2_probes()
    joins = step_join_sample(t, random.Random(base_size), 10)
    maps = _probe_maps(t)
    for w in list(probes[::5]) + joins:
        copy = tuple(list(w))
        threads = [stage_embed(t, 2, copy, 3) for _ in range(2)]
        assert threads[0] is not threads[1]
        assert stage_embed(t, 2, w, 3) is not threads[0]
        for thread in threads:
            _same_coords(t, thread, _fresh_coords(t, 2, w, 3))
        for u in maps:
            assert t.apply(3, u, copy) == t.apply(3, u, w) == u.fn(w)


def _restrict_by_definition(t, g, n, depth):
    """restrict's definition: project, apply, embed, entry by entry."""
    return t.tabulate(n, lambda u: g.apply(stage_embed(t, n, u, depth)).coords[n])


@pytest.mark.parametrize("base_size", [3, 4])
def test_restrict_matches_its_definition(base_size):
    t = _tower(base_size)
    probes = t.stage2_probes()
    joins = step_join_sample(t, random.Random(base_size), 10)
    assert all(t.probe_position(w) is None for w in joins)
    # probes, equal copies of probes and step joins that are not probes
    args2 = list(probes) + [tuple(list(w)) for w in probes[::5]] + joins
    for depth in (2, 3):
        xs = [stage_embed(t, 1, u, depth) for u in t.stage1[::7]]
        gs = [Identity(), Constant(bottom_thread(t, depth)), Constant(xs[-1])]
        gs += [FromThread(x) for x in xs]
        gs.append(FromThread(reify(Identity(), depth, t)))  # an unshared point
        for g in gs:
            for n in (0, 1):
                assert restrict(g, n, depth, t) == _restrict_by_definition(t, g, n, depth)
            if depth == 3:
                got, want = restrict(g, 2, 3, t), _restrict_by_definition(t, g, 2, 3)
                assert [got.fn(w) for w in args2] == [want.fn(w) for w in args2]
                assert t.eq(3, got, want)


@pytest.mark.parametrize("base_size", [3, 4])
def test_thread_rows_are_the_shared_threads(base_size):
    t = _tower(base_size)
    for depth in (1, 2, 3):
        reify(FromThread(stage_embed(t, 1, t.stage1[-1], depth)), depth, t)
    assert set(t._thread_rows) == {(n, depth) for depth in (1, 2, 3)
                                   for n in range(min(depth, 2))}
    for (n, depth), row in t._thread_rows.items():
        assert thread_row(t, n, depth) is row
        elems = t.domain(n)
        assert len(row) == len(elems)
        for i, (u, thread) in enumerate(zip(elems, row)):
            assert thread is stage_embed(t, n, u, depth)
            assert thread is t._threads[n, i, depth]


@pytest.mark.parametrize("n, i, j", [(0, 1, 2), (1, 3, 9)])
def test_a_row_with_two_entries_swapped_fails_the_laws(n, i, j, monkeypatch):
    # the reifications come out incoherent, which fails the laws that read
    # them instead of ending the suite; the stagewise law never compared the
    # rows of those reifications, so it fails too
    t = _tower(3)
    row = list(thread_row(t, n, 3))
    row[i], row[j] = row[j], row[i]
    monkeypatch.setitem(t._thread_rows, (n, 3), tuple(row))
    report = verify_laws(t, depth=3)
    assert report["ok"] is False
    failed = {c["name"]: c for c in report["checks"] if not c["pass"]}
    assert set(failed) == {"stagewise_application", "retract_reify_app",
                           "section_on_embedded_stages"}
    assert [c["checked"] for c in report["checks"]] == [154, 12, 70, 11]
    for check in failed.values():
        assert check["detail"][0]["reason"] == "incoherent reification"


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
    # the thread table stays within one entry per stage-0 element, stage-1
    # element and probe, at the one depth the suite uses
    assert {depth for _, _, depth in t._threads} == {3}
    assert len(t._threads) <= len(t.base) + len(t.stage1) + len(probe_ids)


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


# -- the probe fast paths are exact ------------------------------------------

def _proj1_by_formula(t, v):
    """proj(1, v) by its definition, with no probe table: v at the constant
    map at x, evaluated at bottom."""
    n, bot = len(t.base), t.base.bottom
    return tuple(v[t.stage1_index[(x,) * n]][bot] for x in range(n))


def _proj2_by_formula(t, fn):
    """proj(2, .) of the stage-3 map fn, probe by probe, from fresh
    evaluations."""
    return tuple(_proj1_by_formula(t, fn(w)) for w in t.stage2_probes())


@pytest.mark.parametrize("base_size", [3, 4])
def test_proj1_of_a_probe_reads_the_table_exactly(base_size):
    t = _tower(base_size)
    probes = t.stage2_probes()
    assert t._probe_proj1 == t.stage1
    for w in probes:
        copy = tuple(list(w))
        assert t.proj(1, w) == t.proj(1, copy) == _proj1_by_formula(t, w)


@pytest.mark.parametrize("base_size", [3, 4])
def test_proj2_matches_probe_by_probe_formula(base_size):
    t = _tower(base_size)
    verify_laws(t, depth=3)
    keys = [(0, x) for x in range(len(t.base))]
    keys += [(1, u) for u in t.stage1]
    keys += [(2, w) for w in t.stage2_probes()]
    tops = [stage_embed(t, n, u, 3).coords[3] for n, u in keys]
    gs = [Identity(), Constant(bottom_thread(t, 3))]
    gs += [FromThread(stage_embed(t, 1, u, 3)) for u in t.stage1]
    restrictions = [reify(g, 3, t).coords[3] for g in gs]
    for u in tops + restrictions:
        assert t.proj(2, u) == _proj2_by_formula(t, u.fn)
    # values equal to the probes but other objects take the proj(1, .) path
    copies = LazyMono(lambda w: tuple(list(w)))
    assert t.proj(2, copies) == _proj2_by_formula(t, copies.fn) == t.stage1
    assert all(t.probe_position(v) is None for v in copies.probed)


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
    assert values is not u.probed and log == []  # a partial vector fills lazily
    assert list(values) == [fn(w) for w in probes] and log == list(probes)
    assert tower.at_probes(u) is u.probed
    assert tower.proj(2, u) == _proj2_by_formula(tower, fn)
    assert log == list(probes)  # read again, evaluated once


@pytest.mark.parametrize("fill", ["ident", "const", "neither"])
def test_unequal_comparison_reads_no_further_than_first_difference(tower, fill):
    # as on a partial vector before the full one was returned as is: an
    # unequal comparison evaluates each partial vector up to the first
    # differing probe and no further
    probes = tower.stage2_probes()
    ident_fn = restrict(Identity(), 2, 3, tower).fn
    const_fn = restrict(Constant(bottom_thread(tower, 3)), 2, 3, tower).fn
    first = next(i for i, w in enumerate(probes) if ident_fn(w) != const_fn(w))
    assert first + 1 < len(probes)
    ident, ident_log = _counted_map(ident_fn)
    const, const_log = _counted_map(const_fn)
    full = {"ident": ident, "const": const}.get(fill)
    if full is not None:
        list(tower.at_probes(full))
    for compare in (tower.eq, tower.leq):
        assert not compare(3, ident, const)
    for u, log in ((ident, ident_log), (const, const_log)):
        read = len(probes) if u is full else first + 1
        assert len(u.probed) == read
        assert log == list(probes[:read])


# -- base 5 is admitted: its whole law suite, once per session ---------------

@pytest.fixture(scope="module")
def base5_suite():
    """One base-5 verify_laws with its stage-3 evaluations counted."""
    evaluations = [0]
    init = LazyMono.__init__

    def counting_init(self, fn, key=None):
        def counted(w):
            evaluations[0] += 1
            return fn(w)
        init(self, counted, key)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LazyMono, "__init__", counting_init)
        t = _tower(5)
        report = verify_laws(t, depth=3)
    return report, evaluations[0], len(t.base), len(t.stage1)


def test_verify_laws_base5_passes_every_law(base5_suite):
    report, _, _, _ = base5_suite
    assert report == _law_report((398786, 630, 3170, 629))


def test_verify_laws_base5_evaluation_count(base5_suite):
    # exactly the budget estimate
    _, evaluations, base, s = base5_suite
    assert (base, s) == (5, 629)
    assert evaluations == 795_685 == s * (2 * s + 7)
    check_law_budget(s)
